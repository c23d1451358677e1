"""Outside-in span tracing of ringcf's public functions.

Each target is wrapped at every name a loaded ``ringcf`` module binds it to
(for example ``ringcf.rates.rank_over_K`` as well as
``ringcf.fields.rank_over_K``), so calls between modules are seen without
changing any code under ``src/``. Spans live in memory and are written out
once the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, function) pairs reported as layers, in report order.
TARGETS = (
    ("fields", "rank_over_K"),
    ("fields", "catalog_field"),
    ("lattices", "lll_reduce"),
    ("lattices", "successive_minima"),
    ("lattices", "closest_vector"),
    ("rates", "best_coefficients"),
    ("rates", "build_humbert"),
    ("rates", "psi_map"),
    ("rates", "if_rate"),
    ("rates", "integer_baseline"),
    ("rates", "integer_if_rate"),
    ("rates", "ml_capacity"),
    ("rates", "mac_capacity"),
    ("codec", "prime_ideal"),
    ("codec", "build_nested_pair"),
    ("codec", "encode"),
    ("codec", "decode_equation"),
    ("codec", "extract_ff_equation"),
    ("exact", "mat_solve"),
    ("exact", "int_mat_det"),
    ("exact", "column_basis"),
    ("experiments", "run_sweep"),
    ("experiments", "run_if_sweep"),
)

PACKAGE = "ringcf"
RANK_TEST = "fields.rank_over_K"
LLL = "lattices.lll_reduce"


class MissingTargetError(RuntimeError):
    """A layer function the benchmark wraps no longer exists."""


class Tracer:
    """Records (name, start, end, parent) spans while installed.

    ``install`` swaps every binding of each target for a timing wrapper and
    ``uninstall`` restores the originals, so untraced code runs unwrapped.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.rank_tests = 0
        self.rank_accepts = 0
        self._stack = []
        self._bindings = []      # (module object, attribute, original, wrapper)
        missing = []
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get("%s.%s" % (PACKAGE, mod_name))
            fn = getattr(home, fn_name, None) if home is not None else None
            if not callable(fn):
                missing.append("%s.%s.%s" % (PACKAGE, mod_name, fn_name))
                continue
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), fn)
            for name, mod in sorted(sys.modules.items()):
                if mod is None or not (name == PACKAGE
                                       or name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, attr, fn, wrapper))
        if missing:
            raise MissingTargetError("cannot wrap missing layer functions: "
                                     + ", ".join(missing))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_rank = name == RANK_TEST

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if count_rank:
                # best_coefficients and if_rate keep a candidate exactly
                # when the rank equals the number of rows tested
                self.rank_tests += 1
                self.rank_accepts += out == len(args[1])
            return out
        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    def layer_totals(self, first=0):
        """{name: [calls, self seconds]} and the time inside top-level spans,
        over the spans recorded from index `first` on."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {"%s.%s" % t: [0, 0.0] for t in TARGETS}
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans[first:], first):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child[i]
            if parent < 0:
                top += end - start
        return totals, top

    def metrics(self, per_op, setup_wall, blocks, loop_start):
        """Per-layer calls, self time and share of traced wall, plus ratios.

        setup_wall is the traced in-process set-up; blocks maps traced (True)
        and untraced (False) to the seconds of each block of the loop, whose
        spans start at index loop_start.
        """
        totals, top = self.layer_totals()
        traced_wall = setup_wall + sum(blocks[True])
        out = {}
        for name, (calls, self_s) in totals.items():
            out[name + ".calls"] = {"value": calls, "unit": "count"}
            out[name + ".self_s"] = {"value": self_s, "unit": "s"}
            out[name + ".share"] = {"value": self_s / traced_wall,
                                    "unit": "fraction"}
        out[RANK_TEST + ".accept_ratio"] = {
            "value": (self.rank_accepts / self.rank_tests
                      if self.rank_tests else 0.0), "unit": "ratio"}
        loop, _ = self.layer_totals(loop_start)
        ops = sum(loop[name][0] for name in per_op)
        out[LLL + ".per_op"] = {"value": loop[LLL][0] / ops if ops else 0.0,
                                "unit": "calls/op"}
        out["trace.coverage"] = {"value": top / traced_wall, "unit": "fraction"}
        # medians, so a rare costly input in either half does not skew it
        out["trace.overhead"] = {
            "value": statistics.median(blocks[True]) / statistics.median(blocks[False]),
            "unit": "ratio"}
        return out

    def write(self, path):
        """Write spans as JSON: one [name, start, end, parent] row each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
