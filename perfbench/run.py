"""ringcf benchmark: one seeded workload per run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
wraps each layer's public functions (see layertrace.py), alternates traced
and untraced blocks, and reports the per-layer metrics. Earlier lines of
standard output hold the environment, output digests and metrics named
after the workload; the last line is the result object.
"""
import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded BLAS before numpy is imported, here and in set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import calibration  # noqa: E402
import layertrace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
# Fresh-process set-ups per run, half before and half after the timed loop.
SETUP_PROBES = 8


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def setup_probe(workload):
    """Rescaled seconds a fresh process spends importing ringcf and setting up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def environment(np):
    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        env["blas"] = "unknown"
    env["git_commit"] = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            env["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    # identifies the code measured where no git metadata is present
    h = hashlib.sha256()
    for path in sorted((SRC / "ringcf").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


class Run:
    """Counts operations and failures; keeps outputs for checks and digests.

    With calibration samples (one before each operation and one at the
    end), latencies and parts are rescaled by calibration.scale_factors.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.timings = []       # (seconds, {part: [seconds]}) or None
        self.cal = []
        self.outputs = []       # (block, op, result or None)

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def do(self, block, op):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result, parts = self.wl.call(op)
        except Exception as exc:  # keep running; the failure is counted
            self.fail("block %d: %s" % (block, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()))
            self.timings.append(None)
            self.outputs.append((block, op, None))
            return
        self.timings.append((time.perf_counter() - t0, parts))
        self.outputs.append((block, op, result))

    def latencies(self, rescale):
        """Seconds per successful operation and {part: [seconds]}."""
        factors = (calibration.scale_factors(self.cal) if rescale
                   else [1.0] * len(self.timings))
        lat, parts = [], {}
        for timing, f in zip(self.timings, factors):
            if timing is not None:
                lat.append(timing[0] * f)
                for name, values in timing[1].items():
                    parts.setdefault(name, []).extend(v * f for v in values)
        return lat, parts

    def check_and_digest(self, blocks):
        """Check every output; digest those of the first `blocks` blocks."""
        records = []
        for block, op, result in self.outputs:
            if result is not None:
                problems = self.wl.check(op, result)
                if problems:
                    self.fail("block %d: %s" % (block, "; ".join(problems)))
            if block < blocks:
                records.append(None if result is None
                               else self.wl.record(op, result))
        return sha256(records)


def reference_pass(wl, expected):
    """Run the fixed reference operations; a digest mismatch is a failure."""
    ref = Run(wl)
    for op in wl.reference():
        ref.do(0, op)
    digest = ref.check_and_digest(1)
    ref.attempted += 1  # the digest comparison itself
    if digest != expected:
        ref.fail("reference digest %s != expected %s" % (digest, expected))
    return ref, digest


def timed_loop(wl, seed, seconds, tracer=None):
    """Closed loop over seeded blocks.

    Untraced, the calibration kernel runs before every operation. With a
    tracer, every other block is traced and nothing is calibrated. Returns
    the Run, loop seconds, blocks run and {traced: [seconds of each block]}.
    """
    run = Run(wl)
    walls = {True: [], False: []}
    start = time.perf_counter()
    block = 0
    while block < wl.min_blocks or time.perf_counter() - start < seconds:
        ops = wl.block(seed, block)
        traced = tracer is not None and block % 2 == 0
        if traced:
            tracer.install()
        b0 = time.perf_counter()
        for op in ops:
            if tracer is None:
                run.cal.append(calibration.measure())
            run.do(block, op)
        wall = time.perf_counter() - b0
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        block += 1
    loop_s = time.perf_counter() - start
    if tracer is None:
        run.cal.append(calibration.measure())
    return run, loop_s, block, walls


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "ringcf" / "__init__.py").is_file():
        print("perfbench: no ringcf sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; known: %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    tracer = layertrace.Tracer() if args.trace else None
    probes = [] if args.trace else [setup_probe(args.workload)
                                    for _ in range(SETUP_PROBES // 2)]
    setup_wall = time.perf_counter()
    if tracer:
        tracer.install()
    wl.setup()
    if tracer:
        tracer.uninstall()
    setup_wall = time.perf_counter() - setup_wall

    # The reference pass uses the same inputs in every run: it warms up, pins
    # the outputs, and bounds the memory figure independently of the seed.
    expected = json.loads(EXPECTED.read_text())[args.workload]
    ref, ref_digest = reference_pass(wl, expected)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    loop_start = len(tracer.spans) if tracer else 0
    run, loop_s, blocks, walls = timed_loop(wl, args.seed, args.seconds, tracer)
    if not args.trace:
        probes += [setup_probe(args.workload) for _ in range(SETUP_PROBES // 2)]
    seeded_digest = run.check_and_digest(wl.min_blocks)
    attempted = ref.attempted + run.attempted
    failed = ref.failed + run.failed
    latencies, parts = run.latencies(rescale=not args.trace)
    if not latencies:
        print("perfbench: every operation failed: %s" % run.problems,
              file=sys.stderr)
        return 1

    named, timing = {}, {}
    if tracer:
        metrics = tracer.metrics(wl.per_op, setup_wall, walls, loop_start)
        tracer.write(OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed)))
    else:
        ms = [1e3 * t for t in latencies]
        metrics = {
            "ops_per_s": {"value": workloads.window_rate(latencies, wl.window),
                          "unit": "1/s"},
            "op_ms_p50": {"value": workloads.percentile(ms, 50), "unit": "ms"},
            "op_ms_p90": {"value": workloads.percentile(ms, 90), "unit": "ms"},
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        for name, (value, unit) in wl.report(latencies, parts).items():
            named[name] = {"value": value, "unit": unit}
        named["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
        raw, _ = run.latencies(rescale=False)
        timing = {"wall_ops_per_s": len(raw) / loop_s,
                  "wall_op_ms_p50": workloads.percentile([1e3 * t for t in raw], 50),
                  "mean_ops_per_s": len(latencies) / sum(latencies),
                  "calibration_ms_median": 1e3 * statistics.median(run.cal),
                  "calibration_ms_reference": 1e3 * calibration.REFERENCE_S}

    n = len(latencies)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(np),
        "samples": {"ops": n, "blocks": blocks, "loop_s": loop_s,
                    "beyond_p90": n - int(round(0.9 * n)),
                    "setup_probes_s": probes},
        "digests": {"reference": ref_digest, "reference_expected": expected,
                    "seeded": seeded_digest, "seeded_blocks": wl.min_blocks},
        "metrics": named,
        "timing": timing,
        "problems": ref.problems + run.problems,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
