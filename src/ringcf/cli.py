"""Command line interface.

Exit codes: 0 success, 1 demo verification failure, 2 usage error,
3 numeric or enumeration failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import codec, experiments, fields, rates


MAX_GRID_POINTS = 10000  # checked while a range expands, so 1e-9 steps stop early


def _parse_grid(text):
    """SNR grid 'start:step:stop' (finite, step > 0, stop >= start) or a comma
    list of dB, at most MAX_GRID_POINTS values, each accepted by
    rates._snr_power; anything else is a usage error."""
    try:
        values = [float(x) for x in text.split(":" if ":" in text else ",")]
        if ":" in text:
            start, step, stop = values
    except ValueError:
        raise argparse.ArgumentTypeError("expected start:step:stop or a comma "
                                         "list of dB, got %r" % text) from None
    try:
        if ":" in text:
            if not (all(map(math.isfinite, values)) and step > 0 and stop >= start):
                raise ValueError("start:step:stop needs finite values, step > 0 "
                                 "and stop >= start")
            values, v = [], start
            while v <= stop + 1e-9 and len(values) <= MAX_GRID_POINTS:
                values.append(round(v, 9))
                v += step
        if len(values) > MAX_GRID_POINTS:
            raise ValueError("more than %d points" % MAX_GRID_POINTS)
        for v in values:
            rates._snr_power(v)
    except ValueError as e:
        raise argparse.ArgumentTypeError("grid %r: %s" % (text, e)) from None
    return values


def _int_at_least(low, text):
    """An integer of at least `low`: 1 for a count (users, trials, k,
    workers), 0 for a seed, as numpy's generators need; anything else is a
    usage error."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError("expected a %s integer, got %r"
                                         % ("positive" if low else "non-negative", text))
    return value


_positive_int = functools.partial(_int_at_least, 1)


def _snr_db(text, window=0.0):
    """An SNR in dB that rates._snr_power accepts, as must the SNR `window` dB
    below it; anything else is a usage error."""
    try:
        value = float(text)
        for v in (value, value - window):
            rates._snr_power(v)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return value


def _names(check, text):
    """A comma list (empty: none) that `check`, experiments.sweep_fields or
    sweep_metrics, returns as a sweep reads it; a ValueError is a usage error."""
    try:
        return check(text.split(",") if text else ())
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _out_path(path):
    """--out: a path that opens for appending (an existing file keeps its
    content), else a usage error; a file that this check created is removed."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as e:
        raise argparse.ArgumentTypeError("cannot write %s: %s" % (path, e)) from None
    if not existed:
        os.remove(path)
    return path


def _message_pair(text):
    """Two comma-separated message symbols; anything else is a usage error."""
    try:
        messages = [int(x) for x in text.split(",")]
    except ValueError:
        messages = []
    if len(messages) != 2:
        raise argparse.ArgumentTypeError("expected two integers, got %r" % text)
    return messages


def _from_file(args, what, path, parse):
    """parse(JSON document of the file at path); a file that cannot be read,
    or whose document parse refuses (ValueError), is a usage error naming it."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError) as e:
        args.usage_error("%s file %s: %s" % (what, path, e))


def _load_field(args):
    """Catalog field named by --field, or the field of a JSON file at that
    path; a file that fields.field_from_json refuses is a usage error."""
    if args.field in fields.catalog_names():
        return fields.catalog_field(args.field)
    return _from_file(args, "field", args.field, fields.field_from_json)


def _channel(args, f, snr_db):
    """Channel of --channel: a JSON file {h, snr_db}, snr_db replacing its own
    when given, or a --seed draw of f.degree x --users gains at snr_db (or 20).
    A file that cannot be read, that from_json refuses, or with a 3-D h, is a
    usage error naming it."""
    path = args.channel
    if not path or path == "random":
        h = np.random.default_rng(args.seed).normal(size=(f.degree, args.users))
        return rates.ChannelRealization(h, rates._snr_power(20.0 if snr_db is None else snr_db))

    def parse(doc):
        if snr_db is not None and isinstance(doc, dict):
            doc = dict(doc, snr_db=snr_db)
        return rates.ChannelRealization.from_json(doc)
    ch = _from_file(args, "channel", path, parse)
    if ch.h.ndim != 2:
        args.usage_error("channel file %s: 'h' has shape %s; the command line needs "
                         "one receive antenna per block" % (path, ch.h.shape))
    return ch


def _emit(args, payload):
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_fields(args):
    _emit(args, [{"name": f.name, "degree": f.degree, "discriminant": f.discriminant,
                  "min_poly": list(f.min_poly)}
                 for f in map(fields.catalog_field, fields.catalog_names())])
    return 0


def cmd_rate(args):
    f = _load_field(args)
    ch = _channel(args, f, args.snr_db)
    if args.k is not None and args.k > ch.users:
        args.usage_error("--k %d exceeds the %d users of the channel" % (args.k, ch.users))
    rep = rates.best_coefficients(f, ch, k=args.k)
    payload = rep.to_json()
    payload["mac_capacity"] = rates.mac_capacity(ch)
    payload["seed"] = args.seed
    _emit(args, payload)
    return 0


def cmd_sweep(args):
    cfg = experiments.SweepConfig(
        fields=args.fields, users=args.users,
        snr_db_grid=args.snr_grid_db, trials=args.trials,
        seed=args.seed, metrics=args.metrics)
    points = args.runner(cfg, workers=args.workers)
    _write(args, experiments.csv_string(points) if args.format == "csv"
           else json.dumps([vars(p) for p in points], indent=2) + "\n")
    return 0


def cmd_dof(args):
    f = _load_field(args)
    # the fit sweeps its own SNR grid, so the file's snr_db is not read
    h = _channel(args, f, 0.0).h
    users = h.shape[1]  # a channel file sets the user count
    top = args.snr_top_db
    grid = [top - 40.0 + 5.0 * i for i in range(9)]
    slope, rs = rates.dof_estimate(f, h, grid, z_baseline=args.z_baseline)
    _emit(args, {"field": f.name, "users": users, "seed": args.seed,
                 "z_baseline": args.z_baseline, "snr_grid_db": grid,
                 "rates": rs, "slope": slope,
                 "predicted": (f.degree / users if not args.z_baseline else 0.0)})
    return 0


def _demo_pair():
    f = fields.catalog_field("quad-5")
    ideal = codec.prime_ideal(f, 5, 3)
    pair = codec.build_nested_pair(f, ideal, G_coarse=np.zeros((1, 0), dtype=int),
                                   G_fine=[[1]], T=1)
    return f, ideal, pair


def cmd_codec_demo(args):
    """Two-user, two-relay demonstration over the golden-ratio field mod 5."""
    f, ideal, pair = _demo_pair()
    messages = args.messages
    cw = [codec.encode(pair, [m]) for m in messages]
    relay_coeffs = [
        [f.element([-15, 34]), f.element([12, 2])],
        [f.element([3, 9]), f.element([-15, 34])],
    ]
    relays = [0, 1] if args.relay == "both" else [int(args.relay) - 1]
    trace = {
        "field": f.name, "p": ideal.p,
        "messages": messages,
        "codewords": [[list(a.coords) for a in c.ring_coords] for c in cw],
        "relays": [],
    }
    rho_matrix = [[ideal.rho(a) for a in row] for row in relay_coeffs]
    equations = []
    for r in relays:
        Y = sum(codec.scale_by_ring(pair, relay_coeffs[r][l], cw[l])[0]
                for l in range(2))
        eq = codec.decode_equation(pair, Y, [1.0, 1.0], relay_coeffs[r])
        u = codec.extract_ff_equation(pair, eq)
        equations.append(u)
        trace["relays"].append({
            "index": r + 1,
            "coeffs": [list(a.coords) for a in relay_coeffs[r]],
            "coeff_residues": eq.coeff_residues,
            "equation": [list(a.coords) for a in eq.ring_coords],
            "ff_equation": u,
        })
    ok = True
    if args.relay == "both":
        decoded = codec.destination_solve(rho_matrix, equations, ideal.p)
        recovered = [row[0] for row in decoded]
        trace["coeff_matrix"] = rho_matrix
        trace["decoded_messages"] = recovered
        ok = recovered == [m % ideal.p for m in messages]
    trace["verified"] = ok
    _emit(args, trace)
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ringcf",
        description="Computation rates and nested lattice codes for "
                    "compute-and-forward over block-fading channels.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",)):
        # csv exists only for sweeps; argparse rejects it elsewhere (exit 2)
        p.add_argument("--seed", type=functools.partial(_int_at_least, 0), default=0)
        p.add_argument("--out", type=_out_path, default=None, help="write output to a file")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("fields", help="list the built-in field catalog")
    common(p)
    p.set_defaults(fn=cmd_fields)

    p = sub.add_parser("rate", help="best coefficient vectors for one channel")
    p.add_argument("--field", required=True)
    p.add_argument("--users", type=_positive_int, default=2)
    p.add_argument("--snr-db", type=_snr_db, default=None,
                   help="SNR in dB; overrides a channel file's snr_db "
                        "(default: the file's value, or 20 for a random channel)")
    p.add_argument("--channel", help='JSON file with {h, snr_db}, or "random"')
    p.add_argument("--k", type=_positive_int, default=None,
                   help="number of coefficient vectors, at most the users "
                        "(default: users)")
    common(p)
    p.set_defaults(fn=cmd_rate, usage_error=p.error)

    for name, runner, known in (("sweep", experiments.run_sweep, experiments.RATE_METRICS),
                                ("if-sweep", experiments.run_if_sweep, experiments.IF_METRICS)):
        p = sub.add_parser(name, help="Monte Carlo %s over an SNR grid"
                           % ("rate sweep" if name == "sweep" else "integer-forcing sweep"))
        p.add_argument("--fields", type=functools.partial(_names, experiments.sweep_fields),
                       required=True, help="comma-separated catalog names of one degree")
        p.add_argument("--users", type=_positive_int, default=2)
        p.add_argument("--trials", type=_positive_int, default=2000)
        p.add_argument("--snr-grid-db", type=_parse_grid, default="0:5:50")
        metrics = functools.partial(experiments.sweep_metrics, known)
        p.add_argument("--metrics", type=functools.partial(_names, metrics), default=known,
                       help="comma-separated subset of: " + ", ".join(known))
        p.add_argument("--workers", type=_positive_int, default=1)
        common(p, formats=("csv", "json"))
        p.set_defaults(fn=cmd_sweep, runner=runner)

    p = sub.add_parser("dof", help="degrees-of-freedom slope on a fixed channel")
    p.add_argument("--field", required=True)
    p.add_argument("--users", type=_positive_int, default=2,
                   help="users of a random channel (a channel file sets its own)")
    p.add_argument("--channel", help='JSON file with {h}, or "random"')
    p.add_argument("--snr-top-db", type=lambda text: _snr_db(text, window=40.0),
                   default=80.0, help="top of the 40 dB fitting window")
    p.add_argument("--z-baseline", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_dof, usage_error=p.error)

    p = sub.add_parser("codec-demo", help="two-relay nested-lattice demonstration")
    p.add_argument("--relay", choices=["1", "2", "both"], default="both")
    p.add_argument("--messages", type=_message_pair, default="2,3")
    common(p)
    p.set_defaults(fn=cmd_codec_demo)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    # with subclasses: LinAlgError, PathologicalChannelError, CodecError, EnumerationError
    except (ValueError, RuntimeError, AssertionError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
