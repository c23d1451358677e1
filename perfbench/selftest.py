"""Self-tests of the benchmark, run from the repository root with

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once untraced and once traced at a small size (about two
minutes in all). The file name keeps it out of the repository's own test
collection.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=NAMES)
def small_runs(request):
    name = request.param
    return name, _bench(name, 0), _bench(name, 1)


def _units(metrics):
    return {k: v["unit"] for k, v in metrics.items()}


def test_small_run_prints_every_metric_with_unit(small_runs):
    name, (detail, result), (_, traced) = small_runs
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["end_to_end"]}
    assert _units(traced["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["per_layer"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    wl = workloads.WORKLOADS[name]()
    named = set(detail["metrics"])
    parts = {"encode": [1.0], "decode": [1.0]}
    assert named == set(wl.report([1.0], parts)) | {"error_rate"}
    assert all(v["unit"] for v in detail["metrics"].values())
    assert detail["digests"]["reference"] == detail["digests"]["reference_expected"]


def test_traced_run_covers_wall_time(small_runs):
    name, _, (_, traced) = small_runs
    assert traced["metrics"]["trace.coverage"]["value"] >= 0.9, name
    assert traced["metrics"]["trace.overhead"]["value"] > 0


def test_seeded_digest_repeats():
    a, _ = _bench("codec", 0)
    b, _ = _bench("codec", 0)
    assert a["digests"]["seeded"] == b["digests"]["seeded"]


@pytest.fixture(scope="module")
def codec_wl():
    wl = workloads.Codec()
    wl.setup()
    return wl


def test_gate_trips_on_perturbed_equation(codec_wl):
    op = codec_wl.block(0, 0)[0]
    (eq, u), _ = codec_wl.call(op)
    assert codec_wl.check(op, (eq, u)) == []
    bad = [(u[0] + 1) % workloads.CODEC_P]
    assert codec_wl.check(op, (eq, bad))


def test_gate_trips_on_perturbed_digest(codec_wl):
    expected = json.loads(bench.EXPECTED.read_text())["codec"]
    ref, digest = bench.reference_pass(codec_wl, expected)
    assert ref.failed == 0 and digest == expected
    perturbed = ("0" if expected[0] != "0" else "1") + expected[1:]
    ref, _ = bench.reference_pass(codec_wl, perturbed)
    assert ref.failed == 1


def test_gate_trips_on_perturbed_search_output():
    wl = workloads.Search()
    wl.setup()
    op = wl.block(0, 0)[5]
    rep, _ = wl.call(op)
    assert wl.check(op, rep) == []
    rep.f_values[0] *= 1.001
    assert wl.check(op, rep)
    rep.f_values[0] /= 1.001
    rep.coeffs[1] = rep.coeffs[0]
    assert wl.check(op, rep)


def test_gate_trips_on_perturbed_sweep_csv():
    wl = workloads.CFSweep()
    op = wl.reference()[0]
    text, _ = wl.call(op)
    assert wl.check(op, text) == []
    lines = text.splitlines()
    row = lines[1].split(",")
    row[3] = repr(float(row[3]) + 100.0)
    assert wl.check(op, "\n".join([lines[0], ",".join(row)] + lines[2:]))


def test_calibration_rescales_each_operation_by_its_neighbours():
    ref = calibration.REFERENCE_S
    # a slow phase (kernel at twice the reference time) over operations 2-4
    samples = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, ref, ref]
    factors = calibration.scale_factors(samples)
    assert len(factors) == len(samples) - 1
    assert factors[0] == pytest.approx(1.0)
    assert factors[3] == pytest.approx(0.5)
    assert calibration.measure() > 0


def test_tracer_fails_loudly_on_missing_name(monkeypatch):
    monkeypatch.setattr(layertrace, "TARGETS",
                        layertrace.TARGETS + (("rates", "no_such_function"),))
    with pytest.raises(layertrace.MissingTargetError):
        layertrace.Tracer()


def test_tracer_wraps_caller_bindings_and_restores():
    import ringcf.codec
    import ringcf.lattices
    import ringcf.rates
    original = ringcf.rates.rank_over_K
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert ringcf.rates.rank_over_K is not original
        assert ringcf.codec.closest_vector is ringcf.lattices.closest_vector
        wl = workloads.Search()
        wl.call(wl.block(0, 0)[0])
    finally:
        tracer.uninstall()
    assert ringcf.rates.rank_over_K is original
    totals, top = tracer.layer_totals()
    assert totals["rates.best_coefficients"][0] == 1
    assert totals["lattices.lll_reduce"][0] >= 1
    assert totals["fields.rank_over_K"][0] >= 1
    assert top > 0
    assert sum(s for _, s in totals.values()) == pytest.approx(top)
