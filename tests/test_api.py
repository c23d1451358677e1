"""Public surface: exported names and the benchmark's traced layers."""
import dataclasses
import importlib.util
import re
from pathlib import Path

import numpy as np

import ringcf

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    missing = [name for name in ringcf.__all__ if not hasattr(ringcf, name)]
    assert not missing


def test_readme_example_runs():
    # the README's one Python example, run as written, and the claim of its
    # comment, so the documented API cannot drift from the code
    (example,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    names = {}
    exec(compile(example, str(README), "exec"), names)
    rep = names["rep"]
    assert rep.rate <= rep.ml_capacity == ringcf.ml_capacity(names["mimo"])


def test_traced_layers_are_callable():
    # the benchmark tracer wraps these by name and fails on a missing one
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for mod_name, fn_name in layertrace.TARGETS:
        mod = importlib.import_module("ringcf." + mod_name)
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)


def test_cached_data_is_no_dataclass_field():
    # kept derived data lives in cached properties, outside the fields that
    # the constructor, repr and a generated == see (the array holders' ==
    # and hash are by identity, below)
    for cls, public in ((ringcf.ChannelRealization, ["h", "snr"]),
                        (ringcf.ZLattice, ["basis"]),
                        (ringcf.PrimeIdealData,
                         ["field", "p", "root", "basis_coords", "residues", "coset_reps"]),
                        (ringcf.NestedLatticePair,
                         ["field", "ideal", "G_coarse", "G_fine", "T", "gen_fine",
                          "gen_coarse"])):
        assert [f.name for f in dataclasses.fields(cls)] == public


def test_array_holding_classes_compare_by_identity():
    # a generated == would compare array fields and raise on their truth
    # value, and a generated hash would hash an array; these classes hold an
    # array or a channel, so == is identity and never raises, as is `in`
    f = ringcf.catalog_field("quad-5")
    channel = ringcf.ChannelRealization(np.eye(2), 10.0)
    pair = ringcf.build_nested_pair(f, ringcf.prime_ideal(f, 5, 3), np.zeros((1, 0), int),
                                    [[1]], T=1)
    codeword = ringcf.encode(pair, [2])
    made = {
        ringcf.ChannelRealization: lambda: ringcf.ChannelRealization(np.eye(2), 10.0),
        ringcf.ZLattice: lambda: ringcf.ZLattice(np.eye(2)),
        ringcf.HumbertForm: lambda: ringcf.build_humbert(f, channel),
        ringcf.RateReport: lambda: ringcf.best_coefficients(f, channel),
        ringcf.NestedLatticePair: lambda: ringcf.build_nested_pair(
            f, pair.ideal, pair.G_coarse, pair.G_fine, T=1),
        ringcf.Codeword: lambda: ringcf.encode(pair, [2]),
        ringcf.LatticeEquation: lambda: ringcf.decode_equation(pair, codeword.X, [1.0, 1.0],
                                                               [f.one()]),
    }
    for cls, make in made.items():
        a, b = make(), make()
        assert type(a) is cls
        assert (a == a, a == b, a != b, a in [b], a in [b, a]) == (True, False, True,
                                                                     False, True), cls
        assert hash(a) == hash(a) and len({a, b}) == 2
