"""Public surface: exported names and the benchmark's traced layers."""
import dataclasses
import importlib.util
from pathlib import Path

import ringcf

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_all_names_resolve():
    missing = [name for name in ringcf.__all__ if not hasattr(ringcf, name)]
    assert not missing


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
    # the constructor, repr and == see
    for cls, public in ((ringcf.ChannelRealization, ["h", "snr"]),
                        (ringcf.ZLattice, ["basis"]),
                        (ringcf.NestedLatticePair,
                         ["field", "ideal", "G_coarse", "G_fine", "T", "gen_fine",
                          "gen_coarse"])):
        assert [f.name for f in dataclasses.fields(cls)] == public
