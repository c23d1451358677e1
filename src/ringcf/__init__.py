"""Compute-and-forward over block-fading channels with number-field lattices."""

from .fields import (AlgebraicInt, FieldMismatchError, NotTotallyRealError, NumberField,
                     catalog_field, catalog_names, field_from_json, field_to_json,
                     psi_inverse, psi_map, rank_over_K, real_roots)

from .lattices import (EnumerationError, MinimaResult, ZLattice,
                       closest_vector, hermite_constant, lll_reduce,
                       shortest_vector, successive_minima)
from .rates import (ChannelRealization, HumbertForm, IFReport, PathologicalChannelError,
                    RateReport, best_coefficients, build_humbert, dof_estimate, if_rate,
                    integer_baseline, integer_if_rate, mac_capacity, minkowski_rate_bounds,
                    ml_capacity, rate_am, rate_gm)
from .codec import (Codeword, LatticeEquation, NestedLatticePair,
                    PrimeIdealData, build_nested_pair, decode_equation,
                    destination_solve, encode, extract_ff_equation,
                    prime_ideal, sample_dither, scale_by_ring)
from .experiments import (CurvePoint, SweepConfig, export_csv, run_if_sweep,
                          run_sweep)

__all__ = [
    "AlgebraicInt", "FieldMismatchError", "NotTotallyRealError",
    "NumberField", "catalog_field", "catalog_names", "field_from_json",
    "field_to_json", "rank_over_K", "real_roots",
    "EnumerationError", "MinimaResult", "ZLattice", "closest_vector",
    "hermite_constant", "lll_reduce", "shortest_vector", "successive_minima",
    "ChannelRealization", "HumbertForm", "IFReport", "PathologicalChannelError",
    "RateReport", "best_coefficients", "build_humbert", "dof_estimate",
    "if_rate", "integer_baseline", "integer_if_rate", "mac_capacity",
    "minkowski_rate_bounds", "ml_capacity", "psi_inverse", "psi_map",
    "rate_am", "rate_gm",
    "Codeword", "LatticeEquation", "NestedLatticePair", "PrimeIdealData",
    "build_nested_pair", "decode_equation", "destination_solve", "encode",
    "extract_ff_equation", "prime_ideal", "sample_dither", "scale_by_ring",
    "CurvePoint", "SweepConfig", "export_csv", "run_if_sweep", "run_sweep",
]

__version__ = "0.1.0"
