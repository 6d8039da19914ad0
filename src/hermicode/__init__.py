"""Cyclic evaluation codes on Hermitian curves over F_{q^2}.

Builds the codes of length q^2 - 1 obtained by evaluating functions with
poles confined to a chord of the curve at one orbit of the two-point
stabilizer, computes their exact weight enumerators, and verifies the
known facts about their parameters and weight distributions.
"""

from .gf import Field, field_for_q, make_field
from .curve import HermitianCurve, OrbitSpec, canonical_orbit_spec
from .agcode import LinearCode, build_code, check_cyclic, encode
from .weights import (
    WeightEnumerator,
    roots_of_lacunary,
    upper_bound_witness,
    weight_enumerator,
)

__all__ = [
    "Field",
    "HermitianCurve",
    "LinearCode",
    "OrbitSpec",
    "WeightEnumerator",
    "build_code",
    "canonical_orbit_spec",
    "check_cyclic",
    "encode",
    "field_for_q",
    "make_field",
    "roots_of_lacunary",
    "upper_bound_witness",
    "weight_enumerator",
]
