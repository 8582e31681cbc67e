"""Exact small-prime combinatorics of tame types, Serre weights, Hodge
types, and rank-2 semilinear phi-module shapes, with exhaustive
verification harnesses.

The package splits into four layers:

- charexp: character exponent arithmetic (collapse, norm descent, the
  trivial-twist lattice);
- tametypes / hodge / intervals: the weight recipe, Hodge types and their
  operators, the inverse construction, and profile-shifting combinatorics;
- gf / series / phimod / extensions: table-driven finite fields, truncated
  Laurent series, partial-Frobenius matrix families (shapes, descent,
  operator lifts) and the rank-1 extension splitting oracle;
- io / sweep records / verify / cli: persistence and the invariant suite.
"""

__version__ = "0.1.0"

from .tametypes import (  # noqa: F401
    CUSPIDAL,
    PRINCIPAL,
    TameType,
    enumerate_profiles,
    enumerate_types,
    jordan_holder_weights,
    make_type,
    profile_data,
    serre_weight,
    type_from_gamma,
)
from .hodge import (  # noqa: F401
    apply_operator,
    find_type_profile,
    hodge_equiv,
    hodge_type_of,
    predicted_inclusions,
)
