"""Exact combinatorics of finite Coxeter groups.

Root systems live over the real cyclotomic field Q(2cos(pi/L)) with exact
arithmetic, group elements are indexed by their inversion bit-sets, and the
package checks two reachability descriptions of weak-order joins — via
left products along the Bruhat graph and via right products — against the
join itself, exhaustively over whole finite types.
"""

from .bruhat import (
    HVerdict,
    bruhat_reachable,
    check_conjecture_H,
    dihedral_TL_profile,
    path_vertices,
    path_witness,
    reachable_reflection_roots,
    to_dot,
)
from .coxeter import (
    CoxeterError,
    CoxeterGraph,
    CoxeterSystem,
    FinitenessExceeded,
    GroupElement,
    NotAReflection,
    Root,
    RootSubset,
    RootTable,
    WrongType,
    build_system,
    enumerate_group,
    generate_positive_roots,
    left_reflection_set,
)
from .scalar import (
    AlgebraicScalar,
    MinimalPolynomial,
    build_ring,
    embed_cos,
)
from .verify import (
    SweepReport,
    sweep,
    workers_from_env,
)
from .weak_order import (
    conjectural_join_D,
    enumerate_biclosed,
    is_biclosed,
    is_closed,
    is_coclosed,
    join_bruteforce,
    leq_weak,
    tau_reachable,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicScalar",
    "CoxeterError",
    "CoxeterGraph",
    "CoxeterSystem",
    "FinitenessExceeded",
    "GroupElement",
    "HVerdict",
    "MinimalPolynomial",
    "NotAReflection",
    "Root",
    "RootSubset",
    "RootTable",
    "SweepReport",
    "WrongType",
    "bruhat_reachable",
    "build_ring",
    "build_system",
    "check_conjecture_H",
    "conjectural_join_D",
    "dihedral_TL_profile",
    "embed_cos",
    "enumerate_biclosed",
    "enumerate_group",
    "generate_positive_roots",
    "is_biclosed",
    "is_closed",
    "is_coclosed",
    "join_bruteforce",
    "left_reflection_set",
    "leq_weak",
    "path_vertices",
    "path_witness",
    "reachable_reflection_roots",
    "sweep",
    "tau_reachable",
    "to_dot",
    "workers_from_env",
]
