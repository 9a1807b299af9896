"""lplab: a numerical laboratory for isometric group actions on finite lp spaces."""

__version__ = "0.1.0"

from .spaces import LpSpace, duality_map, mazur_map
from .geometry import (
    ModulusTable,
    convexity_modulus,
    inverse_modulus,
    modulus_table,
    quotient_norm,
    schoenberg_gram,
    schoenberg_scan,
    schoenberg_violation_search,
)
from .lamperti import (
    InvariantNorm,
    LampertiIsometry,
    identity_isometry,
    invariant_norm,
    mazur_conjugate,
    mazur_conjugation_residual,
    random_lamperti,
)
from .groups import (
    PresentedGroup,
    ProductGroup,
    TableGroup,
    cyclic_group,
    dihedral_group,
    group_from_permutations,
    product_group,
    symmetric_group_3,
)
from .representation import (
    Representation,
    canonical_complement,
    dual_rep,
    fixed_subspace,
    functoriality_check,
    indicator_displacement,
    indicator_vector,
    product_decomposition,
    zero_mean_rep,
)
from .gap import GapEstimate, kazhdan_gap
from .cocycle import (
    Cocycle,
    OrbitCapExceeded,
    coboundary_of,
    coboundary_solve,
    displacement_bound_check,
    mautner_check,
    orbit_ball,
)
from .convex import (
    AffineSubspace,
    Ball,
    ConvexHull,
    circumcenter,
    fisher_margulis_iterate,
    fixed_point_circumcenter,
    klee_search,
    lipschitz_probe,
    nearest_point,
    optimality_residual,
    set_distance,
)
from .induction import (
    CosetStructure,
    InducedSpace,
    fixed_point_transfer,
    induce_cocycle,
    induce_rep,
    split_action,
    superrigidity_pipeline,
)
from .errors import Refusal

__all__ = [name for name in dir() if not name.startswith("_")]
