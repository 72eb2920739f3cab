"""Group entropies, (h, f)-divergences, and the geometry they induce.

The package is organized in layers: probability vectors and their
constructions, binary composition laws, (h, f)-entropies, the composition
engine that builds new entropies out of old ones, divergences, the
finite-difference information geometry, maximum entropy under linear
constraints, and a CLI (`entrogeo`) that exposes evaluation plus built-in
verification of the structural identities at desk scale.
"""

from types import ModuleType as _ModuleType

from .composition import (
    Composer,
    ConcavityReport,
    concavity_probe,
    group_compose,
    linear_composer,
    polynomial_composer,
    sm_pair_entropy,
    sm_pair_value,
    sm_tsallis_entropy,
    sm_tsallis_value,
    zeta_compose,
)
from .divergence import (
    DivergenceFunctional,
    hf_div_functional,
    kl_functional,
    kl_pair,
    power_pair,
    sm_div_functional,
    sm_divergence_pair,
    tsallis_relative_pair,
    zeta_compose_div,
)
from .errors import EntrogeoError
from .formal_group import (
    BinaryLaw,
    Conjugator,
    Interval,
    LawReport,
    additive_law,
    check_group_axioms,
    check_phi4_symmetry,
    conjugate,
    expm1_conjugator,
    identity_conjugator,
    iterate_pow2,
    q_sum,
    scale_conjugator,
)
from .geometry import (
    ConnCoeffs,
    MetricTensor,
    StatModel,
    alpha_connection,
    closed_geometry,
    combine_geometry,
    div_connections,
    div_metric,
    duality_residual,
    fisher_metric,
    hf_alpha_of,
    simplex_model,
)
from .hf_entropy import (
    EntropyFunctional,
    HFPair,
    SKReport,
    builtin_functional,
    composability_residual,
    entropy_functional,
    eval_entropy,
    hf_sum,
    kaniadakis,
    phi_from_chi,
    product_chi,
    renyi,
    shannon,
    sharma_mittal,
    sk_suite,
    tsallis,
)
from .maxent import ConstraintSet, MaxentResult, maximize
from .probability import (
    ProbDist,
    load_distribution,
    product,
    uniform,
    validate,
)

__version__ = "0.1.0"

#: Every name bound above except the submodules: the public surface, stated once.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
