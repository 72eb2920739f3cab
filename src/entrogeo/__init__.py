"""Group entropies, (h, f)-divergences, and the geometry they induce.

The package is organized in layers: probability vectors and their
constructions, binary composition laws, (h, f)-entropies, the composition
engine that builds new entropies out of old ones, divergences, the
finite-difference information geometry, maximum entropy under linear
constraints, and a CLI (`entrogeo`) that exposes evaluation plus built-in
verification of the structural identities at desk scale.

`import entrogeo` loads none of the layers: each public name, and each layer
module (`entrogeo.geometry`, ...), loads its module on first use.  The CLI
calls the layers beyond its own imports through this same surface.
"""

import importlib as _importlib

__version__ = "0.1.0"

#: The public surface, stated once: each layer module and the names it exports.
_SURFACE = {
    "composition": (
        "Composer", "ConcavityReport", "concavity_probe", "group_compose",
        "linear_composer", "polynomial_composer", "sm_pair_entropy", "sm_tsallis_entropy",
        "zeta_compose",
    ),
    "divergence": (
        "DivergenceFunctional", "hf_div_functional", "kl_functional", "kl_pair",
        "power_pair", "sm_div_functional", "sm_divergence_pair", "tsallis_relative_pair",
        "zeta_compose_div",
    ),
    "errors": ("EntrogeoError",),
    "formal_group": (
        "BinaryLaw", "Conjugator", "Interval", "LawReport", "check_group_axioms",
        "check_phi4_symmetry", "conjugate", "expm1_conjugator", "identity_conjugator",
        "iterate_pow2", "q_sum", "scale_conjugator",
    ),
    "geometry": (
        "ConnCoeffs", "MetricTensor", "StatModel", "alpha_connection", "closed_geometry",
        "combine_geometry", "div_connections", "div_metric", "duality_residual",
        "fisher_metric", "hf_alpha_of", "simplex_model",
    ),
    "hf_entropy": (
        "EntropyFunctional", "HFPair", "SKReport", "builtin_functional",
        "composability_residual", "entropy_functional", "hf_sum", "kaniadakis",
        "phi_from_chi", "product_chi", "renyi", "shannon", "sharma_mittal", "sk_suite",
        "tsallis",
    ),
    "maxent": ("ConstraintSet", "MaxentResult", "maximize"),
    "probability": ("ProbDist", "load_distribution", "product", "uniform", "validate"),
}

_HOME = {name: module for module, names in _SURFACE.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the module that defines `name` (or the layer module `name`) and cache it."""
    module = _HOME.get(name)
    if module is not None:
        value = getattr(_importlib.import_module(f".{module}", __name__), name)
    elif name in _SURFACE:
        value = _importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SURFACE})
