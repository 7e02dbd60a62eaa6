"""Single-mode bosonic Gaussian channels, their teleportation simulation,
convergence diagnostics, adaptive-protocol error propagation and secret-key
capacity bounds, all at the level of first and second moments.

Conventions: quadrature ordering (q1, p1, ..., qn, pn), commutator
[x_l, x_m] = 2i Omega_lm, vacuum covariance matrix = identity.

The public names are bound lazily (PEP 562): ``bosonic_telesim.classify``
imports the layer that defines it on first use, so a process loads only the
layers it calls, and numpy only with the state layer.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "1.0.0"

# layer module: the public names it defines
_LAYERS = {
    "capacity": ("BoundReport", "c_epsilon", "corrected_key_bound", "overall_error",
                 "phi_add", "phi_amp", "phi_loss", "strong_converse_bound"),
    "channels": ("CanonicalClass", "CanonicalForm", "GaussianChannel", "apply_channel",
                 "canonical_channel", "canonical_matrices", "channel_from_dict",
                 "channel_to_dict", "classify", "compose", "form_from_fields",
                 "validate_channel"),
    "convergence": ("ConvergenceVerdict", "ScanRow", "ScanTable", "b1_witness_bound",
                    "convergence_scan", "decide_uniform", "diamond_upper_bound",
                    "nonuniform_witness"),
    "dilation": ("SingleModeDilation", "apply_via_dilation", "asymptotic_b2", "dilation_of"),
    "errors": ("BosonicTelesimError", "ClassificationAmbiguousError", "DomainError",
               "InvalidDimensionError", "NoUniformBoundError", "SingularCoefficientError",
               "UnresolvableError", "UnsupportedFormError", "ValidationError"),
    "fidelity": ("BoundsPair", "b1_gamma", "fid_b2_asymptotic", "fid_env_A2", "fid_env_C",
                 "fid_output_identity", "fuchs_vdg", "gaussian_fidelity"),
    "peeling": ("TOPOLOGIES", "PeelingBound", "TwoRoundReport", "epsilon_tp_bound",
                "peel_bound", "two_round_demo"),
    "symplectic": ("GaussianState", "SymplecticMatrix", "WilliamsonDecomposition",
                   "apply_affine", "is_symplectic", "partial_trace", "symplectic_eigenvalues",
                   "symplectic_form", "tensor_states", "thermal_state", "tmsv_state",
                   "williamson"),
    "teleportation": ("BKParameters", "EnvironmentalPair", "SimulatedChannel",
                      "bk_added_noise", "bk_channel", "environmental_pair", "quasi_choi",
                      "simulate_channel"),
}
_LAYER_OF = {name: f"{__name__}.{layer}" for layer, names in _LAYERS.items() for name in names}
__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    """A public name, read from its layer on every access (so a rebinding in
    the layer is seen here too), or a layer module itself."""
    layer = _LAYER_OF.get(name)
    if layer is not None:
        module = _sys.modules.get(layer)
        return getattr(module if module is not None else _import_module(layer), name)
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYER_OF, *_LAYERS})
