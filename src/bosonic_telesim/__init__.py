"""Single-mode bosonic Gaussian channels, their teleportation simulation,
convergence diagnostics, adaptive-protocol error propagation and secret-key
capacity bounds, all at the level of first and second moments.

Conventions: quadrature ordering (q1, p1, ..., qn, pn), commutator
[x_l, x_m] = 2i Omega_lm, vacuum covariance matrix = identity.
"""

from .capacity import (BoundReport, c_epsilon, corrected_key_bound,
                       overall_error, phi_add, phi_amp, phi_loss,
                       strong_converse_bound)
from .channels import (CanonicalClass, CanonicalForm, GaussianChannel,
                       apply_channel, canonical_channel, canonical_matrices,
                       channel_from_dict, channel_to_dict,
                       classify, compose, form_from_fields, validate_channel)
from .convergence import (ConvergenceVerdict, ScanRow, b1_witness_bound,
                          convergence_scan, decide_uniform, diamond_upper_bound,
                          nonuniform_witness)
from .dilation import (SingleModeDilation, apply_via_dilation, asymptotic_b2,
                       dilation_of)
from .errors import (BosonicTelesimError, ClassificationAmbiguousError,
                     DomainError, InvalidDimensionError, NoUniformBoundError,
                     SingularCoefficientError, UnsupportedFormError,
                     ValidationError)
from .fidelity import (BoundsPair, b1_gamma, fid_b2_asymptotic, fid_env_A2,
                       fid_env_C, fid_output_identity, fuchs_vdg,
                       gaussian_fidelity)
from .peeling import (TOPOLOGIES, PeelingBound, TwoRoundReport,
                      epsilon_tp_bound, peel_bound, two_round_demo)
from .symplectic import (GaussianState, SymplecticMatrix,
                         WilliamsonDecomposition, apply_affine, is_symplectic,
                         partial_trace, symplectic_eigenvalues, symplectic_form,
                         tensor_states, thermal_state, tmsv_state, williamson)
from .teleportation import (BKParameters, EnvironmentalPair, SimulatedChannel,
                            bk_added_noise, bk_channel, environmental_pair,
                            quasi_choi, simulate_channel)

__version__ = "1.0.0"
