"""Single-mode symplectic dilations of the canonical forms.

Every non-additive form admits a two-mode symplectic M mixing the input with
a single thermal environment mode of CM ``(2 nbar + 1) I``:

    V  ->  Tr_e { M [V (+) (2 nbar + 1) I] M^T }.

Writing M in 2x2 blocks (m1, m2; m3, m4), consistency with the direct channel
map requires ``m1^T = T_c`` and ``m2 m2^T (2 nbar + 1) = N_c``.  The additive
class B2 has no single-mode dilation; it is reached as the tau -> 1 limit of
a beam splitter whose environment variance diverges as ``xi / (1 - tau)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .channels import CanonicalClass, CanonicalForm, canonical_matrices
from .errors import DomainError, InvalidDimensionError, UnsupportedFormError
from .symplectic import (GaussianState, SymplecticMatrix, _self_check_tol, tensor_states,
                         thermal_state)

__all__ = ["SingleModeDilation", "dilation_of", "apply_via_dilation", "asymptotic_b2"]


@dataclasses.dataclass(frozen=True)
class SingleModeDilation:
    """4x4 symplectic M plus the single-mode environmental Gaussian state."""

    m: SymplecticMatrix
    env: GaussianState

    @property
    def m1(self):
        return self.m.s[:2, :2]

    @property
    def m2(self):
        return self.m.s[:2, 2:]


def _beam_splitter(tau: float) -> np.ndarray:
    c, s = np.sqrt(tau), np.sqrt(1.0 - tau)
    return np.array([[c, 0.0, s, 0.0], [0.0, c, 0.0, s],
                     [-s, -0.0, c, 0.0], [-0.0, -s, 0.0, c]])


# Each matrix is written out entry by entry, bit-identical to its 2x2 block
# form, signed zeros included: e.g. the block -s I has -0.0 off its diagonal.
def _dilation_matrix(form: CanonicalForm) -> np.ndarray:
    tag, tau = form.tag, form.tau
    if tag is CanonicalClass.C_Att:
        return _beam_splitter(tau)  # [[c I, s I], [-s I, c I]]
    if tag is CanonicalClass.C_Amp:
        # two-mode squeezer [[c I, s Z], [s Z, c I]]
        c, s = np.sqrt(tau), np.sqrt(tau - 1.0)
        return np.array([[c, 0.0, s, 0.0], [0.0, c, 0.0, -s],
                         [s, 0.0, c, 0.0], [0.0, -s, 0.0, c]])
    if tag is CanonicalClass.D:
        # [[c Z, s I], [-s I, -c Z]]
        c, s = np.sqrt(-tau), np.sqrt(1.0 - tau)
        return np.array([[c, 0.0, s, 0.0], [0.0, -c, 0.0, s],
                         [-s, -0.0, -c, -0.0], [-0.0, -s, -0.0, c]])
    if tag is CanonicalClass.A1:
        # swap [[0, I], [I, 0]]
        return np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    if tag is CanonicalClass.A2:
        # [[(I + Z)/2, I], [I, (Z - I)/2]]
        return np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    if tag is CanonicalClass.B1:
        # [[I, (I - Z)/2], [(I + Z)/2, -I]]: the block layout with
        # m2 = (I - Z)/2 reproduces N_c = diag(0, 1); the (I + Z)/2
        # placement would put the unit of noise on q instead
        return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                         [1.0, 0.0, -1.0, -0.0], [0.0, 0.0, -0.0, -1.0]])
    raise UnsupportedFormError(
        f"class {tag.value} has no single-mode dilation; use asymptotic_b2")


def dilation_of(form: CanonicalForm) -> SingleModeDilation:
    """Exact single-mode dilation of a non-additive canonical form.

    The environment is thermal with variance ``2 nbar + 1``.  Raises
    :class:`UnsupportedFormError` for B2 and the identity.  The self-checks
    hold M to symplecticity and its blocks to ``(T_c, N_c)`` within 1e-12 at
    unit scale and within float64 roundoff of ``max|M|^2``, ``max|T_c|`` and
    ``max|N_c|`` beyond.
    """
    m = _dilation_matrix(form)
    sym = SymplecticMatrix(m, tol=_self_check_tol(np.max(np.abs(m)) ** 2))
    dil = SingleModeDilation(sym, thermal_state(2.0 * form.noise_param + 1.0))
    t_c, n_c = canonical_matrices(form)
    omega_env = dil.env.cm[0, 0]
    if (np.max(np.abs(dil.m1.T - t_c)) > _self_check_tol(np.max(np.abs(t_c)))
            or np.max(np.abs(dil.m2 @ dil.m2.T * omega_env - n_c))
            > _self_check_tol(np.max(np.abs(n_c)))):
        raise UnsupportedFormError(
            f"dilation blocks inconsistent with canonical matrices for {form.tag.value}")
    return dil


def apply_via_dilation(dil: SingleModeDilation, state: GaussianState) -> GaussianState:
    """Route a single-mode state through the dilation: tensor with the
    environment, apply M, trace out the environment."""
    if state.modes != 1:
        raise InvalidDimensionError("apply_via_dilation expects a single-mode state")
    joint = tensor_states(state, dil.env)
    m = dil.m.s
    mean = m @ joint.mean
    cm = m @ joint.cm @ m.T
    return GaussianState(mean[:2], cm[:2, :2])


def asymptotic_b2(xi_prime: float, tau: float) -> SingleModeDilation:
    """Finite-tau member of the beam-splitter family whose tau -> 1 limit is
    the additive-noise form with added noise ``xi_prime``.

    The environment is thermal with variance ``xi_prime / (1 - tau)``, i.e.
    mean photon number ``nbar = [xi_prime / (1 - tau) - 1] / 2``, which
    requires ``xi_prime / (1 - tau) >= 1``.  The induced channel has
    ``T = sqrt(tau) I`` and ``N = xi_prime I`` exactly, so its deviation from
    the additive form is O(1 - tau) on any fixed input.
    """
    xi_prime = float(xi_prime)
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise DomainError(f"asymptotic_b2 requires tau in (0, 1), got {tau}")
    if xi_prime <= 0.0:
        raise DomainError(f"added noise must be positive, got {xi_prime}")
    omega = xi_prime / (1.0 - tau)
    if omega < 1.0 - 1e-9:
        raise DomainError(
            f"environment variance xi'/(1 - tau) = {omega:g} < 1; "
            f"tau is not close enough to 1 for this noise level")
    omega = max(omega, 1.0)
    return SingleModeDilation(SymplecticMatrix(_beam_splitter(tau), tol=1e-12),
                              thermal_state(omega))
