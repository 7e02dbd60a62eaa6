"""Continuous-variable teleportation as a channel, and teleportation
simulation of Gaussian channels.

A finite-resource teleporter built on a two-mode squeezed vacuum of variance
``mu`` acts on any fixed input as an additive-noise channel with added noise

    xi(mu) = 2 [mu - sqrt(mu^2 - 1)] = 2 / [mu + sqrt(mu^2 - 1)],

which ranges over (0, 2] and vanishes like 1/mu.  Feeding a channel E with
that teleporter output yields the simulated channel E o I_mu, whose noise
matrix is the original one plus ``xi T T^T``; the transmission matrix and
displacement are untouched.

The channel side and the states hold plain floats (see
``symplectic.GaussianState``).
"""

from __future__ import annotations

import dataclasses
import math

from ._floats import _real, _self_check_tol
from .channels import CanonicalClass, CanonicalForm, GaussianChannel, apply_channel, compose
from .errors import DomainError, UnsupportedFormError, ValidationError
from .symplectic import GaussianState, thermal_state, tmsv_state

__all__ = [
    "BKParameters",
    "SimulatedChannel",
    "EnvironmentalPair",
    "bk_added_noise",
    "bk_channel",
    "simulate_channel",
    "quasi_choi",
    "environmental_pair",
]


def bk_added_noise(mu: float) -> float:
    """Added noise xi of the finite-energy teleportation channel.

    Evaluated as ``2 / (mu + sqrt((mu - 1)(mu + 1)))`` to stay accurate at
    large mu and near mu = 1: ``mu - 1`` and ``mu + 1`` are exact, so
    ``mu^2 - 1`` is rounded once where ``mu * mu - 1`` would cancel, and xi
    is within 4u (u = 2^-53) relative of exact at every mu.  From mu = 2^27
    on that rounds to exactly ``1 / mu``, which is used there because the
    product overflows above mu ~ 1.34e154.  A plain ``float`` at every mu
    (``math.sqrt`` is correctly rounded, as numpy's is).  A mu that is not a
    real number, or is a bool, raises :class:`DomainError`.
    """
    return _xi_column([_real(mu, "resource variance")])[0]


def _xi_column(mus: list) -> list:
    """:func:`bk_added_noise` of each float of ``mus``, as a float list.  Each
    mu is checked in turn (finite, >= 1): the first bad one raises
    :class:`DomainError`."""
    sqrt, inf, xis = math.sqrt, math.inf, []
    for mu in mus:
        if not 1.0 <= mu < inf:  # NaN fails too
            raise DomainError(f"resource variance must be finite with mu >= 1, got {mu}")
        xis.append(1.0 / mu if mu >= 2.0 ** 27 else 2.0 / (mu + sqrt((mu - 1.0) * (mu + 1.0))))
    return xis


def _env_gamma(xis: list, tau: float) -> list:
    """Weights ``gamma = xi |tau| / |1 - tau|``, one per float of ``xis``, of
    the squeezed noise that the simulation adds to the environment of the
    C_Att, C_Amp and D forms.  The quotient is taken first, so gamma is about
    xi at tau of about 1e308; the first gamma that is not finite raises
    :class:`OverflowError`."""
    ratio, inf, gammas = abs(tau) / abs(1.0 - tau), math.inf, []
    for xi in xis:
        gamma = xi * ratio
        if not gamma < inf:
            raise OverflowError(f"gamma = xi |tau| / |1 - tau| is not finite at tau = {tau:g}")
        gammas.append(gamma)
    return gammas


def _frame_r(r) -> float:
    """Input-frame squeezing of the C, D and additive classes: real, > 0, not NaN."""
    r = _real(r, "squeezing parameter")
    if not r > 0.0:
        raise DomainError(f"squeezing parameter must be positive, got {r}")
    return r


def _frame_row(a, c) -> tuple:
    """Input-frame row of the A2 and unit-rank classes: real, finite, not (0, 0)."""
    a, c = _real(a, "witness row entry a"), _real(c, "witness row entry c")
    if not (math.isfinite(a) and math.isfinite(c)):
        raise DomainError(f"witness row (a, c) must be finite, got ({a}, {c})")
    if a == 0.0 and c == 0.0:
        raise DomainError("(a, c) = (0, 0) is outside the witness family")
    return a, c


@dataclasses.dataclass(frozen=True)
class BKParameters:
    """Resource variance mu >= 1 and the derived added noise xi(mu)."""

    mu: float
    xi: float = dataclasses.field(init=False)

    def __post_init__(self):
        xi = bk_added_noise(self.mu)  # which rejects a mu that float() would take
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "xi", xi)


def bk_channel(mu: float) -> GaussianChannel:
    """The teleportation channel itself: additive noise xi(mu) I, identity T."""
    return _teleporter(bk_added_noise(mu))


def _teleporter(xi: float) -> GaussianChannel:
    """The teleportation channel of added noise xi, from its floats."""
    return GaussianChannel._of((1.0, 0.0, 0.0, 1.0), (xi, 0.0, 0.0, xi), (0.0, 0.0))


@dataclasses.dataclass(frozen=True)
class SimulatedChannel:
    """A base channel together with its finite-energy teleportation
    simulation: same T and d, noise matrix ``N + xi T T^T``."""

    base: GaussianChannel
    params: BKParameters
    effective: GaussianChannel


def simulate_channel(base: GaussianChannel, mu: float) -> SimulatedChannel:
    """Compose the base channel with the finite-energy teleporter.

    The composed noise matrix is verified against ``N + xi T T^T`` to 1e-12
    at unit scale and to float64 roundoff of its largest entry beyond, on
    plain floats; a mismatch would indicate a broken composition rule, not
    bad input.  A composed noise matrix beyond float64 range (T of order
    1e155) raises :class:`ValidationError`.
    """
    params = BKParameters(mu)
    xi = params.xi
    effective = compose(base, _teleporter(xi))  # a non-finite N is rejected
    (a, b, c, d), (p, r, q), (p2, r2, q2) = base._t, base._n, effective._n
    expected = (p + xi * (a * a + b * b), r + xi * (a * c + b * d), q + xi * (c * c + d * d))
    deviation = max(abs(x - y) for x, y in zip((p2, r2, q2), expected))
    if deviation > _self_check_tol(max(map(abs, expected))):
        raise ValidationError("composed noise matrix deviates from N + xi T T^T")
    return SimulatedChannel(base=base, params=params, effective=effective)


def quasi_choi(base: GaussianChannel, mu: float) -> GaussianState:
    """Finite-energy stand-in for the Choi state: the channel applied to the
    second mode of a two-mode squeezed vacuum of variance mu."""
    return apply_channel(base, tmsv_state(mu), target_mode=1)


@dataclasses.dataclass(frozen=True)
class EnvironmentalPair:
    """Environmental states of the shared dilation of a canonical form and of
    its teleportation simulation: the thermal state and its noise-broadened
    counterpart."""

    rho_e: GaussianState
    rho_e_mu: GaussianState
    dilation_class: CanonicalClass


def environmental_pair(form: CanonicalForm, mu: float, squeeze_r: float = 1.0,
                       a: float = 1.0, c: float = 0.0) -> EnvironmentalPair:
    """Environmental-state pair for the classes whose dilation survives the
    simulation (A2, C_Att, C_Amp, D).

    The simulated channel keeps the dilation symplectic of the original form
    but replaces the thermal environment (variance ``omega = 2 nbar + 1``) by
    a zero-mean Gaussian state whose CM, written in the frame that
    diagonalizes it, is

        C_Att, C_Amp, D:  omega I + gamma diag(r^2, 1/r^2),
                          gamma = xi |tau| / |1 - tau|
        A2:               diag(xi (a^2 + c^2) + omega, omega)

    ``squeeze_r`` is the squeezing of the input-frame symplectic for C and D;
    ``a, c`` are its first-row entries for A2.  The defaults reproduce the
    canonical-form simulation (no input-frame conjugation).
    """
    squeeze_r = _frame_r(squeeze_r)
    xi = bk_added_noise(mu)
    omega = 2.0 * form.noise_param + 1.0
    tag = form.tag
    if tag in (CanonicalClass.C_Att, CanonicalClass.C_Amp, CanonicalClass.D):
        gamma = _env_gamma([xi], form.tau)[0]
        # plain-float products, not `**` (libm pow raises OverflowError): an
        # r out of range gives a non-finite CM, which GaussianState rejects
        inv = 1.0 / squeeze_r
        w = (omega + gamma * (squeeze_r * squeeze_r), 0.0, 0.0, omega + gamma * (inv * inv))
    elif tag is CanonicalClass.A2:
        a, c = _frame_row(a, c)
        w = (xi * (a * a + c * c) + omega, 0.0, 0.0, omega)
    else:
        raise UnsupportedFormError(
            f"no environmental pair for class {tag.value}; supported: A2, C_Att, C_Amp, D")
    return EnvironmentalPair(rho_e=thermal_state(omega),
                             rho_e_mu=GaussianState._of((0.0, 0.0), w),
                             dilation_class=tag)
