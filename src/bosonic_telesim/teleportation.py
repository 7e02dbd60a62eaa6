"""Continuous-variable teleportation as a channel, and teleportation
simulation of Gaussian channels.

A finite-resource teleporter built on a two-mode squeezed vacuum of variance
``mu`` acts on any fixed input as an additive-noise channel with added noise

    xi(mu) = 2 [mu - sqrt(mu^2 - 1)] = 2 / [mu + sqrt(mu^2 - 1)],

which ranges over (0, 2] and vanishes like 1/mu.  Feeding a channel E with
that teleporter output yields the simulated channel E o I_mu, whose noise
matrix is the original one plus ``xi T T^T``; the transmission matrix and
displacement are untouched.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .channels import (CanonicalClass, CanonicalForm, GaussianChannel,
                       apply_channel, compose)
from .errors import DomainError, UnsupportedFormError, ValidationError
from .symplectic import GaussianState, _self_check_tol, thermal_state, tmsv_state

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

    Evaluated as ``2 / (mu + sqrt(mu^2 - 1))`` to stay accurate at large mu.
    From mu = 2^27 on that rounds to exactly ``1 / mu``, which is used there
    because ``mu * mu`` overflows above mu ~ 1.34e154.  A plain ``float`` at
    every mu (``math.sqrt`` is correctly rounded, as numpy's is).
    """
    mu = float(mu)
    if not (math.isfinite(mu) and mu >= 1.0):
        raise DomainError(f"resource variance must be finite with mu >= 1, got {mu}")
    if mu >= 2.0 ** 27:
        return 1.0 / mu
    return 2.0 / (mu + math.sqrt(mu * mu - 1.0))


def _env_gamma(xi: float, tau: float) -> float:
    """Weight ``gamma = xi |tau| / |1 - tau|`` of the squeezed noise that the
    simulation adds to the environment of the C_Att, C_Amp and D forms.  The
    quotient is taken first, so gamma is about xi at tau of about 1e308; a
    gamma that is not finite raises :class:`OverflowError`."""
    gamma = xi * (abs(tau) / abs(1.0 - tau))
    if not gamma < math.inf:
        raise OverflowError(f"gamma = xi |tau| / |1 - tau| is not finite at tau = {tau:g}")
    return gamma


@dataclasses.dataclass(frozen=True)
class BKParameters:
    """Resource variance mu >= 1 and the derived added noise xi(mu)."""

    mu: float
    xi: float = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "xi", bk_added_noise(self.mu))


def bk_channel(mu: float) -> GaussianChannel:
    """The teleportation channel itself: additive noise xi(mu) I, identity T."""
    return GaussianChannel(np.eye(2), bk_added_noise(mu) * np.eye(2))


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
    at unit scale and to float64 roundoff of its largest entry beyond; a
    mismatch would indicate a broken composition rule, not bad input.  A
    composed noise matrix beyond float64 range (T of order 1e155) raises
    :class:`ValidationError`.
    """
    params = BKParameters(mu)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite N is rejected
        effective = compose(base, bk_channel(mu))
    expected_n = base.n + params.xi * base.t @ base.t.T
    deviation = np.max(np.abs(effective.n - expected_n))
    if deviation > _self_check_tol(np.max(np.abs(expected_n))):
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
    if squeeze_r <= 0.0:
        raise DomainError(f"squeeze_r must be positive, got {squeeze_r}")
    xi = bk_added_noise(mu)
    omega = 2.0 * form.noise_param + 1.0
    tag = form.tag
    if tag in (CanonicalClass.C_Att, CanonicalClass.C_Amp, CanonicalClass.D):
        gamma = _env_gamma(xi, form.tau)
        # plain-float products, not `**` (libm pow raises OverflowError): an
        # r out of range gives a non-finite CM, which GaussianState rejects
        inv = 1.0 / squeeze_r
        w = np.diag([omega + gamma * (squeeze_r * squeeze_r), omega + gamma * (inv * inv)])
    elif tag is CanonicalClass.A2:
        w = np.diag([xi * (a * a + c * c) + omega, omega])
    else:
        raise UnsupportedFormError(
            f"no environmental pair for class {tag.value}; supported: A2, C_Att, C_Amp, D")
    return EnvironmentalPair(rho_e=thermal_state(omega),
                             rho_e_mu=GaussianState(np.zeros(2), w),
                             dilation_class=tag)
