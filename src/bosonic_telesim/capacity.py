"""Secret-key capacity upper bounds for phase-insensitive Gaussian channels.

The weak-converse bounds (bits per channel use):

    thermal loss, tau in [0, 1]:  -log2[(1 - tau) tau^nbar] - h(nbar)
                                  for nbar < tau / (1 - tau), else 0
    amplifier, tau > 1:           log2[tau^(nbar + 1) / (tau - 1)] - h(nbar)
                                  for nbar < 1 / (tau - 1), else 0
    additive noise:               (xi - 1)/ln 2 - log2 xi for xi < 1, else 0

with the entropic function h(x) = (x + 1) log2(x + 1) - x log2 x.  At nbar=0
the loss bound reduces to -log2(1 - tau).  The finite-size strong-converse
refinement adds sqrt(V / (n (1 - eps))) + C(eps)/n with
C(eps) = log2 6 + 2 log2[(1 + eps)/(1 - eps)]; the teleportation-simulation
infidelity eps_TP <= n delta / 2 enters through the combined error
min{1, (sqrt(eps) + sqrt(eps_TP))^2}.
"""

from __future__ import annotations

import dataclasses
import math

from .channels import CanonicalClass, GaussianChannel, classify
from .convergence import _diamond_bound
from .errors import DomainError, UnsupportedFormError
from .peeling import _protocol_form

__all__ = [
    "BoundReport",
    "entropic_h",
    "phi_loss",
    "phi_amp",
    "phi_add",
    "c_epsilon",
    "overall_error",
    "strong_converse_bound",
    "corrected_key_bound",
]

_LN2 = math.log(2.0)


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """A named scalar bound (bits per channel use) with provenance.

    ``threshold_active`` marks bounds that are zero because the noise exceeds
    the formula's threshold; ``unbounded`` marks formally infinite bounds,
    kept as a flag so CSV/JSON output never carries floating-point infinity.
    """

    value: float
    formula: str
    inputs: dict
    threshold_active: bool = False
    unbounded: bool = False


def entropic_h(x: float) -> float:
    """``h(x) = (x + 1) log2(x + 1) - x log2 x``, with h(0) = 0 by limit."""
    x = float(x)
    if x < 0.0:
        raise DomainError(f"entropic function requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def phi_loss(tau: float, nbar: float) -> BoundReport:
    """Key-capacity upper bound of the thermal-loss channel.

    Zero once nbar reaches tau / (1 - tau); the threshold itself counts as
    zero, matching the strict inequality in the defining formula.  At
    tau = 1 the channel is lossless and the bound is unbounded.
    """
    tau, nbar = float(tau), float(nbar)
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"loss transmissivity must lie in [0, 1], got {tau}")
    if nbar < 0.0:
        raise DomainError(f"thermal number must be non-negative, got {nbar}")
    inputs = {"tau": tau, "nbar": nbar}
    if tau == 1.0:
        return BoundReport(0.0, "loss", inputs, unbounded=True)
    if not nbar < tau / (1.0 - tau):
        return BoundReport(0.0, "loss", inputs, threshold_active=True)
    value = -math.log2((1.0 - tau) * tau ** nbar) - entropic_h(nbar)
    return BoundReport(value, "loss", inputs)


def phi_amp(tau: float, nbar: float) -> BoundReport:
    """Key-capacity upper bound of the noisy amplifier (gain tau > 1);
    zero once nbar reaches 1 / (tau - 1)."""
    tau, nbar = float(tau), float(nbar)
    if tau <= 1.0:
        raise DomainError(f"amplifier gain must exceed 1, got {tau}")
    if nbar < 0.0:
        raise DomainError(f"thermal number must be non-negative, got {nbar}")
    inputs = {"tau": tau, "nbar": nbar}
    if not nbar < 1.0 / (tau - 1.0):
        return BoundReport(0.0, "amplifier", inputs, threshold_active=True)
    value = math.log2(tau ** (nbar + 1.0) / (tau - 1.0)) - entropic_h(nbar)
    return BoundReport(value, "amplifier", inputs)


def phi_add(xi: float) -> BoundReport:
    """Key-capacity upper bound of the additive-noise channel; zero for
    xi >= 1, unbounded at xi = 0 (noiseless)."""
    xi = float(xi)
    if xi < 0.0:
        raise DomainError(f"added noise must be non-negative, got {xi}")
    inputs = {"xi": xi}
    if xi == 0.0:
        return BoundReport(0.0, "additive", inputs, unbounded=True)
    if not xi < 1.0:
        return BoundReport(0.0, "additive", inputs, threshold_active=True)
    return BoundReport((xi - 1.0) / _LN2 - math.log2(xi), "additive", inputs)


def c_epsilon(eps: float) -> float:
    """Finite-size penalty ``log2 6 + 2 log2[(1 + eps)/(1 - eps)]`` for an
    eps-secure key; finite on (0, 1) and divergent at the right endpoint."""
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise DomainError(f"security parameter must lie in (0, 1), got {eps}")
    return math.log2(6.0) + 2.0 * math.log2((1.0 + eps) / (1.0 - eps))


def overall_error(eps: float, eps_tp: float) -> float:
    """Combined security-plus-simulation error
    ``min{1, (sqrt(eps) + sqrt(eps_tp))^2}``."""
    eps, eps_tp = float(eps), float(eps_tp)
    if not 0.0 <= eps <= 1.0 or not 0.0 <= eps_tp <= 1.0:
        raise DomainError("both error terms must lie in [0, 1]")
    return min(1.0, (math.sqrt(eps) + math.sqrt(eps_tp)) ** 2)


def strong_converse_bound(phi: float, v: float, n: int, eps: float) -> float:
    """Finite-size key bound ``phi + sqrt(V / (n (1 - eps))) + C(eps)/n``.

    V is the caller-supplied variance parameter of the finite-size expansion
    (no closed form is implemented here); V = 0 reproduces the pure-loss and
    quantum-limited-amplifier form ``phi + C(eps)/n``.
    """
    if n < 1:
        raise DomainError(f"channel uses must be >= 1, got {n}")
    if v < 0.0:
        raise DomainError(f"variance parameter must be non-negative, got {v}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"security parameter must lie in (0, 1), got {eps}")
    return float(phi) + math.sqrt(v / (n * (1.0 - eps))) + c_epsilon(eps) / n


_PHI_BY_CLASS = {
    CanonicalClass.C_Att: lambda f: phi_loss(f.tau, f.noise_param),
    CanonicalClass.C_Amp: lambda f: phi_amp(f.tau, f.noise_param),
    CanonicalClass.B2: lambda f: phi_add(f.noise_param),
    # the identity is the xi = 0 additive channel: a formula exists (it is
    # unbounded) but the rank criterion rejects its uniform simulation below
    CanonicalClass.B2_Id: lambda f: phi_add(0.0),
}


def corrected_key_bound(ch: GaussianChannel, n: int, eps: float, mu: float,
                        v: float = 0.0, *, r: float = 1.0,
                        tol: float | None = None) -> BoundReport:
    """Finite-size key bound with the teleportation-simulation error of a
    mu-resource simulation folded in.

    Composes the per-use diamond bound into eps_TP <= n delta / 2, combines
    it with the security parameter, and evaluates the strong-converse bound
    at the inflated error.  The report carries every intermediate quantity
    plus the clean (mu -> infinity) bound and the excess over it, which
    decays to zero as the resource grows.  Only the phase-insensitive classes
    with a known capacity formula are supported (thermal loss, amplifier,
    additive noise); the rank criterion excludes identity-like and unit-rank
    channels from the uniform topology.  For a channel away from canonical
    form, pass the input-frame squeezing ``r`` of its reduction.

    The channel is classified once under ``tol``, and that form serves the
    capacity formula, the uniform-topology check and the diamond bound;
    eps_TP equals ``epsilon_tp_bound(n, mu, ch, "uniform", {"r": r}, tol=tol)``.
    Errors come in order: the classification, an unsupported class, then
    those of :func:`epsilon_tp_bound`, :func:`overall_error` and
    :func:`strong_converse_bound`.
    """
    form = classify(ch, tol)
    if form.tag not in _PHI_BY_CLASS:
        raise UnsupportedFormError(
            f"no key-capacity formula for class {form.tag.value}; "
            "supported: C_Att, C_Amp, B2")
    phi_report = _PHI_BY_CLASS[form.tag](form)
    _protocol_form(n, ch, "uniform", None, tol, form)
    eps_tp = min(1.0, n * _diamond_bound(form, mu, r, 1.0, 0.0) / 2.0)
    eps_all = overall_error(eps, eps_tp)
    clean = strong_converse_bound(phi_report.value, v, n, eps)
    inputs = {"class": form.tag.value, "tau": form.tau,
              "noise_param": form.noise_param, "n": n, "eps": eps, "mu": mu,
              "V": v, "phi": phi_report.value, "eps_tp": eps_tp,
              "eps_overall": eps_all, "clean_bound": clean}
    if eps_all >= 1.0:
        return BoundReport(0.0, "strong_converse", inputs, unbounded=True,
                           threshold_active=phi_report.threshold_active)
    value = strong_converse_bound(phi_report.value, v, n, eps_all)
    inputs["c_eps"] = c_epsilon(eps_all)
    inputs["excess_over_clean"] = value - clean
    return BoundReport(value, "strong_converse", inputs,
                       threshold_active=phi_report.threshold_active,
                       unbounded=phi_report.unbounded)
