"""Secret-key capacity upper bounds for phase-insensitive Gaussian channels.

The weak-converse bounds (bits per channel use) of thermal loss and of the
amplifier are one function of the thermal number n and a threshold t,

    g(t, n) = (n + 1) log2[(t + 1)/(n + 1)] - n log2(t/n)  for n < t, else 0,

with t = tau/(1 - tau) for loss (tau in [0, 1]) and t = 1/(tau - 1) for the
amplifier (tau > 1); g(t, 0) = log2(t + 1).  Additive noise gives
(xi - 1)/ln 2 - log2 xi for xi < 1, else 0, the limit of g(t, xi t) as
t -> infinity.  Each bound is decided at the exact rational gap d = t - n
(d = 1 - xi for additive noise), formed from the integer ratios of the
float inputs, so "below threshold" is exactly d > 0, and is rounded up, so
the float is never below the bound (see :func:`_phi`).
The finite-size strong-converse refinement adds
sqrt(V / (n (1 - eps))) + C(eps)/n with
C(eps) = log2 6 + 2 log2[(1 + eps)/(1 - eps)]; the teleportation-simulation
infidelity eps_TP <= n delta / 2 enters through the combined error
min{1, (sqrt(eps) + sqrt(eps_TP))^2}.
"""

from __future__ import annotations

import dataclasses
import math

from ._floats import _real
from .channels import CanonicalClass, GaussianChannel, classify
from .errors import DomainError, UnsupportedFormError
from .peeling import _check_count, _eps_tp, _protocol_form

__all__ = [
    "BoundReport",
    "phi_loss",
    "phi_amp",
    "phi_add",
    "c_epsilon",
    "overall_error",
    "strong_converse_bound",
    "corrected_key_bound",
]

_LN2 = math.log(2.0)
_EPS = 2.0 ** -52
_ATANH = tuple(1.0 / k for k in range(35, 1, -2))  # 1/35, ..., 1/3


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


def _m(x: float) -> float:
    """``x - log1p(x)`` on [-1/2, 1] without cancellation: with u = x/(2 + x),
    log1p(x) = 2 atanh(u), so m = u^2 (2 + x - 2u sum_k u^(2k)/(2k + 3)), and
    |u| <= 1/3 needs 17 terms (measured within 2.7 eps of 60 digits)."""
    u = x / (2.0 + x)
    v = u * u
    s = 0.0
    for c in _ATANH:
        s = s * v + c
    return v * (2.0 + x - 2.0 * u * s)


def _phi(formula: str, inputs: dict, num: int, den: int, n: float | None) -> BoundReport:
    """Phi at the exact gap d = num/den (den > 0) to its threshold, rounded
    up; 0 with ``threshold_active`` for d <= 0.  Loss and amplifier pass their
    thermal number ``n``: with x = fl(d), Phi ln 2 is
    n m(x/n) - (n + 1) m(x/(n + 1)) for x <= n, else
    (n + 1) log1p(x/(n + 1)) - n log1p(x/n), whose second term is dropped
    (raising Phi) where x/n could overflow.  Additive noise passes n = None
    and d = 1 - xi: Phi ln 2 is m(xi - 1), with xi - 1 = -x exact, for
    xi >= 1/2, else -x - log xi.

    Error (eps = 2^-52): each term is within 6 eps (correctly rounded
    quotients; m and log1p at most double an argument's error) and at most
    7.2 (n + 2) times Phi (the supremum, just past x = n); with 2 eps for the
    subtraction and ln 2, Phi is within (44 (n + 2) + 2) eps < 64 (n + 2) eps,
    the margin of the factor below, which also keeps it positive.
    """
    if num <= 0:
        return BoundReport(0.0, formula, inputs, threshold_active=True)
    x = num / den
    if n is None:
        nats = _m(-x) if x <= 0.5 else -x - math.log((den - num) / den)
        n = 0.0
    elif x <= n:
        nats = n * _m(x / n) - (n + 1.0) * _m(x / (n + 1.0))
    else:
        nats = (n + 1.0) * math.log1p(x / (n + 1.0))
        if n > x * 2.0 ** -1000:
            nats -= n * math.log1p(x / n)
    return BoundReport(nats / _LN2 * (1.0 + 64.0 * (n + 2.0) * _EPS), formula, inputs)


def phi_loss(tau: float, nbar: float) -> BoundReport:
    """Key-capacity upper bound of the thermal-loss channel.

    Zero once nbar reaches tau / (1 - tau), decided in exact rationals; the
    threshold itself counts as zero, matching the strict inequality in the
    defining formula.  At tau = 1 the channel is lossless and the bound is
    unbounded.
    """
    tau, nbar = _real(tau, "loss transmissivity"), _real(nbar, "thermal number")
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"loss transmissivity must lie in [0, 1], got {tau}")
    if not 0.0 <= nbar < math.inf:
        raise DomainError(f"thermal number must be finite and non-negative, got {nbar}")
    inputs = {"tau": tau, "nbar": nbar}
    if tau == 1.0:
        return BoundReport(0.0, "loss", inputs, unbounded=True)
    (a, b), (p, q) = tau.as_integer_ratio(), nbar.as_integer_ratio()
    # tau = a/b and nbar = p/q, so t - nbar = a/(b - a) - p/q
    return _phi("loss", inputs, a * q - p * (b - a), (b - a) * q, nbar)


def phi_amp(tau: float, nbar: float) -> BoundReport:
    """Key-capacity upper bound of the noisy amplifier (gain tau > 1);
    zero once nbar reaches 1 / (tau - 1), decided in exact rationals."""
    tau, nbar = _real(tau, "amplifier gain"), _real(nbar, "thermal number")
    if not 1.0 < tau < math.inf:
        raise DomainError(f"amplifier gain must be finite and exceed 1, got {tau}")
    if not 0.0 <= nbar < math.inf:
        raise DomainError(f"thermal number must be finite and non-negative, got {nbar}")
    inputs = {"tau": tau, "nbar": nbar}
    (a, b), (p, q) = tau.as_integer_ratio(), nbar.as_integer_ratio()
    # tau = a/b and nbar = p/q, so t - nbar = b/(a - b) - p/q
    return _phi("amplifier", inputs, b * q - p * (a - b), (a - b) * q, nbar)


def phi_add(xi: float) -> BoundReport:
    """Key-capacity upper bound of the additive-noise channel; zero for
    xi >= 1, unbounded at xi = 0 (noiseless)."""
    xi = _real(xi, "added noise")
    if not 0.0 <= xi < math.inf:
        raise DomainError(f"added noise must be finite and non-negative, got {xi}")
    inputs = {"xi": xi}
    if xi == 0.0:
        return BoundReport(0.0, "additive", inputs, unbounded=True)
    a, b = xi.as_integer_ratio()
    return _phi("additive", inputs, b - a, b, None)  # xi = a/b, d = 1 - xi


def c_epsilon(eps: float) -> float:
    """Finite-size penalty ``log2 6 + 2 log2[(1 + eps)/(1 - eps)]`` for an
    eps-secure key; finite on (0, 1) and divergent at the right endpoint."""
    eps = _real(eps, "security parameter")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"security parameter must lie in (0, 1), got {eps}")
    return math.log2(6.0) + 2.0 * math.log2((1.0 + eps) / (1.0 - eps))


def overall_error(eps: float, eps_tp: float) -> float:
    """Combined security-plus-simulation error
    ``min{1, (sqrt(eps) + sqrt(eps_tp))^2}``, rounded up; eps itself at
    eps_tp = 0.  With u = 2^-53, the roots, their sum and the square leave
    the square within ``(1 -/+ u)^5`` of the exact value, so a factor
    ``1 + c 2^-52`` rounded by u lifts it above once
    ``(1 - u)^6 (1 + 2c u) > 1``: c = 4, with an excess below ``8 * 2^-52``.
    The added 2^-1072 covers a subnormal square's 2^-1075 absolute rounding
    and is lost above 2^-1019.
    """
    eps, eps_tp = _real(eps, "security parameter"), _real(eps_tp, "simulation error")
    if not 0.0 <= eps <= 1.0 or not 0.0 <= eps_tp <= 1.0:
        raise DomainError("both error terms must lie in [0, 1]")
    if eps_tp == 0.0:
        return eps
    root = math.sqrt(eps) + math.sqrt(eps_tp)
    return min(1.0, root * root * (1.0 + 4.0 * _EPS) + 2.0 ** -1072)


def strong_converse_bound(phi: float, v: float, n: int, eps: float) -> float:
    """Finite-size key bound ``phi + sqrt(V / (n (1 - eps))) + C(eps)/n``.

    V is the caller-supplied variance parameter of the finite-size expansion
    (no closed form is implemented here); V = 0 reproduces the pure-loss and
    quantum-limited-amplifier form ``phi + C(eps)/n``.  Checked in order: an
    integer n >= 1, a finite phi, a finite V >= 0 and eps in (0, 1), each
    float a real number first (``_floats._real``).
    """
    _check_count(n, "channel uses")
    phi = _real(phi, "key-capacity term")
    if not math.isfinite(phi):
        raise DomainError(f"key-capacity term must be finite, got {phi}")
    v = _real(v, "variance parameter")
    if v < 0.0:
        raise DomainError(f"variance parameter must be non-negative, got {v}")
    if not math.isfinite(v):
        raise DomainError(f"variance parameter must be finite, got {v}")
    eps = _real(eps, "security parameter")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"security parameter must lie in (0, 1), got {eps}")
    return phi + math.sqrt(v / (n * (1.0 - eps))) + c_epsilon(eps) / n


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
    eps_TP is ``min(1, epsilon_tp_bound(n, mu, ch, "uniform", {"r": r}, tol=tol))``.
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
    eps_tp = min(1.0, _eps_tp(n, form, mu, r, 1.0, 0.0))
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
