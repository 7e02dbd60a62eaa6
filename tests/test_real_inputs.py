"""The one real-number rule, ``_floats._real``, at the float inputs of the
public closed forms, state builders, peeling total, key bounds, two-round
squeeze, canonical fields and energy bound: a str, a bool, None or an int
beyond float64 range raises :class:`DomainError` (``float()`` took the first
three, reading a bool as 0 or 1, comparisons raised a bare ``TypeError`` on
a str or None, and ``float()`` a bare ``OverflowError`` on the last), and a
valid input gives the same floats, bit for bit.  So does NaN or an
infinity where a range check bounds the input (they raised a
``ValidationError`` on the CM they made).

The one integer rule, ``_floats._integral``, at the mode counts and indices
of the state layer: a float, a bool or a str raises the error type of the
function's out-of-range values (a float raised a bare ``TypeError``, and a
bool was read as 0 or 1), and a numpy integer is an integer."""

import math

import numpy as np
import pytest

import bosonic_telesim as bt
from bosonic_telesim import DomainError

CH = bt.canonical_channel(bt.form_from_fields(bt.CanonicalClass.C_Att, tau=0.5, nbar=0.5))

# function of its float inputs: (valid arguments, the .hex() of its floats there)
CASES = {
    "fuchs_vdg": (bt.fuchs_vdg, (0.9,), ["0x1.9999999999998p-3", "0x1.be59eba3a1659p-1"]),
    "fid_env_C": (bt.fid_env_C, (0.1, 2.0, 1.3), ["0x1.ffb5d5dd66e68p-1"]),
    "fid_env_A2": (bt.fid_env_A2, (0.1, 2.0, 1.1, 0.3), ["0x1.ffdd7edd4a1aep-1"]),
    "fid_b2_asymptotic": (bt.fid_b2_asymptotic, (0.1, 0.5, 1.2), ["0x1.fd6bdd570a8b6p-1"]),
    "b1_gamma": (bt.b1_gamma, (1.3, -0.4, 0.5), ["0x1.10d59fa31ec43p+1"]),
    "phi_loss": (bt.phi_loss, (0.5, 0.2), ["0x1.ae0d6d4018f51p-2"]),
    "phi_amp": (bt.phi_amp, (2.0, 0.3), ["0x1.25bac049f9bd3p-2"]),
    "phi_add": (bt.phi_add, (0.5,), ["0x1.1d57135a8fa92p-2"]),
    "c_epsilon": (bt.c_epsilon, (0.1,), ["0x1.94fd2829d1e67p+1"]),
    "overall_error": (bt.overall_error, (0.1, 0.01), ["0x1.62ce90897cb55p-3"]),
    "asymptotic_b2": (bt.asymptotic_b2, (0.5, 0.9),
                      ["0x1.e5b9d136c6d96p-1", "0x0.0p+0", "0x1.43d136248490ep-2", "0x0.0p+0",
                       "0x1.4000000000001p+2", "0x0.0p+0"]),
    "tmsv_state": (bt.tmsv_state, (5.0,),
                   ["0x1.4000000000000p+2", "0x0.0p+0", "0x1.3988e1409212ep+2", "0x0.0p+0"]),
    "thermal_state": (bt.thermal_state, (2.0,), ["0x1.0000000000000p+1", "0x0.0p+0"]),
    "peel_bound": (lambda delta: bt.peel_bound(3, delta, "uniform"), (0.1,),
                   ["0x1.999999999999ap-4", "0x1.3333333333334p-2"]),
    "strong_converse_bound": (lambda phi, v, eps: bt.strong_converse_bound(phi, v, 10, eps),
                              (0.3, 1.5, 0.1), ["0x1.064f30fbc1124p+0"]),
    "corrected_key_bound": (lambda v: bt.corrected_key_bound(CH, 10, 0.1, 1e3, v), (1.5,),
                            ["0x1.c13b3fad4b068p-1"]),
    "two_round_demo": (lambda squeeze: bt.two_round_demo(CH, 10.0, squeeze), (0.2,),
                       ["0x1.ffd1b2a24b01bp-1", "0x1.b374464da5c29p-5"]),
}
BAD = ["0.5", True, None, 10 ** 400]


def _floats(out) -> list:
    """The floats a result carries: its value, the pair, or the first CM row
    of a state (after the first row of a dilation's symplectic)."""
    if isinstance(out, float):
        return [out]
    if isinstance(out, bt.BoundsPair):
        return [out.lower, out.upper]
    if isinstance(out, bt.BoundReport):
        return [out.value]
    if isinstance(out, bt.PeelingBound):
        return [out.per_use_delta, out.total]
    if isinstance(out, bt.TwoRoundReport):
        return [out.fidelity, out.trace_upper_bound]
    if isinstance(out, bt.GaussianState):
        return out.cm[0].tolist()
    return out.m.s[0].tolist() + _floats(out.env)


@pytest.mark.parametrize("bad", BAD, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("name, position", [(name, k) for name, (_, args, _) in CASES.items()
                                            for k in range(len(args))])
def test_non_real_input_raises_domain_error(name, position, bad):
    f, args, _ = CASES[name]
    args = list(args)
    args[position] = bad
    with pytest.raises(DomainError, match="must be a real number|must lie within float64 range"):
        f(*args)


# inputs that refused a str, a bool and None already, with their own
# messages, and raised a bare OverflowError on an int beyond float64 range
WIDE = {
    "form_from_fields tau": lambda x: bt.form_from_fields(bt.CanonicalClass.C_Amp, tau=x),
    "form_from_fields nbar": lambda x: bt.form_from_fields(bt.CanonicalClass.C_Att, tau=0.5,
                                                           nbar=x),
    "form_from_fields xi": lambda x: bt.form_from_fields(bt.CanonicalClass.B2, xi=x),
    "epsilon_tp_bound energy_bound": lambda x: bt.epsilon_tp_bound(
        3, 20.0, CH, "bounded_uniform", {"energy_bound": x}),
}


@pytest.mark.parametrize("name", sorted(WIDE))
def test_int_beyond_float64_range_raises_domain_error(name):
    with pytest.raises(DomainError,
                       match="must lie within float64 range|requires a finite energy bound"):
        WIDE[name](10 ** 400)


@pytest.mark.parametrize("name, want", [
    ("form_from_fields tau", ("0x1.0000000000000p+1", "0x0.0p+0")),
    ("form_from_fields nbar", ("0x1.0000000000000p-1", "0x1.999999999999ap-3")),
    ("form_from_fields xi", ("0x1.0000000000000p+0", "0x1.3333333333333p-2")),
])
def test_valid_field_keeps_its_floats(name, want):
    value = {"tau": 2.0, "nbar": 0.2, "xi": 0.3}[name.split()[1]]
    for x in (value, np.float64(value)):
        form = WIDE[name](x)
        assert (form.tau.hex(), form.noise_param.hex()) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("name, position, what", [
    ("tmsv_state", 0, "TMSV variance parameter"),
    ("thermal_state", 0, "thermal variance"),
    ("asymptotic_b2", 0, "added noise"),
    ("asymptotic_b2", 1, "tau"),
])
def test_non_finite_input_raises_domain_error(name, position, what, bad):
    f, args, _ = CASES[name]
    args = list(args)
    args[position] = bad
    with pytest.raises(DomainError, match=what):
        f(*args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_input_keeps_its_floats(name):
    f, args, want = CASES[name]
    assert [x.hex() for x in _floats(f(*args))] == want
    # numpy scalars are real numbers too
    assert [x.hex() for x in _floats(f(*map(np.float64, args)))] == want


# function of a count or index: (its call, the error of an out-of-range value, a valid value)
INTEGER_CASES = {
    "partial_trace": (lambda k: bt.partial_trace(bt.tmsv_state(2.0), k), DomainError, 1),
    "vacuum": (bt.GaussianState.vacuum, bt.InvalidDimensionError, 2),
    "symplectic_form": (bt.symplectic_form, bt.InvalidDimensionError, 2),
}


@pytest.mark.parametrize("bad", [1.0, 1.5, True, False, "1"], ids=repr)
@pytest.mark.parametrize("name", sorted(INTEGER_CASES))
def test_non_integer_count_or_index_raises(name, bad):
    f, error, _ = INTEGER_CASES[name]
    with pytest.raises(error, match="integer|must be 0 or 1"):
        f(bad)


@pytest.mark.parametrize("name", sorted(INTEGER_CASES))
def test_numpy_integer_is_an_integer(name):
    f, _, valid = INTEGER_CASES[name]
    got, want = f(np.int64(valid)), f(valid)
    if isinstance(want, bt.GaussianState):
        got, want = got.cm, want.cm
    assert np.array_equal(got, want)
