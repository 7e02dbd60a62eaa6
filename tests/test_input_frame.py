"""The input frame that reduces a channel to canonical form (squeezing r of
the C, D and additive classes, first row (a, c) of the A2 and unit-rank
classes) is checked by one owner, ``teleportation._frame_r`` and
``_frame_row``.  Every reader of the frame rejects a bad one with
:class:`DomainError`, ignores the part it does not read, and on a good frame
gives the float it gave before the checks had one owner."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_telesim import (CanonicalClass, DomainError, b1_gamma, b1_witness_bound,
                             bk_added_noise, canonical_channel, classify, convergence_scan,
                             diamond_upper_bound, environmental_pair, epsilon_tp_bound,
                             fid_b2_asymptotic, fid_env_A2, fid_env_C, form_from_fields,
                             gaussian_fidelity, nonuniform_witness)
from bosonic_telesim.convergence import _B1_ROUND_DOWN
from bosonic_telesim.fidelity import (_b1_witness_infidelity, _b2_root_infidelity,
                                      _env_root_infidelity)
from bosonic_telesim.teleportation import _env_gamma

FIELDS = {"A1": {"nbar": 0.3}, "A2": {"nbar": 0.4}, "C_Att": {"tau": 0.6, "nbar": 0.5},
          "C_Amp": {"tau": 1.7, "nbar": 0.2}, "D": {"tau": -0.8, "nbar": 0.7},
          "B2": {"xi": 0.9}, "B1": {}, "B2_Id": {}}
ENV = ("A2", "C_Att", "C_Amp", "D")
FULL_RANK = ("A1", "B2") + ENV
MU_TILDE = 40.0
BAD_R = (0.0, -1.0, math.nan)
BAD_ROW = ((0.0, 0.0), (math.nan, 0.0), (math.inf, 1.0), (1.0, -math.inf))


def _form(cls):
    return form_from_fields(CanonicalClass(cls), **FIELDS[cls])


def _scan(form, mu, r, a, c):
    ch, params = canonical_channel(form), {"mu": mu, "r": r, "a": a, "c": c}
    if form.tag.value in FULL_RANK:
        return convergence_scan(ch, [mu], params)[0].upper_bound
    return convergence_scan(ch, [MU_TILDE], params)[0].witness_lower_bound


def _env_cm(form, mu, r, a, c):
    return environmental_pair(form, mu, squeeze_r=r, a=a, c=c).rho_e_mu.cm.ravel().tolist()


# reader: (the classes it takes, the float(s) it gives at (form, mu, r, a, c))
READERS = {
    "environmental_pair": (ENV, _env_cm),
    "fid_env_C": (("C_Att", "C_Amp", "D"), lambda form, mu, r, a, c: fid_env_C(
        _env_gamma([bk_added_noise(mu)], form.tau)[0], 2.0 * form.noise_param + 1.0, r)),
    "fid_env_A2": (("A2",), lambda form, mu, r, a, c: fid_env_A2(
        bk_added_noise(mu), 2.0 * form.noise_param + 1.0, a, c)),
    "diamond_upper_bound": (FULL_RANK, lambda form, mu, r, a, c: diamond_upper_bound(
        canonical_channel(form), mu, r=r, a=a, c=c)),
    # n = 2: n delta / 2 is delta exactly
    "epsilon_tp_bound": (FULL_RANK, lambda form, mu, r, a, c: epsilon_tp_bound(
        2, mu, canonical_channel(form), "uniform", {"r": r, "a": a, "c": c})),
    "convergence_scan": (tuple(FIELDS), _scan),
    "b1_witness_bound": (("B1",), lambda form, mu, r, a, c: b1_witness_bound(
        mu, MU_TILDE, a, c)),
}


def _reads(reader, cls):
    """The parts of the frame that ``reader`` reads for class ``cls``."""
    if reader == "environmental_pair":
        return {"r", "row"} if cls == "A2" else {"r"}
    return {"A1": set(), "B2_Id": set(), "A2": {"row"}, "B1": {"row"}}.get(cls, {"r"})


def _expected(reader, form, mu, r, a, c):
    """The float of each reader, from the parts that the frame checks leave
    alone: the CM entries of the environmental state, ``gaussian_fidelity``
    of the pair, and the bound or witness of the class.  The bounds classify
    the channel, whose form can differ from ``form`` by an ulp."""
    if not reader.startswith(("fid_env", "environmental")):
        form = classify(canonical_channel(form))
    cls, xi = form.tag.value, bk_added_noise(mu)
    omega = 2.0 * form.noise_param + 1.0
    if reader == "environmental_pair":
        if cls == "A2":
            return [xi * (a * a + c * c) + omega, 0.0, 0.0, omega]
        gamma, inv = _env_gamma([xi], form.tau)[0], 1.0 / r
        return [omega + gamma * (r * r), 0.0, 0.0, omega + gamma * (inv * inv)]
    if cls in ENV and reader.startswith("fid_env"):
        pair = environmental_pair(form, mu, squeeze_r=r, a=a, c=c)
        return gaussian_fidelity(pair.rho_e, pair.rho_e_mu)
    if cls == "A2":
        return 2.0 * _env_root_infidelity([xi], a * a + c * c, 0.0, form.noise_param)[0]
    if cls in ENV:
        gamma, inv = _env_gamma([xi], form.tau)[0], 1.0 / r
        return 2.0 * _env_root_infidelity([gamma], r * r, inv * inv, form.noise_param)[0]
    if cls == "A1":
        return 0.0
    if cls == "B2":
        return 2.0 * _b2_root_infidelity([xi], form.noise_param, r)[0]
    if cls == "B2_Id":
        return nonuniform_witness(mu, MU_TILDE)
    [(infidelity, f2)] = _b1_witness_infidelity([MU_TILDE], xi, a, c)
    return min(2.0 * infidelity / (1.0 + math.sqrt(f2)) * _B1_ROUND_DOWN, 2.0)


def _hex(x):
    return [v.hex() for v in x] if isinstance(x, list) else x.hex()


_MU = st.floats(0.0, 8.0).map(lambda e: 10.0 ** e)
_R = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
# entries below 1e-3 would make the B1 completion (second row 1/a or 1/c) overflow
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))
_ROW = st.tuples(_ENTRY, _ENTRY).filter(lambda ac: ac != (0.0, 0.0))


@st.composite
def _reader_draws(draw):
    reader = draw(st.sampled_from(sorted(READERS)))
    cls = draw(st.sampled_from(READERS[reader][0]))
    return reader, cls, draw(_MU), draw(_R), draw(_ROW)


class TestFrameReaders:
    @given(_reader_draws(), st.sampled_from([("r", x) for x in BAD_R]
                                            + [("row", x) for x in BAD_ROW]))
    @settings(max_examples=400, deadline=None)
    def test_bad_frame_rejected_where_read(self, draw, bad):
        reader, cls, mu, r, (a, c) = draw
        part, value = bad
        good = (r, a, c)
        frame = (value, a, c) if part == "r" else (r, *value)
        fn, form = READERS[reader][1], _form(cls)
        if part in _reads(reader, cls):
            with pytest.raises(DomainError):
                fn(form, mu, *frame)
        else:  # a part the reader does not read changes nothing
            assert _hex(fn(form, mu, *frame)) == _hex(fn(form, mu, *good))

    @given(_reader_draws())
    @settings(max_examples=400, deadline=None)
    def test_valid_frame_keeps_its_float(self, draw):
        reader, cls, mu, r, (a, c) = draw
        form = _form(cls)
        got = READERS[reader][1](form, mu, r, a, c)
        assert _hex(got) == _hex(_expected(reader, form, mu, r, a, c))

    # (class, r, a, c): the bound or witness and, for the classes with an
    # environmental pair, its fidelity, at mu = 3.7 and mu_tilde = 40, pinned
    # from the code before the frame checks were unified: no good frame moves.
    # The A2, C_Amp, C_Att and D bounds are those of the cancellation-free
    # kernel, 2.8e-14 relative above 60 digits (rounded up); the float64
    # 1 - F^2 they replaced was 6e-16 to 1.5e-14 off, the A2 (0.7, 1.3, -0.4)
    # one 2.0e-15 below.  Restated since: the D bounds, for the exact det T
    # that classify now reports (tau = -0.7999999999999999; 0x...9d8p-4 and
    # 0x...53c8p-4 before, each still 2.8e-14 above 60 digits), and the B2
    # bounds, for the root kernel that no longer underflows (0x...0332ep-2
    # and 0x...0364bp-1 before, 1.4e-14 above 60 digits; now 2.85e-14 above)
    PINNED = {
        ("A1", 0.7, 1.3, -0.4): ("0x0.0p+0",),
        ("A1", 1.9, 0.0, 2.1): ("0x0.0p+0",),
        ("A2", 0.7, 1.3, -0.4): ("0x1.75fed903167c1p-3", "0x1.fddc7a9d171acp-1"),
        ("A2", 1.9, 0.0, 2.1): ("0x1.7b7b18e38fe11p-2", "0x1.f7224228c390ep-1"),
        ("C_Att", 0.7, 1.3, -0.4): ("0x1.192f02a5ceb32p-2", "0x1.fb26be7311d42p-1"),
        ("C_Att", 1.9, 0.0, 2.1): ("0x1.9d7b0dd5b2f7dp-2", "0x1.f574dc4e6efa0p-1"),
        ("C_Amp", 0.7, 1.3, -0.4): ("0x1.23a9bdcf0d32dp-1", "0x1.eacad9cb95ca6p-1"),
        ("C_Amp", 1.9, 0.0, 2.1): ("0x1.7aa44a5fb513ap-1", "0x1.dbb630cb34901p-1"),
        ("D", 0.7, 1.3, -0.4): ("0x1.36ab84a1309d6p-4", "0x1.ffa1b65b6d47dp-1"),
        ("D", 1.9, 0.0, 2.1): ("0x1.f7221da7c53c6p-4", "0x1.ff088e6fa4f8bp-1"),
        ("B2", 0.7, 1.3, -0.4): ("0x1.6916466503388p-2",),
        ("B2", 1.9, 0.0, 2.1): ("0x1.077dedda0368dp-1",),
        ("B1", 0.7, 1.3, -0.4): ("0x1.d0b136eae09a2p-1",),
        ("B1", 1.9, 0.0, 2.1): ("0x1.1bb381e2cf08bp+0",),
        ("B2_Id", 0.7, 1.3, -0.4): ("0x1.374c867f05a02p+0",),
        ("B2_Id", 1.9, 0.0, 2.1): ("0x1.374c867f05a02p+0",),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_floats(self, key):
        cls, r, a, c = key
        form, mu = _form(cls), 3.7
        want = self.PINNED[key]
        assert _scan(form, mu, r, a, c).hex() == want[0]
        if cls in ENV:
            pair = environmental_pair(form, mu, squeeze_r=r, a=a, c=c)
            assert gaussian_fidelity(pair.rho_e, pair.rho_e_mu).hex() == want[1]
            name = "fid_env_A2" if cls == "A2" else "fid_env_C"
            assert READERS[name][1](form, mu, r, a, c).hex() == want[1]

    @pytest.mark.parametrize("reader", ["diamond_upper_bound", "epsilon_tp_bound",
                                        "convergence_scan", "environmental_pair"])
    def test_a2_zero_row_is_no_exact_simulation(self, reader):
        # (0, 0) is no input frame, so its bound is an error, not 0.0 (an exact simulation)
        with pytest.raises(DomainError, match=r"\(a, c\) = \(0, 0\)"):
            READERS[reader][1](_form("A2"), 10.0, 1.0, 0.0, 0.0)


_C_ATT, _A2, _B2 = _form("C_Att"), _form("A2"), _form("B2")


# each returned a number (the r = 1 or r = 2 bound) or raised a bare TypeError
# before the frame checks saw the caller's value instead of its float()
@pytest.mark.parametrize("call", [
    lambda: diamond_upper_bound(canonical_channel(_C_ATT), 10.0, r=True),
    lambda: diamond_upper_bound(canonical_channel(_C_ATT), 10.0, r="2"),
    lambda: diamond_upper_bound(canonical_channel(_B2), 10.0, r="2"),
    lambda: diamond_upper_bound(canonical_channel(_A2), 10.0, a="1", c=0),
    lambda: diamond_upper_bound(canonical_channel(_A2), 10.0, a=1.0, c=False),
    lambda: epsilon_tp_bound(2, 10.0, canonical_channel(_C_ATT), "uniform", {"r": "2"}),
    lambda: epsilon_tp_bound(2, 10.0, canonical_channel(_A2), "uniform", {"a": None}),
    lambda: b1_witness_bound(5.0, 10.0, "1", 0),
    lambda: b1_witness_bound(5.0, 10.0, 1.0, True),
    lambda: environmental_pair(_C_ATT, 10.0, squeeze_r="2"),
    lambda: environmental_pair(_A2, 10.0, a=1j, c=0.0),
    lambda: fid_env_C(0.1, 1.0, True),
    lambda: fid_env_A2(0.1, 1.0, "1", 0.0),
    lambda: b1_gamma(True, 0.0, 0.5),
    lambda: fid_b2_asymptotic(0.1, 0.2, "2"),
], ids=["C_Att-r-bool", "C_Att-r-str", "B2-r-str", "A2-a-str", "A2-c-bool",
        "eps_tp-r-str", "eps_tp-a-None", "b1-a-str", "b1-c-bool", "env-r-str",
        "env-a-complex", "fid_env_C-r-bool", "fid_env_A2-a-str", "b1_gamma-a-bool",
        "fid_b2-r-str"])
def test_non_real_frame_rejected(call):
    with pytest.raises(DomainError, match="must be a real number"):
        call()
