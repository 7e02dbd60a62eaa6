import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import fidelity_mp, raw_channel_specs, raw_state_specs
from bosonic_telesim import tmsv_state
from bosonic_telesim.cli import main

LOSS = '{"class": "C_Att", "tau": 0.5, "nbar": 0.0}'
IDENTITY = '{"t": [[1.0, 0.0], [0.0, 1.0]], "n": [[0.0, 0.0], [0.0, 0.0]], "d": [0.0, 0.0]}'
VACUUM = '{"mean": [0.0, 0.0], "cm": [[1.0, 0.0], [0.0, 1.0]]}'
THERMAL3 = '{"mean": [0.0, 0.0], "cm": [[3.0, 0.0], [0.0, 3.0]]}'
# delta^T (V1 + V2)^-1 delta is inf - inf = NaN in float64 for this pair
_CM = [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]]
_FAR = (json.dumps({"mean": [9.5e15, 0.0, 1.7e308, 8.0], "cm": _CM}),
        json.dumps({"mean": [0.0] * 4, "cm": _CM}))
TMSV2 = json.dumps({"mean": [0.0] * 4, "cm": tmsv_state(2.0).cm.tolist()})
# accepted within the physicality slack of its scale, but V + vacuum is
# indefinite: det((V1 + V2) / 2) = -6.25e306
_INDEFINITE_SUM = {"mean": [0.0, 0.0], "cm": [[0.0, 5e153], [5e153, 1e166]]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_loss_channel(self, capsys):
        code, out, _ = run(capsys, "classify", "--channel", LOSS)
        assert code == 0
        record = json.loads(out)
        assert record["class"] == "C_Att"
        assert record["tau"] == pytest.approx(0.5, abs=1e-12)
        assert record["r"] == 2
        assert record["noise_param"] == 0.0
        assert record["uniform_convergence"] is True

    def test_identity_not_uniform(self, capsys):
        code, out, _ = run(capsys, "classify", "--channel", IDENTITY)
        assert code == 0
        assert json.loads(out)["uniform_convergence"] is False

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "classify", "--channel", '{"t": [[1,')
        assert code == 2
        assert "error" in err

    def test_huge_noise_matrix(self, capsys):
        code, out, _ = run(capsys, "classify", "--channel", '{"class": "A2", "nbar": 7e307}')
        assert code == 0
        record = json.loads(out)
        assert (record["class"], record["r"]) == ("A2", 1)
        assert abs(record["noise_param"] - 7e307) <= 4 * math.ulp(7e307)

    @pytest.mark.parametrize("entry", ["1e308", "9e307"])
    def test_rank_one_noise_beyond_float64_range(self, capsys, entry):
        n = f"[[{entry}, {entry}], [{entry}, {entry}]]"
        code, out, _ = run(capsys, "classify", "--channel",
                           '{"t": [[1, 0], [0, 1]], "n": %s}' % n)
        assert code == 0
        assert json.loads(out) == {"class": "B1", "tau": 1.0, "r": 1, "noise_param": 0.0,
                                   "uniform_convergence": False}

    def test_unknown_spec_key(self, capsys):
        code, _, err = run(capsys, "classify", "--channel", '{"class": "B2", "foo": 1}')
        assert code == 2

    @pytest.mark.parametrize("spec", ['{"class": "C_Att", "tau": 0.5, "nbar": NaN}',
                                      '{"class": "B2", "xi": Infinity}'])
    def test_non_finite_json_rejected(self, capsys, spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "classify", "--channel", spec)
        assert code == 2
        assert out == ""
        assert "non-finite" in err
        assert caught == []


class TestApplyAndSimulate:
    def test_apply_loss_to_thermal(self, capsys):
        code, out, _ = run(capsys, "apply", "--channel", LOSS, "--state", THERMAL3)
        assert code == 0
        state = json.loads(out)
        assert np.allclose(state["cm"], 2.0 * np.eye(2))

    def test_simulate_roundtrip_bit_identical(self, capsys):
        from bosonic_telesim import channel_from_dict, classify, simulate_channel
        code, out, _ = run(capsys, "simulate", "--channel", LOSS, "--mu", "3.0")
        assert code == 0
        record = json.loads(out)
        # the emitted channel re-parses to the bit-identical (T, N, d)
        reparsed = channel_from_dict(record["effective"])
        direct = simulate_channel(channel_from_dict(json.loads(LOSS)), 3.0).effective
        assert np.array_equal(reparsed.t, direct.t)
        assert np.array_equal(reparsed.n, direct.n)
        assert np.array_equal(reparsed.d, direct.d)
        assert classify(reparsed).tag.value == "C_Att"  # same T, inflated noise
        # and re-emission is byte-identical
        code3, out3, _ = run(capsys, "simulate", "--channel", LOSS, "--mu", "3.0")
        assert out3 == out

    def test_apply_to_two_mode_state_below_bona_fide(self, capsys):
        # nu = 1 - 1e-6 on mode 1: rejected at construction, nothing on stdout
        cm = np.diag([1.0, 1.0, 1.0 - 1e-6, 1.0 - 1e-6]).tolist()
        state = json.dumps({"mean": [0.0] * 4, "cm": cm})
        code, out, err = run(capsys, "apply", "--channel", LOSS, "--state", state, "--mode", "1")
        assert (code, out) == (2, "")
        assert "unphysical" in err

    def test_simulate_infinite_mu_rejected(self, capsys):
        code, out, err = run(capsys, "simulate", "--channel", LOSS, "--mu", "inf")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_simulate_noise_shift(self, capsys):
        _, out, _ = run(capsys, "simulate", "--channel", IDENTITY, "--mu", "1.25")
        record = json.loads(out)
        assert record["xi"] == 1.0
        assert np.allclose(record["effective"]["n"], np.eye(2))


class TestFidelity:
    def test_identical_states(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--state1", VACUUM, "--state2", VACUUM)
        assert code == 0
        record = json.loads(out)
        assert record["fidelity"] == 1.0
        assert record["trace_lower"] == 0.0
        assert record["trace_upper"] == 0.0

    def test_vacuum_vs_thermal(self, capsys):
        _, out, _ = run(capsys, "fidelity", "--state1", VACUUM, "--state2", THERMAL3)
        assert json.loads(out)["fidelity"] == pytest.approx(0.70711, abs=1e-5)

    def test_mode_mismatch(self, capsys):
        four = json.dumps({"mean": [0.0] * 4, "cm": np.eye(4).tolist()})
        code, _, err = run(capsys, "fidelity", "--state1", VACUUM, "--state2", four)
        assert code == 2

    def test_invalid_state(self, capsys):
        bad = '{"mean": [0.0, 0.0], "cm": [[0.5, 0.0], [0.0, 0.5]]}'
        code, _, _ = run(capsys, "fidelity", "--state1", VACUUM, "--state2", bad)
        assert code == 2

    def test_out_of_range_number_rejected(self, capsys):
        huge = '{"mean": [0, 0], "cm": [[1e400, 0], [0, 1]]}'
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "fidelity", "--state1", huge, "--state2", VACUUM)
        assert code == 2
        assert out == ""
        assert "non-finite" in err
        assert caught == []

    def test_state_singular_to_roundoff_is_unsupported(self, capsys):
        # the float64 TMSV is pure, so the overlap route meets det <= 0 against
        # another TMSV; against itself it is exactly 1
        for mu in (1e8, 1e10, 1e12):
            spec, other = (json.dumps({"mean": s.mean.tolist(), "cm": s.cm.tolist()})
                           for s in (tmsv_state(mu), tmsv_state(2.0 * mu)))
            code, out, err = run(capsys, "fidelity", "--state1", spec, "--state2", other)
            assert (code, out) == (3, "")
            assert "float64" in err
            code, out, _ = run(capsys, "fidelity", "--state1", spec, "--state2", spec)
            assert (code, json.loads(out)["fidelity"]) == (0, 1.0)

    def test_far_apart_means(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--state1", _FAR[0], "--state2", _FAR[1])
        assert code == 0
        assert json.loads(out)["fidelity"] == 0.0

    def test_indefinite_sum_is_unsupported(self, capsys):
        code, out, err = run(capsys, "fidelity", "--state1", VACUUM,
                             "--state2", json.dumps(_INDEFINITE_SUM))
        assert (code, out) == (3, "")
        assert "det((V1 + V2) / 2) = -6.25e+306 is not positive" in err

    @pytest.mark.parametrize("scales", [(1e100, 3e100), (1.0, 1e200), (1e200, 2e200)])
    def test_two_modes_beyond_float64_range(self, capsys, scales):
        specs = [json.dumps({"mean": [0.0] * 4, "cm": (s * np.eye(4)).tolist()})
                 for s in scales]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "fidelity", "--state1", specs[0], "--state2", specs[1])
        assert (code, out) == (2, "")
        assert "beyond float64 range" in err
        assert caught == []

    def test_two_mode_mixed_pair(self, capsys):
        # C_Att on mode 1 of TMSV(2), directly and through its mu = 10
        # simulation: both outputs certify mixed, so no spectral purity pass runs
        att = '{"class": "C_Att", "tau": 0.5, "nbar": 0.5}'
        _, eff, _ = run(capsys, "simulate", "--channel", att, "--mu", "10")
        states = []
        for channel in (att, json.dumps(json.loads(eff)["effective"])):
            code, out, _ = run(capsys, "apply", "--channel", channel, "--state", TMSV2,
                               "--mode", "1")
            assert code == 0
            states.append(out)
        code, out, _ = run(capsys, "fidelity", "--state1", states[0], "--state2", states[1])
        assert code == 0
        want = fidelity_mp(*(json.loads(st)["cm"] for st in states), dps=60)
        assert abs(json.loads(out)["fidelity"] - want) <= 1e-12

    def test_two_mode_pure_self_fidelity(self, capsys):
        # the overlap route: 1 / sqrt(det V) of the float64 TMSV(2), whose LU det
        # is 1 + 9e-16
        code, out, _ = run(capsys, "fidelity", "--state1", TMSV2, "--state2", TMSV2)
        assert code == 0
        assert abs(json.loads(out)["fidelity"] - 1.0) <= 4.0 * np.finfo(float).eps

    def test_integer_beyond_float_range_rejected(self, capsys):
        huge = '{"mean": [0, 0], "cm": [[1%s, 0], [0, 1]]}' % ("0" * 400)
        code, out, err = run(capsys, "fidelity", "--state1", huge, "--state2", VACUUM)
        assert (code, out) == (2, "")
        assert "beyond float range" in err


class TestConvergence:
    def test_bound_scan_csv(self, capsys):
        config = json.dumps({
            "channel": {"class": "C_Att", "tau": 0.5, "nbar": 0.0},
            "grid": {"param": "mu", "start": 1.1, "stop": 1e4, "points": 8, "log": True},
        })
        code, out, _ = run(capsys, "convergence", "--config", config)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,mu_tilde,xi,upper_bound,witness_lower_bound"
        bounds = [float(line.split(",")[3]) for line in lines[1:]]
        assert bounds == sorted(bounds, reverse=True)

    def test_witness_scan_approaches_two(self, capsys):
        config = json.dumps({
            "channel": {"class": "B2_Id"},
            "grid": {"param": "mu_tilde", "start": 1.0, "stop": 1e6,
                     "points": 6, "log": True},
            "witness": {"mu": 5.0},
        })
        code, out, _ = run(capsys, "convergence", "--config", config)
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[4]) >= 1.99

    def test_determinism(self, capsys):
        config = json.dumps({
            "channel": {"class": "C_Amp", "tau": 2.0, "nbar": 0.5},
            "grid": {"param": "mu", "start": 2.0, "stop": 100.0, "points": 5, "log": True},
        })
        _, out1, _ = run(capsys, "convergence", "--config", config)
        _, out2, _ = run(capsys, "convergence", "--config", config)
        assert out1 == out2

    def test_zero_points_rejected(self, capsys):
        config = json.dumps({
            "channel": {"class": "C_Att", "tau": 0.5, "nbar": 0.0},
            "grid": {"param": "mu", "start": 1.1, "stop": 10.0, "points": 0},
        })
        code, _, err = run(capsys, "convergence", "--config", config)
        assert code == 2

    @pytest.mark.parametrize("points", [10 ** 7, 10 ** 300], ids=["1e7", "1e300"])
    def test_points_beyond_maximum_rejected(self, capsys, points):
        config = json.dumps({
            "channel": {"class": "C_Att", "tau": 0.5, "nbar": 0.0},
            "grid": {"param": "mu", "start": 1.1, "stop": 10.0, "points": points},
        })
        code, out, err = run(capsys, "convergence", "--config", config)
        assert (code, out) == (2, "")
        assert "grid points" in err

    def test_unknown_config_key_rejected(self, capsys):
        config = json.dumps({
            "channel": {"class": "C_Att", "tau": 0.5, "nbar": 0.0},
            "grid": {"param": "mu", "start": 1.1, "stop": 10.0, "points": 3},
            "plot": True,
        })
        code, _, _ = run(capsys, "convergence", "--config", config)
        assert code == 2

    def test_log_grid_requires_positive(self, capsys):
        config = json.dumps({
            "channel": {"class": "C_Att", "tau": 0.5, "nbar": 0.0},
            "grid": {"param": "mu", "start": -1.0, "stop": 10.0, "points": 3, "log": True},
        })
        code, _, _ = run(capsys, "convergence", "--config", config)
        assert code == 2

    def test_wrong_param_for_channel(self, capsys):
        config = json.dumps({
            "channel": {"class": "B2_Id"},
            "grid": {"param": "mu", "start": 1.1, "stop": 10.0, "points": 3},
        })
        code, _, _ = run(capsys, "convergence", "--config", config)
        assert code == 2

    def test_witness_row_overflow_rejected(self, capsys):
        config = json.dumps({
            "channel": {"class": "B1"},
            "grid": {"param": "mu_tilde", "start": 1.0, "stop": 1e6, "points": 3},
            "witness": {"mu": 5.0, "a": 1e-200, "c": 0.5},
        })
        code, out, err = run(capsys, "convergence", "--config", config)
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("channel, grid, witness", [
        ({"class": "B1"}, {"start": 1.0}, {"mu": 5, "a": "x"}),
        ({"class": "B2_Id"}, {"start": 1.0}, {"mu": "x"}),
        ({"class": "C_Att", "tau": 0.5, "nbar": 0.0}, {"start": "x"}, {}),
        ({"class": "C_Att", "tau": 0.5, "nbar": 0.0}, {"start": 1.1}, {"r": "x"}),
        ({"class": "C_Att", "tau": 0.5, "nbar": 0.0}, {"start": True}, {}),
        ({"class": "C_Att", "tau": 0.5, "nbar": 0.0}, {"start": 10 ** 400}, {}),
    ])
    def test_non_numeric_field_rejected(self, capsys, channel, grid, witness):
        param = "mu" if channel["class"] == "C_Att" else "mu_tilde"
        config = json.dumps({
            "channel": channel, "witness": witness,
            "grid": dict(grid, param=param, stop=10.0, points=3)})
        code, out, err = run(capsys, "convergence", "--config", config)
        assert code == 2
        assert out == ""
        assert "must be a finite number" in err or "beyond float range" in err

    def test_csv_floats_roundtrip(self, capsys):
        from bosonic_telesim import channel_from_dict, convergence_scan
        spec = {"class": "C_Amp", "tau": 2.0, "nbar": 0.3}
        config = json.dumps({
            "channel": spec,
            "grid": {"param": "mu", "start": 1.1, "stop": 1e9, "points": 7, "log": True},
        })
        _, out, _ = run(capsys, "convergence", "--config", config)
        rows = convergence_scan(channel_from_dict(spec), np.geomspace(1.1, 1e9, 7))
        for line, row in zip(out.strip().splitlines()[1:], rows):
            mu, _, xi, bound, _ = line.split(",")
            assert (float(mu), float(xi), float(bound)) == (row.mu, row.xi, row.upper_bound)

    def test_json_output_to_file(self, capsys, tmp_path):
        path = tmp_path / "scan.json"
        config = json.dumps({
            "channel": {"class": "C_Att", "tau": 0.5, "nbar": 0.0},
            "grid": {"param": "mu", "start": 2.0, "stop": 10.0, "points": 3},
            "output": {"format": "json", "path": str(path)},
        })
        code, out, _ = run(capsys, "convergence", "--config", config)
        assert code == 0
        rows = json.loads(path.read_text())
        assert len(rows) == 3 and rows[0]["upper_bound"] > rows[-1]["upper_bound"]


class TestPeel:
    def test_explicit_delta(self, capsys):
        code, out, _ = run(capsys, "peel", "--n", "3", "--delta", "0.1")
        assert code == 0
        record = json.loads(out)
        assert record["total"] == pytest.approx(0.3)
        assert record["epsilon_tp"] == pytest.approx(0.15)

    def test_from_channel(self, capsys):
        code, out, _ = run(capsys, "peel", "--n", "2", "--channel", LOSS, "--mu", "100")
        assert code == 0
        assert json.loads(out)["per_use_delta"] > 0.0

    def test_missing_arguments(self, capsys):
        code, _, _ = run(capsys, "peel", "--n", "2")
        assert code == 2

    def test_identity_under_uniform(self, capsys):
        code, _, _ = run(capsys, "peel", "--n", "2", "--channel", IDENTITY,
                         "--mu", "10")
        assert code == 3

    def test_topology_choices_are_the_library_ones(self, capsys):
        from bosonic_telesim import TOPOLOGIES
        for topology in TOPOLOGIES:
            code, out, _ = run(capsys, "peel", "--n", "2", "--delta", "0.1",
                               "--topology", topology)
            assert code == 0 and json.loads(out)["total"] == pytest.approx(0.2)
        with pytest.raises(SystemExit) as info:
            main(["peel", "--n", "2", "--delta", "0.1", "--topology", "weak"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'weak'" in err
        assert all(topology in err for topology in TOPOLOGIES)

    def test_tolerance_changes_per_use_delta(self, capsys, monkeypatch):
        # sqrt(1 - 1e-7) I is an attenuator by default and the additive class
        # once the boundary is loosened past 1e-7; peel must follow the switch
        from bosonic_telesim import GaussianChannel, diamond_upper_bound
        t = np.sqrt(1.0 - 1e-7)
        spec = json.dumps({"t": [[t, 0.0], [0.0, t]], "n": [[0.1, 0.0], [0.0, 0.1]]})
        ch = GaussianChannel(t * np.eye(2), 0.1 * np.eye(2))
        argv = ("peel", "--n", "1", "--channel", spec, "--mu", "10")
        _, out, _ = run(capsys, *argv)
        default = json.loads(out)["per_use_delta"]
        # 60-digit values of the two bounds of this channel: the C_Att one is
        # 4.4e-8 below the B2 one, so each is pinned to 1e-12 relative
        assert default == diamond_upper_bound(ch, 10.0)
        assert default == pytest.approx(0.66778238933479016, rel=1e-12)
        loose = diamond_upper_bound(ch, 10.0, tol=1e-6)
        assert loose == pytest.approx(0.66778243381619934, rel=1e-12)
        assert loose != default
        _, out, _ = run(capsys, *argv, "--tol", "1e-6")
        assert json.loads(out)["per_use_delta"] == loose
        monkeypatch.setenv("BOSONIC_TELESIM_TOL", "1e-6")
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["per_use_delta"] == loose


class TestCapacity:
    def test_pure_loss_quick_path(self, capsys):
        code, out, _ = run(capsys, "capacity", "--channel", LOSS, "--n", "100",
                           "--eps", "0.1", "--mu", "1e8")
        assert code == 0
        record = json.loads(out)
        assert record["inputs"]["phi"] == pytest.approx(1.0)
        assert record["value"] > 1.0

    def test_measure_and_prepare_unsupported(self, capsys):
        code, _, err = run(capsys, "capacity", "--channel",
                           '{"class": "A1", "nbar": 0.0}', "--n", "10",
                           "--eps", "0.1", "--mu", "10")
        assert code == 3

    def test_large_eps_finite(self, capsys):
        code, out, _ = run(capsys, "capacity", "--channel", LOSS, "--n", "100",
                           "--eps", "0.99", "--mu", "1e14")
        assert code == 0
        record = json.loads(out)
        assert not record["unbounded"]
        assert record["inputs"]["c_eps"] > 10.0  # large finite-size term
        assert record["value"] > record["inputs"]["phi"]

    def test_tolerance_reaches_eps_tp(self, capsys):
        t = np.sqrt(1.0 - 1e-7)
        spec = json.dumps({"t": [[t, 0.0], [0.0, t]], "n": [[0.1, 0.0], [0.0, 0.1]]})
        argv = ("capacity", "--channel", spec, "--n", "10", "--eps", "0.1",
                "--mu", "1e6", "--tol", "1e-6")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        inputs = json.loads(out)["inputs"]
        assert inputs["class"] == "B2"
        assert inputs["eps_tp"] == pytest.approx(4.99997500012632e-05, rel=1e-12)


class TestInfrastructure:
    def test_file_inputs(self, capsys, tmp_path):
        path = tmp_path / "channel.json"
        path.write_text(LOSS)
        code, out, _ = run(capsys, "classify", "--channel", str(path))
        assert code == 0
        code, out, _ = run(capsys, "classify", "--channel", "@" + str(path))
        assert code == 0

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BOSONIC_TELESIM_TOL", "not-a-number")
        code, _, _ = run(capsys, "classify", "--channel", LOSS)
        assert code == 2
        monkeypatch.setenv("BOSONIC_TELESIM_TOL", "1e-8")
        code, _, _ = run(capsys, "classify", "--channel", LOSS)
        assert code == 0

    def test_tolerance_changes_boundary_decision(self, capsys, monkeypatch):
        # tau = 1 - 1e-7 is an attenuator at the default boundary (1e-9) but
        # snaps to the additive class once the boundary is loosened past 1e-7
        tau = 1.0 - 1e-7
        near_identity = json.dumps({
            "t": [[np.sqrt(tau), 0.0], [0.0, np.sqrt(tau)]],
            "n": [[0.1, 0.0], [0.0, 0.1]], "d": [0.0, 0.0]})
        _, out, _ = run(capsys, "classify", "--channel", near_identity)
        assert json.loads(out)["class"] == "C_Att"
        _, out, _ = run(capsys, "classify", "--channel", near_identity,
                        "--tol", "1e-5")
        assert json.loads(out)["class"] == "B2"
        # the flag wins over the environment
        monkeypatch.setenv("BOSONIC_TELESIM_TOL", "1e-5")
        _, out, _ = run(capsys, "classify", "--channel", near_identity,
                        "--tol", "1e-12")
        assert json.loads(out)["class"] == "C_Att"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_tolerance_rejected(self, capsys, monkeypatch, tol):
        code, out, _ = run(capsys, "classify", "--channel", LOSS, "--tol", tol)
        assert (code, out) == (2, "")
        monkeypatch.setenv("BOSONIC_TELESIM_TOL", tol)
        code, out, _ = run(capsys, "classify", "--channel", LOSS)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("argv", [
        ("apply", "--channel", LOSS, "--state", VACUUM),
        ("simulate", "--channel", LOSS, "--mu", "10"),
        ("fidelity", "--state1", VACUUM, "--state2", VACUUM),
    ])
    def test_tol_only_where_used(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e-6"])
        assert exc.value.code == 2

    def test_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "bosonic_telesim.cli",
                               "classify", "--channel", LOSS],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["class"] == "C_Att"

    def test_import_leaves_mpmath_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bosonic_telesim.cli; print('mpmath' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bosonic_telesim.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_non_finite_result_rejected(self):
        # V = inf makes the clean bound infinite; JSON has no infinity
        proc = subprocess.run(
            [sys.executable, "-m", "bosonic_telesim.cli", "capacity", "--channel", LOSS,
             "--n", "10", "--eps", "0.1", "--mu", "10", "--V", "inf"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and "error" in proc.stderr

    def test_seventeen_digit_roundtrip(self, capsys):
        _, out, _ = run(capsys, "simulate", "--channel", LOSS, "--mu", "3.0000001")
        record = json.loads(out)
        from bosonic_telesim import bk_added_noise
        assert record["xi"] == bk_added_noise(3.0000001)


def _numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for x in obj:
            yield from _numbers(x)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


# a resource mu: valid, below 1, negative, huge, tiny or not finite
_MU = st.one_of(st.floats(1.0, 1e12), st.floats(),
                st.sampled_from([1.0, 0.5, -1.0, 1e300, 1.7e308, 5e-324]))


class TestRawChannelFuzz:
    @given(raw_channel_specs, st.sampled_from(["classify", "apply", "simulate"]), _MU)
    @settings(max_examples=400, deadline=None)
    def test_exit_code_and_finite_output(self, spec, command, mu):
        argv = [command, "--channel", json.dumps(spec)]
        if command == "apply":
            argv += ["--state", THERMAL3]
        if command == "simulate":
            argv.append(f"--mu={mu!r}")  # a bare negative value would read as a flag
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)  # an exception here is a traceback
        assert code in (0, 2, 3)
        if code == 0:
            record = json.loads(out.getvalue(), parse_constant=float)
            assert all(math.isfinite(x) for x in _numbers(record))
        else:
            assert out.getvalue() == "" and "error" in err.getvalue()


_CLASS_SPECS = [
    {"class": "C_Att", "tau": 0.5, "nbar": 0.0}, {"class": "C_Amp", "tau": 2.0, "nbar": 1.0},
    {"class": "A2", "nbar": 0.5}, {"class": "B2", "xi": 0.5},
    {"class": "B1"}, {"class": "B2_Id"}, json.loads(IDENTITY)]


@st.composite
def _endpoint(draw):
    """Mostly valid (1 to 1e300), else any finite float, huge, tiny,
    negative or not a number at all."""
    if draw(st.integers(0, 3)):
        return draw(st.floats(1.0, draw(st.sampled_from([1e12, 1e300]))))
    return draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, 0.5, -1.0, 1.7e308, -1.7e308, 5e-324,
                                           "x", None, True, 10 ** 400])))


@st.composite
def scan_configs(draw):
    """Scan configs over full-rank and rank-deficient channels (a quarter of
    them raw specs), mostly with the grid param that fits the channel, with
    endpoints drawn independently (so inverted too); up to 10^4 points where
    the scan is a witness column, 64 where it may not be."""
    if draw(st.integers(0, 3)):
        channel = draw(st.sampled_from(_CLASS_SPECS))
    else:
        channel = draw(raw_channel_specs)
    witness_scan = channel.get("class") in ("B1", "B2_Id") or channel == _CLASS_SPECS[-1]
    fits, other = ("mu_tilde", "mu") if witness_scan else ("mu", "mu_tilde")
    grid = {"param": draw(st.sampled_from([fits, fits, fits, other])),
            "start": draw(_endpoint()), "stop": draw(_endpoint()),
            "points": draw(st.integers(1, 10 ** 4 if witness_scan else 64)),
            "log": draw(st.booleans())}
    witness = {key: draw(_endpoint()) for key in ("mu", "a", "c", "r")
               if draw(st.integers(0, 3)) == 0}
    output = {"format": draw(st.sampled_from(["csv", "json"]))}
    return {"channel": channel, "grid": grid, "witness": witness, "output": output}


class TestConvergenceFuzz:
    @given(scan_configs())
    @example({"channel": _CLASS_SPECS[0],  # r * r in fid_env_C overflows: exit 2
              "grid": {"param": "mu", "start": 2.0, "stop": 10.0, "points": 3},
              "witness": {"r": 1.3407807929942597e154}, "output": {"format": "csv"}})
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_finite_output(self, config):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["convergence", "--config", json.dumps(config)])
        assert code in (0, 2, 3)
        if code != 0:
            assert out.getvalue() == "" and "error" in err.getvalue()
        elif config["output"]["format"] == "json":
            records = json.loads(out.getvalue(), parse_constant=float)
            assert len(records) == config["grid"]["points"]
            assert all(math.isfinite(x) for x in _numbers(records))
        else:
            lines = out.getvalue().splitlines()
            assert len(lines) == config["grid"]["points"] + 1
            assert all(math.isfinite(float(x)) for line in lines[1:]
                       for x in line.split(",") if x)


_BAD_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 400).map(str),
    st.sampled_from(["1e400", "-1e400", "nan", "inf", "-inf", "x", "", "0x10", "1" * 400]))


def _number_arg(valid):
    """A command-line number: seven in eight drawn from ``valid``, else any
    finite float or integer, one beyond float range, NaN or infinity, or not a
    number at all."""
    return st.integers(0, 7).flatmap(lambda k: valid.map(repr) if k else _BAD_NUMBER)


_COUNTS = _number_arg(st.integers(1, 10 ** 6))
_SPECS = st.integers(0, 3).flatmap(
    lambda k: st.sampled_from(_CLASS_SPECS) if k else raw_channel_specs).map(json.dumps)
_TOLS = st.one_of(st.just([]), _number_arg(st.floats(1e-14, 1e-3)).map(lambda t: ["--tol", t]))


def _run_cli(argv):
    """Run ``main(argv)`` with warnings raised as errors: it must exit 0 with
    finite JSON, or 2 or 3 with an error and no output.  An argparse rejection
    counts by its exit code; any other exception is a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3)
    if code == 0:
        record = json.loads(out.getvalue(), parse_constant=float)
        assert all(math.isfinite(x) for x in _numbers(record))
    else:
        assert out.getvalue() == "" and err.getvalue()


class TestPeelAndCapacityFuzz:
    @given(_COUNTS, st.sampled_from(["bounded_uniform", "uniform", "strong"]),
           st.one_of(st.none(), _number_arg(st.floats(0.0, 2.0))),
           st.one_of(st.none(), _SPECS), st.one_of(st.none(), _number_arg(st.floats(1.0, 1e12))),
           _TOLS)
    @example("3", "uniform", None, LOSS, "1e400", [])
    @example(str(10 ** 300), "strong", "2.0", None, None, [])
    @settings(max_examples=300, deadline=None)
    def test_peel(self, n, topology, delta, channel, mu, tol):
        argv = ["peel", "--n", n, "--topology", topology] + tol
        for flag, value in (("--delta", delta), ("--channel", channel), ("--mu", mu)):
            if value is not None:
                argv += [flag, value]
        _run_cli(argv)

    @given(_SPECS, _COUNTS, _number_arg(st.floats(1e-6, 0.999)),
           _number_arg(st.floats(1.0, 1e12)),
           st.one_of(st.none(), _number_arg(st.floats(0.0, 10.0))), _TOLS)
    @example(LOSS, "100", "0.1", "1e400", None, [])
    @example(LOSS, "100", "0.1", "1e8", "nan", [])
    @example(LOSS, str(10 ** 300), "0.1", "10.0", None, [])
    @settings(max_examples=300, deadline=None)
    def test_capacity(self, channel, n, eps, mu, v, tol):
        argv = ["capacity", "--channel", channel, "--n", n, "--eps", eps, "--mu", mu] + tol
        if v is not None:
            argv += ["--V", v]
        _run_cli(argv)


@st.composite
def _state_pairs(draw):
    """Two state specs of one or two modes; one pair in eight differs in modes."""
    modes = draw(st.integers(1, 2))
    other = 3 - modes if draw(st.integers(0, 7)) == 0 else modes
    return draw(raw_state_specs(modes)), draw(raw_state_specs(other))


class TestFidelityFuzz:
    @given(_state_pairs())
    @example(tuple(json.loads(s) for s in _FAR))
    @example((json.loads(VACUUM), _INDEFINITE_SUM))
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_finite_output(self, pair):
        _run_cli(["fidelity", "--state1", json.dumps(pair[0]),
                  "--state2", json.dumps(pair[1])])
