import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bosonic_telesim.cli import main

LOSS = '{"class": "C_Att", "tau": 0.5, "nbar": 0.0}'
IDENTITY = '{"t": [[1.0, 0.0], [0.0, 1.0]], "n": [[0.0, 0.0], [0.0, 0.0]], "d": [0.0, 0.0]}'
VACUUM = '{"mean": [0.0, 0.0], "cm": [[1.0, 0.0], [0.0, 1.0]]}'
THERMAL3 = '{"mean": [0.0, 0.0], "cm": [[3.0, 0.0], [0.0, 3.0]]}'


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

    def test_tolerance_changes_per_use_delta(self, capsys, monkeypatch):
        # sqrt(1 - 1e-7) I is an attenuator by default and the additive class
        # once the boundary is loosened past 1e-7; peel must follow the switch
        from bosonic_telesim import GaussianChannel, Tolerances, diamond_upper_bound
        t = np.sqrt(1.0 - 1e-7)
        spec = json.dumps({"t": [[t, 0.0], [0.0, t]], "n": [[0.1, 0.0], [0.0, 0.1]]})
        ch = GaussianChannel(t * np.eye(2), 0.1 * np.eye(2))
        argv = ("peel", "--n", "1", "--channel", spec, "--mu", "10")
        _, out, _ = run(capsys, *argv)
        default = json.loads(out)["per_use_delta"]
        assert default == diamond_upper_bound(ch, 10.0)
        assert default == pytest.approx(0.667534, abs=1e-6)
        loose = diamond_upper_bound(ch, 10.0, tol=Tolerances.uniform(1e-6))
        assert loose == pytest.approx(0.667782, abs=1e-6)
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

    def test_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "bosonic_telesim.cli",
                               "classify", "--channel", LOSS],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["class"] == "C_Att"

    def test_seventeen_digit_roundtrip(self, capsys):
        _, out, _ = run(capsys, "simulate", "--channel", LOSS, "--mu", "3.0000001")
        record = json.loads(out)
        from bosonic_telesim import bk_added_noise
        assert record["xi"] == bk_added_noise(3.0000001)
