"""CLI tests: config round-trips, exit codes, determinism and the scan/trace
output contracts."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoybb84 import cli
from decoybb84.config import Config, parse_config, serialize_config
from decoybb84.errors import ConfigError
from decoybb84.simulator import ChannelModel

from conftest import operating_point

KEYLENGTH_CONFIG = """
# worked example configuration
acceptance.n_z = 10000
acceptance.n_x = 10000
acceptance.s_z0 = 100
acceptance.s_z1 = 1000
acceptance.s_x1 = 1000
acceptance.lambda_u = 0.0
security.eps_cor = 1e-15
security.eps_sec_prime = 1e-9
protocol.leak_ec = 200.0
keylength.gamma_override = 0.0
"""


def render_protocol_config(params, channel, extra=None) -> str:
    intens = params.intensities
    values = {
        "protocol.mu1": repr(intens.values[0]),
        "protocol.mu2": repr(intens.values[1]),
        "protocol.p_mu1": repr(intens.probabilities[0]),
        "protocol.p_mu2": repr(intens.probabilities[1]),
        "protocol.p_z_alice": repr(params.p_z_alice),
        "protocol.p_z_bob": repr(params.p_z_bob),
        "protocol.num_signals": str(params.num_signals),
        "protocol.leak_ec": repr(params.leak_ec),
        "protocol.f_ec": repr(params.f_ec),
        "protocol.ec_success_prob": repr(params.ec_success_prob),
        "security.eps_cor": repr(params.eps_cor),
        "security.eps_sec_prime": repr(params.eps_sec_prime),
        "acceptance.n_z": str(params.acceptance.n_z),
        "acceptance.n_x": str(params.acceptance.n_x),
        "acceptance.s_z0": repr(params.acceptance.s_z0),
        "acceptance.s_z1": repr(params.acceptance.s_z1),
        "acceptance.s_x1": repr(params.acceptance.s_x1),
        "acceptance.lambda_u": repr(params.acceptance.lambda_u),
        "channel.eta": repr(channel.transmittance),
        "channel.eta_det": repr(channel.detector_efficiency),
        "channel.dark_count_prob": repr(channel.dark_count_prob),
        "channel.misalignment": repr(channel.misalignment),
    }
    if len(intens.values) == 3:
        values["protocol.mu3"] = repr(intens.values[2])
    values.update(extra or {})
    return serialize_config(values)


class TestConfigFormat:
    def test_round_trip_is_identity(self):
        parsed = parse_config(KEYLENGTH_CONFIG)
        assert parse_config(serialize_config(parsed)) == parsed

    def test_comments_and_blanks_ignored(self):
        parsed = parse_config("a.b = 1  # trailing comment\n\n# full comment\nc.d = x\n")
        assert parsed == {"a.b": "1", "c.d": "x"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(Exception):
            parse_config("a.b = 1\na.b = 2\n")

    def test_undotted_key_rejected(self):
        with pytest.raises(Exception):
            parse_config("nodots = 1\n")

    def test_loss_db_conversion(self):
        cfg = Config.from_text("channel.loss_db = 10\n")
        assert cfg.channel().transmittance == pytest.approx(0.1, rel=1e-12)

    def test_eta_and_loss_conflict(self):
        cfg = Config.from_text("channel.loss_db = 10\nchannel.eta = 0.5\n")
        with pytest.raises(Exception):
            cfg.channel()

    def test_double_click_policy_is_a_channel_field(self):
        assert Config.from_text("channel.eta = 0.5\n").channel().double_click_policy == "random"
        cfg = Config.from_text("channel.eta = 0.5\nsimulate.double_click_policy = discard\n")
        assert cfg.channel().double_click_policy == "discard"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "NaN", "Infinity"])
    def test_non_finite_number_rejected(self, value):
        cfg = Config.from_text(f"channel.eta = {value}\n")
        with pytest.raises(ConfigError, match="channel.eta"):
            cfg.get_float("channel.eta")

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.from_regex(r"[a-z_][a-z0-9_]{0,7}(\.[a-z0-9_]{1,8}){1,2}", fullmatch=True),
        st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                              blacklist_characters="#"), max_size=20).map(str.strip),
        max_size=8,
    ))
    def test_round_trip_property(self, values):
        # parse -> serialize -> parse is the identity on every parsed mapping.
        text = serialize_config(values)
        assert parse_config(text) == values
        assert serialize_config(parse_config(text)) == text


class TestErrorCorrectionDirection:
    # Reconciliation is forward by construction: the config key is accepted
    # only with that value.
    def test_reverse_rejected(self, tmp_path, capsys, simulate_config_text):
        text = simulate_config_text + "protocol.ec_direction = reverse\n"
        with pytest.raises(ConfigError, match="forward"):
            Config.from_text(text).protocol_params()
        path = tmp_path / "reverse.cfg"
        path.write_text(text)
        assert cli.main(["simulate", "--config", str(path), "--trials", "1"]) == cli.EXIT_ERROR
        assert "forward" in capsys.readouterr().err

    def test_forward_accepted(self, simulate_config_text):
        plain = Config.from_text(simulate_config_text).protocol_params()
        text = simulate_config_text + "protocol.ec_direction = forward\n"
        assert Config.from_text(text).protocol_params() == plain


class TestKeylengthCommand:
    def test_worked_example_prints_714(self, tmp_path, capsys):
        path = tmp_path / "worked.cfg"
        path.write_text(KEYLENGTH_CONFIG)
        code = cli.main(["keylength", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "key_length       714" in out
        assert "mode = simplified-1decoy" in out

    def test_two_decoy_mode_on_same_config(self, tmp_path, capsys):
        # only the budget constant changes (15 -> 17); the floored length
        # stays 714 for this configuration
        path = tmp_path / "worked.cfg"
        path.write_text(KEYLENGTH_CONFIG)
        code = cli.main(["keylength", "--config", str(path), "--mode", "2decoy"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "key_length       714" in out
        assert "mode = simplified-2decoy" in out

    def test_no_key_exit_code(self, tmp_path, capsys):
        text = KEYLENGTH_CONFIG.replace("protocol.leak_ec = 200.0", "protocol.leak_ec = 5000.0")
        path = tmp_path / "nokey.cfg"
        path.write_text(text)
        assert cli.main(["keylength", "--config", str(path)]) == cli.EXIT_NO_KEY

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("acceptance.n_z = 100\n")
        assert cli.main(["keylength", "--config", str(path)]) == cli.EXIT_ERROR
        assert "missing config key" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["keylength", "--config", "/nonexistent.cfg"]) == cli.EXIT_ERROR

    @pytest.mark.parametrize("key, value", [
        ("protocol.leak_ec", "inf"),
        ("protocol.leak_ec", "nan"),
        ("keylength.gamma_override", "nan"),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, key, value):
        # A non-finite number fails at parsing with the key named, not deep
        # in the key-length arithmetic.
        lines = [l for l in KEYLENGTH_CONFIG.splitlines() if not l.startswith(key)]
        path = tmp_path / "nonfinite.cfg"
        path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert cli.main(["keylength", "--config", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert key in err and "finite" in err
        assert "Traceback" not in err


NOISELESS = ChannelModel(transmittance=0.9, dark_count_prob=0.0, misalignment=0.0)
NOISY = ChannelModel(transmittance=0.9, dark_count_prob=1e-6, misalignment=0.005)


@pytest.fixture(scope="module")
def simulate_config_text():
    point = operating_point(NOISY, num_signals=60_000, margin=0.35, leak_margin=0.6)
    return render_protocol_config(point.params, NOISY)


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path, capsys, simulate_config_text):
        path = tmp_path / "sim.cfg"
        path.write_text(simulate_config_text)
        outputs = []
        files = []
        for i in range(2):
            out_file = tmp_path / f"records{i}.txt"
            code = cli.main([
                "simulate", "--config", str(path), "--trials", "4",
                "--seed", "7", "--out", str(out_file),
            ])
            assert code == cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
            files.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]
        assert files[0] == files[1]

    def test_noiseless_generous_acceptance_accepts_everything(self, tmp_path, capsys):
        point = operating_point(NOISELESS, num_signals=60_000, margin=0.35, leak_margin=0.6)
        path = tmp_path / "clean.cfg"
        path.write_text(render_protocol_config(point.params, NOISELESS))
        code = cli.main(["simulate", "--config", str(path), "--trials", "6", "--seed", "2"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "accept_rate = 1.000000" in out

    def test_broken_corrector_reports_correctness_line(self, tmp_path, capsys):
        point = operating_point(NOISY, num_signals=60_000, margin=0.35, leak_margin=0.6)
        path = tmp_path / "broken.cfg"
        path.write_text(
            render_protocol_config(
                point.params, NOISY, extra={"protocol.ec_success_prob": "0.0"}
            )
        )
        code = cli.main(["simulate", "--config", str(path), "--trials", "5", "--seed", "2"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        # verification almost surely fails on uncorrected keys, so no run may
        # both pass verification and deliver differing keys
        assert "ev_pass_and_keys_differ = 0.00000000" in out
        assert "accept_rate = 0.000000" in out

    def test_summary_fields_and_record_lines(self, tmp_path, capsys, simulate_config_text):
        path = tmp_path / "sim.cfg"
        path.write_text(simulate_config_text)
        out_file = tmp_path / "records.txt"
        code = cli.main([
            "simulate", "--config", str(path), "--trials", "3",
            "--seed", "1", "--out", str(out_file),
        ])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "accept_rate" in out and "ev_pass_and_keys_differ" in out
        lines = out_file.read_text().splitlines()
        json_lines = [l for l in lines if l.startswith("{")]
        assert len(json_lines) == 3
        for line in json_lines:
            payload = json.loads(line)
            assert payload["outcome"] in ("key", "abort")


class TestValidateCommand:
    def test_smoke(self, tmp_path, capsys, simulate_config_text):
        path = tmp_path / "val.cfg"
        path.write_text(simulate_config_text + "ledger.eps = 0.01\n")
        code = cli.main(["validate", "--config", str(path), "--trials", "20", "--seed", "3"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "coverage report" in out
        assert "joint" in out

    def test_unknown_policy_exits_1(self, tmp_path, capsys, simulate_config_text):
        path = tmp_path / "drop.cfg"
        path.write_text(simulate_config_text + "simulate.double_click_policy = drop\n")
        code = cli.main(["validate", "--config", str(path), "--trials", "20", "--seed", "3"])
        assert code == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert "double-click policy" in captured.err
        assert "coverage report" not in captured.out


OPTIMIZE_CONFIG = """
protocol.num_signals = 200000
protocol.f_ec = 1.16
security.eps_cor = 1e-12
security.eps_sec_prime = 1e-9
channel.eta = 0.9
channel.dark_count_prob = 1e-6
channel.misalignment = 0.005
optimizer.margin = 0.15
optimizer.block_margin = 0.12
optimizer.leak_margin = 0.3
optimizer.method = grid
space.mu1 = 0.6:0.9:3
space.mu2 = 0.25
space.p_mu1 = 0.5
space.p_z = 0.5:0.7:3
"""


class TestOptimizeCommand:
    def test_trace_and_best(self, tmp_path, capsys):
        path = tmp_path / "opt.cfg"
        path.write_text(OPTIMIZE_CONFIG)
        trace = tmp_path / "trace.csv"
        code = cli.main(["optimize", "--config", str(path), "--out", str(trace)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "best_rate" in out
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "mu1,mu2,p_mu1,p_z,key_rate"
        assert len(lines) == 1 + 9

    def test_non_finite_range_endpoint_exits_1(self, tmp_path, capsys):
        path = tmp_path / "opt.cfg"
        path.write_text(OPTIMIZE_CONFIG.replace("space.mu1 = 0.6:0.9:3", "space.mu1 = 0.5:nan:3"))
        assert cli.main(["optimize", "--config", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "space.mu1" in err


class TestScanCommand:
    def test_scan_csv_contract(self, tmp_path, capsys):
        path = tmp_path / "scan.cfg"
        path.write_text(OPTIMIZE_CONFIG + "scan.losses_db = 0,6,30\n")
        out_file = tmp_path / "scan.csv"
        code = cli.main(["scan", "--config", str(path), "--out", str(out_file)])
        assert code == cli.EXIT_OK
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == cli.SCAN_HEADER
        assert len(lines) == 4
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        # monotone non-increasing in loss; far beyond cutoff the rate is zero
        assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))
        assert rates[0] == max(rates)
        assert rates[-1] == 0.0
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_non_monotone_grid_rejected(self, tmp_path, capsys):
        path = tmp_path / "scan.cfg"
        path.write_text(OPTIMIZE_CONFIG + "scan.losses_db = 5,1\n")
        assert cli.main(["scan", "--config", str(path)]) == cli.EXIT_ERROR

    def test_non_finite_loss_exits_1(self, tmp_path, capsys):
        path = tmp_path / "scan.cfg"
        path.write_text(OPTIMIZE_CONFIG + "scan.losses_db = 0,nan,30\n")
        assert cli.main(["scan", "--config", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "scan.losses_db" in err
