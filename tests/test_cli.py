"""Command-line interface: flags, config files, CSV contract, exits.

Each invocation goes through main() with a real argv list; CSV output is
read back and checked against the documented column order, the %.6g
float format, and byte-for-byte determinism across --jobs levels.
"""

import argparse
import csv
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import cli, netsim
from qkdsim.adversary import InterceptResend, NoAttack, PhotonNumberSplit
from qkdsim.cli import (CONFIG, CSV_COLUMNS, DEFAULTS, EXIT_ABORT_QBER,
                        EXIT_ABORT_RECONCILIATION,
                        EXIT_INSUFFICIENT_LINK_KEY, EXIT_OK, EXIT_USAGE,
                        PARAM_RULES, SCENARIO, ConfigError, _fmt, _validate,
                        _write_csv, exit_code_for, load_config_file,
                        load_scenario, main, merge_params,
                        parse_attack_model, parse_eve)
from qkdsim.netsim import StubKeySource
from qkdsim.photonics import (MAX_MU, DetectorPair, FiberChannel,
                              SourceModel)
from qkdsim.postprocess import (AttackModel, CorrectionResult,
                                ReconciliationFailure)
from qkdsim.protocol import MAX_PULSES, SessionConfig, SessionOutcome
from qkdsim.rng import RandomSource

FAST_RUN = ["--pulses", "20000", "--distance-km", "0", "--efficiency", "1.0",
            "--dark", "0", "--flip", "0", "--mu", "0.5", "--seed", "7"]


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_session(config):
    raise AssertionError("a session ran")


class TestParsing:
    def test_parse_eve_variants(self):
        assert parse_eve("none") == NoAttack()
        assert parse_eve("pns") == PhotonNumberSplit()
        assert parse_eve("intercept") == InterceptResend(1.0)
        assert parse_eve("intercept:0.25") == InterceptResend(0.25)

    def test_parse_eve_errors(self):
        with pytest.raises(ConfigError):
            parse_eve("mitm")
        with pytest.raises(ConfigError):
            parse_eve("intercept:lots")
        with pytest.raises(ConfigError):
            parse_eve("intercept:1.5")

    def test_parse_attack_model(self):
        assert parse_attack_model("coherent") == AttackModel.COHERENT
        assert parse_attack_model("INDIVIDUAL") == AttackModel.INDIVIDUAL
        with pytest.raises(ConfigError):
            parse_attack_model("quantum")

    def test_exit_code_mapping(self):
        assert exit_code_for(SessionOutcome.SUCCESS) == EXIT_OK == 0
        assert exit_code_for(SessionOutcome.ABORT_QBER) \
            == EXIT_ABORT_QBER == 2
        assert exit_code_for(SessionOutcome.ABORT_RECONCILIATION) \
            == EXIT_ABORT_RECONCILIATION == 3
        assert EXIT_USAGE == 1
        assert EXIT_INSUFFICIENT_LINK_KEY == 4

    def test_fmt_six_significant_digits(self):
        assert _fmt(0.123456789) == "0.123457"
        assert _fmt(0.5) == "0.5"
        assert _fmt(42) == "42"
        assert _fmt(float("nan")) == "nan"


class TestConfigFiles:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pulses": 10, "lasers": 2}))
        with pytest.raises(ConfigError) as exc_info:
            load_config_file(str(path))
        assert "lasers" in str(exc_info.value)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "pulses": 10,\n}')
        with pytest.raises(ConfigError) as exc_info:
            load_config_file(str(path))
        assert "line 3" in str(exc_info.value)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_bad_sweep_axis_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"sweep": {"wavelength": [1, 2]}}))
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/qkd.json")

    def test_config_dir_resolution(self, tmp_path, monkeypatch):
        (tmp_path / "site.json").write_text(json.dumps({"pulses": 123}))
        monkeypatch.setenv("QKDSIM_CONFIG_DIR", str(tmp_path))
        assert load_config_file("site.json")["pulses"] == 123

    def test_explicit_path_beats_config_dir(self, tmp_path, monkeypatch):
        local = tmp_path / "a" / "c.json"
        local.parent.mkdir()
        local.write_text(json.dumps({"pulses": 1}))
        other = tmp_path / "b"
        other.mkdir()
        (other / "c.json").write_text(json.dumps({"pulses": 2}))
        monkeypatch.setenv("QKDSIM_CONFIG_DIR", str(other))
        assert load_config_file(str(local))["pulses"] == 1

    def test_merge_precedence(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"pulses": 5000, "mu": 0.3}))
        args = argparse.Namespace(config=str(path), mu=0.7)
        params = merge_params(args)
        assert params["pulses"] == 5000  # config beats default
        assert params["mu"] == 0.7  # flag beats config
        assert params["distance_km"] == DEFAULTS["distance_km"]


class TestRunCommand:
    def test_ideal_run_exits_zero(self, capsys):
        code, out, _ = run_main(["run", *FAST_RUN], capsys)
        assert code == EXIT_OK
        assert "QBER estimate" in out
        assert "outcome" in out and "Success" in out
        assert "1550 nm" in out

    def test_run_deterministic(self, capsys):
        code1, out1, _ = run_main(["run", *FAST_RUN], capsys)
        code2, out2, _ = run_main(["run", *FAST_RUN], capsys)
        assert (code1, out1) == (code2, out2)

    def test_zero_error_channel_reports_zero_qber(self, capsys):
        _, out, _ = run_main(["run", *FAST_RUN], capsys)
        line = next(l for l in out.splitlines() if "QBER estimate" in l)
        assert float(line.split()[-1]) == 0.0

    def test_intercept_aborts_with_exit_2(self, capsys):
        code, out, _ = run_main(
            ["run", *FAST_RUN, "--eve", "intercept"], capsys)
        assert code == EXIT_ABORT_QBER
        assert "AbortQber" in out
        line = next(l for l in out.splitlines() if "QBER estimate" in l)
        assert float(line.split()[-1]) > 0.2

    def test_bad_eve_flag_exits_one(self, capsys):
        code, _, err = run_main(["run", "--eve", "replay"], capsys)
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_exhausted_auth_pool_exits_four(self, capsys):
        # 300 bits pay for three messages (128 + 2 x 64) of the five.
        code, _, err = run_main(
            ["run", "--pulses", "2000", "--auth-pool-bits", "300"], capsys)
        assert code == EXIT_INSUFFICIENT_LINK_KEY
        assert "need 64 bits, 44 remain" in err and "auth_pool_bits" in err

    def test_run_reads_config_file(self, tmp_path, capsys):
        path = tmp_path / "desk.json"
        path.write_text(json.dumps({
            "pulses": 20000, "distance_km": 0, "efficiency": 1.0,
            "dark_count_prob": 0, "flip_prob": 0, "mu": 0.5, "seed": 7}))
        direct_code, direct_out, _ = run_main(["run", *FAST_RUN], capsys)
        config_code, config_out, _ = run_main(
            ["run", "--config", str(path)], capsys)
        assert (config_code, config_out) == (direct_code, direct_out)


class TestSweepCommand:
    def sweep_config(self, tmp_path, sweep, **overrides):
        data = {"pulses": 20000, "efficiency": 1.0, "dark_count_prob": 0,
                "flip_prob": 0, "mu": 0.5, "distance_km": 0, "seed": 11,
                "sweep": sweep}
        data.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_header_and_row_count(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {"mu": [0.1, 0.5]})
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_main(
            ["sweep", "--config", config, "--output", str(out_csv),
             "--repeats", "2"], capsys)
        assert code == EXIT_OK
        text = out_csv.read_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2
        assert text.endswith("\n")

    def test_rows_parse_and_float_format(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {"distance_km": [0, 12.5]})
        out_csv = tmp_path / "fmt.csv"
        run_main(["sweep", "--config", config, "--output", str(out_csv)],
                 capsys)
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["distance_km"] for r in rows] == ["0", "12.5"]
        for row in rows:
            assert row["eve"] == "none"
            assert row["outcome"] == "Success"
            qber = row["qber"]
            assert len(qber.replace(".", "").replace("-", "")
                       .lstrip("0")) <= 6
            assert int(row["final_len"]) > 0
            assert int(row["secret_growth"]) == \
                int(row["final_len"]) - int(row["auth_consumed"])

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {"mu": [0.5]})
        out_csv = tmp_path / "keep.csv"
        out_csv.write_text("precious")
        code, _, err = run_main(
            ["sweep", "--config", config, "--output", str(out_csv)], capsys)
        assert code == EXIT_USAGE
        assert "refusing to overwrite" in err
        assert out_csv.read_text() == "precious"

    def test_force_overwrites(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {"mu": [0.5]})
        out_csv = tmp_path / "force.csv"
        out_csv.write_text("old")
        code, _, _ = run_main(
            ["sweep", "--config", config, "--output", str(out_csv),
             "--force"], capsys)
        assert code == EXIT_OK
        assert out_csv.read_text().startswith(",".join(CSV_COLUMNS[:3]))

    @pytest.mark.parametrize("target, flags, message", [
        ("missing/out.csv", [], "no directory"),
        (".", ["--force"], "is a directory"),
        ("taken.csv", [], "refusing to overwrite"),
    ])
    def test_bad_output_exits_one_before_any_session(
            self, tmp_path, capsys, monkeypatch, target, flags, message):
        monkeypatch.setattr(cli, "run_session", no_session)
        (tmp_path / "taken.csv").write_text("precious")
        config = self.sweep_config(tmp_path, {"mu": [0.1, 0.5]})
        code, _, err = run_main(
            ["sweep", "--config", config, "--output",
             str(tmp_path / target), *flags], capsys)
        assert code == EXIT_USAGE
        assert message in err and "Traceback" not in err
        assert (tmp_path / "taken.csv").read_text() == "precious"

    def test_write_failure_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot write"):
            _write_csv(str(tmp_path), [CSV_COLUMNS])

    @pytest.mark.parametrize("jobs, points, cpus, want", [
        (8, 1, 4, None),     # one session runs in this process
        (8, 3, 2, 2),        # no more workers than CPUs
        (2, 3, 8, 2),        # no more workers than asked for
        (8, 2, 8, 2),        # no more workers than sessions
        (8, 3, None, None),  # an unknown CPU count counts as one
    ])
    def test_workers_capped_at_sessions_and_cpus(
            self, tmp_path, capsys, monkeypatch, jobs, points, cpus, want):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        config = self.sweep_config(
            tmp_path, {"mu": [0.1, 0.3, 0.5][:points]}, pulses=2000)
        out_csv = tmp_path / "capped.csv"
        code, _, _ = run_main(
            ["sweep", "--config", config, "--output", str(out_csv),
             "--jobs", str(jobs)], capsys)
        assert code == EXIT_OK
        assert started == ([] if want is None else [want])
        assert len(out_csv.read_text().splitlines()) == 1 + points

    def test_no_axes_is_usage_error(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {})
        code, _, err = run_main(
            ["sweep", "--config", config, "--output",
             str(tmp_path / "x.csv")], capsys)
        assert code == EXIT_USAGE
        assert "axis" in err

    def test_missing_output_is_usage_error(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {"mu": [0.5]})
        code, _, err = run_main(["sweep", "--config", config], capsys)
        assert code == EXIT_USAGE
        assert "--output" in err

    def test_exhausted_auth_pool_exits_four(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {"mu": [0.5]},
                                   auth_pool_bits=300)
        out_csv = tmp_path / "short.csv"
        code, _, err = run_main(
            ["sweep", "--config", config, "--output", str(out_csv)], capsys)
        assert code == EXIT_INSUFFICIENT_LINK_KEY
        assert "authentication pool exhausted" in err
        assert not out_csv.exists()

    def test_parallel_output_byte_identical(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {"mu": [0.1, 0.3, 0.5]})
        serial, parallel = tmp_path / "serial.csv", tmp_path / "par.csv"
        run_main(["sweep", "--config", config, "--output", str(serial),
                  "--repeats", "2"], capsys)
        run_main(["sweep", "--config", config, "--output", str(parallel),
                  "--repeats", "2", "--jobs", "2"], capsys)
        assert serial.read_bytes() == parallel.read_bytes()

    def test_repeated_sweep_byte_identical(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, {"eve_fraction": [0, 0.5]})
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        run_main(["sweep", "--config", config, "--output", str(first)],
                 capsys)
        run_main(["sweep", "--config", config, "--output", str(second)],
                 capsys)
        assert first.read_bytes() == second.read_bytes()

    def test_distance_sweep_shows_exponential_decay(self, tmp_path, capsys):
        # Every 10 km at 0.2 dB/km multiplies the raw rate by 10^-0.2.
        config = self.sweep_config(
            tmp_path, {"distance_km": [0, 10, 20, 30]},
            pulses=600_000, mu=0.1, efficiency=0.1)
        out_csv = tmp_path / "decay.csv"
        run_main(["sweep", "--config", config, "--output", str(out_csv)],
                 capsys)
        with open(out_csv, newline="") as fh:
            raw = [int(r["raw_len"]) for r in csv.DictReader(fh)]
        want = 10.0 ** -0.2
        for near, far in zip(raw, raw[1:]):
            assert abs(far / near - want) / want < 0.10

    def test_eve_fraction_sweep_reproduces_qber_law(self, tmp_path, capsys):
        # Sampled error rate climbs by fraction/4 over the baseline.
        config = self.sweep_config(
            tmp_path, {"eve_fraction": [0, 0.5, 1.0]},
            pulses=400_000, attack_model="individual")
        out_csv = tmp_path / "eve.csv"
        run_main(["sweep", "--config", config, "--output", str(out_csv)],
                 capsys)
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["eve"] for r in rows] == \
            ["intercept:0", "intercept:0.5", "intercept:1"]
        qbers = [float(r["qber"]) for r in rows]
        assert qbers[0] < 0.01
        assert abs(qbers[1] - qbers[0] - 0.125) < 0.035
        assert abs(qbers[2] - qbers[0] - 0.25) < 0.035
        assert rows[2]["outcome"] == "AbortQber"


class TestNetworkCommand:
    def scenario(self, tmp_path, links, relays, nodes=("A", "B", "C")):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"nodes": list(nodes), "links": links, "relays": relays}))
        return str(path)

    def test_three_node_relay(self, tmp_path, capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 1024}},
                   {"a": "B", "b": "C", "stub": {"seed": 2, "bits": 1024}}],
            relays=[{"path": ["A", "B", "C"], "key_len": 128, "seed": 5}])
        code, out, _ = run_main(["network", scenario], capsys)
        assert code == EXIT_OK
        assert "relay 0: A -> B -> C, 128 bits delivered over 2 hops" in out
        assert "  B: saw 1 relayed key(s) in plaintext" in out
        assert "  A: saw 0 relayed key(s) in plaintext" in out
        assert "A-B: 128 consumed, 896 remaining" in out

    def test_underfunded_relay_exits_four(self, tmp_path, capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 1024}},
                   {"a": "B", "b": "C", "stub": {"seed": 2, "bits": 64}}],
            relays=[{"path": ["A", "B", "C"], "key_len": 128}])
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_INSUFFICIENT_LINK_KEY
        assert "B-C" in err

    def test_underfunded_auth_pool_exits_four(self, tmp_path, capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 1024}},
                   {"a": "B", "b": "C", "stub": {"seed": 2, "bits": 1024},
                    "auth_pool_bits": 150}],
            relays=[{"path": ["A", "B", "C"], "key_len": 64},
                    {"path": ["A", "B", "C"], "key_len": 64}])
        code, out, err = run_main(["network", scenario], capsys)
        assert code == EXIT_INSUFFICIENT_LINK_KEY
        assert "relay 1 failed" in err and "authentication" in err
        assert "relay 0: A -> B -> C" in out

    def test_session_link_aborts_exit_two(self, tmp_path, capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B",
                    "session": {"pulses": 20000, "distance_km": 0,
                                "efficiency": 1.0, "dark_count_prob": 0,
                                "flip_prob": 0, "eve": "intercept",
                                "seed": 3}}],
            relays=[{"path": ["A", "B"], "key_len": 64}],
            nodes=("A", "B"))
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_ABORT_QBER
        assert "provisioning failed" in err

    def test_session_link_with_empty_key_exits_four(self, tmp_path, capsys):
        # 300 pulses sift too few bits to reconcile: the session succeeds
        # with no key, which leaves the link short of key, not aborted.
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B",
                    "session": {"pulses": 300, "distance_km": 0}}],
            relays=[], nodes=("A", "B"))
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_INSUFFICIENT_LINK_KEY
        assert "ended Success with final_len=0" in err
        assert "Traceback" not in err

    def test_session_link_reconciliation_abort_exits_three(
            self, tmp_path, capsys, monkeypatch):
        import qkdsim.protocol as protocol

        def always_fails(alice_key, bob_key, e_hat, public_coins, **kwargs):
            raise ReconciliationFailure(CorrectionResult(
                np.array(bob_key, dtype=np.uint8), 70, False,
                np.ones(70, dtype=np.uint8)))

        monkeypatch.setattr(protocol, "error_correct", always_fails)
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B",
                    "session": {"pulses": 20000, "distance_km": 0,
                                "efficiency": 1.0, "dark_count_prob": 0,
                                "flip_prob": 0, "seed": 3}}],
            relays=[{"path": ["A", "B"], "key_len": 64}],
            nodes=("A", "B"))
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_ABORT_RECONCILIATION
        assert "ended AbortReconciliation" in err

    def test_session_link_auth_pool_exhausted_exits_four(self, tmp_path,
                                                          capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B",
                    "session": {"pulses": 20000, "distance_km": 0,
                                "efficiency": 1.0, "dark_count_prob": 0,
                                "flip_prob": 0, "seed": 3,
                                "auth_pool_bits": 300}}],
            relays=[{"path": ["A", "B"], "key_len": 64}],
            nodes=("A", "B"))
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_INSUFFICIENT_LINK_KEY
        assert "authentication pool exhausted" in err

    def test_bad_session_link_parameter_names_link(self, tmp_path, capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "session": {"mu": -1}}],
            relays=[], nodes=("A", "B"))
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_USAGE
        assert "link A-B session" in err and '"mu"' in err

    def test_session_link_funds_relay(self, tmp_path, capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B",
                    "session": {"pulses": 20000, "distance_km": 0,
                                "efficiency": 1.0, "dark_count_prob": 0,
                                "flip_prob": 0, "seed": 3}}],
            relays=[{"path": ["A", "B"], "key_len": 256}],
            nodes=("A", "B"))
        code, out, _ = run_main(["network", scenario], capsys)
        assert code == EXIT_OK
        assert "256 bits delivered over 1 hops" in out

    def test_relay_csv_output(self, tmp_path, capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 512}},
                   {"a": "B", "b": "C", "stub": {"seed": 2, "bits": 512}}],
            relays=[{"path": ["A", "B", "C"], "key_len": 96},
                    {"path": ["A", "B"], "key_len": 32}])
        out_csv = tmp_path / "relays.csv"
        code, _, _ = run_main(
            ["network", scenario, "--csv", str(out_csv)], capsys)
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "relay,path,key_len,hops,interior,status"
        assert lines[1] == "0,A-B-C,96,2,B,ok"
        assert lines[2] == "1,A-B,32,1,(none),ok"

    def test_hops_are_counted_from_the_path(self, tmp_path, capsys,
                                            monkeypatch):
        # a hop count is the path's length less one: the hop messages,
        # which a transcript rebuilds from its record, are not read
        def unread(transcript):
            raise AssertionError("hop_messages read")
        monkeypatch.setattr(netsim.RelayTranscript, "hop_messages",
                            property(unread))
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 512}},
                   {"a": "B", "b": "C", "stub": {"seed": 2, "bits": 512}}],
            relays=[{"path": ["A", "B", "C"], "key_len": 96},
                    {"path": ["A", "B"], "key_len": 32}])
        out_csv = tmp_path / "relays.csv"
        code, out, _ = run_main(
            ["network", scenario, "--csv", str(out_csv)], capsys)
        assert code == EXIT_OK
        assert out_csv.read_text().splitlines()[1:] == [
            "0,A-B-C,96,2,B,ok", "1,A-B,32,1,(none),ok"]
        assert "relay 0: A -> B -> C, 96 bits delivered over 2 hops" in out
        assert "relay 1: A -> B, 32 bits delivered over 1 hops" in out

    @pytest.mark.parametrize("target, flags, message", [
        ("missing/relays.csv", [], "no directory"),
        (".", ["--force"], "is a directory"),
    ])
    def test_bad_csv_path_exits_one_before_provisioning(
            self, tmp_path, capsys, monkeypatch, target, flags, message):
        monkeypatch.setattr(netsim, "run_session", no_session)
        scenario = self.scenario(
            tmp_path, links=[{"a": "A", "b": "B",
                              "session": {"pulses": 2000}}],
            relays=[{"path": ["A", "B"], "key_len": 8}], nodes=("A", "B"))
        code, _, err = run_main(
            ["network", scenario, "--csv", str(tmp_path / target), *flags],
            capsys)
        assert code == EXIT_USAGE
        assert message in err and "Traceback" not in err

    def test_links_with_one_default_seed_exit_one(self, tmp_path, capsys,
                                                  monkeypatch):
        # two session links with no "seed" both take the default seed 1,
        # so they would share their keys and authentication pools
        monkeypatch.setattr(netsim, "run_session", no_session)
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "session": {"pulses": 2000}},
                   {"a": "B", "b": "C", "session": {"pulses": 2000}}],
            relays=[])
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_USAGE
        assert "link 1: seed 1 is already the seed of link A-B" in err
        assert "Traceback" not in err

    def test_stub_and_session_link_with_one_seed_exit_one(self, tmp_path,
                                                          capsys):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "stub": {"seed": 7, "bits": 64}},
                   {"a": "B", "b": "C",
                    "session": {"pulses": 2000, "seed": 7}}],
            relays=[])
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_USAGE
        assert "link 1: seed 7 is already the seed of link A-B" in err

    def relays(self, seeds):
        """A-B-C relays with these seeds, None for a relay with none."""
        return [dict({"path": ["A", "B", "C"], "key_len": 64},
                     **({} if seed is None else {"seed": seed}))
                for seed in seeds]

    STUBS = [{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 512}},
             {"a": "B", "b": "C", "stub": {"seed": 2, "bits": 512}}]

    @pytest.mark.parametrize("seeds, message", [
        ((None, 0), "relay 1: seed 0 is already the seed of relay 0"),
        ((1, None), "relay 1: seed 1 is already the seed of relay 0"),
        ((None, 3, 3), "relay 2: seed 3 is already the seed of relay 1"),
        ((-1, 2**64 - 1),
         f"relay 1: seed {2**64 - 1} is already the seed of relay 0"),
    ], ids=["given-equals-index", "index-equals-given", "equal",
            "equal-mod-2^64"])
    def test_relays_with_one_seed_exit_one(self, tmp_path, capsys, seeds,
                                           message):
        # relays with one seed would carry one key
        scenario = self.scenario(tmp_path, links=self.STUBS,
                                 relays=self.relays(seeds))
        code, out, err = run_main(["network", scenario], capsys)
        assert code == EXIT_USAGE
        assert message in err
        assert out == "" and "Traceback" not in err

    def test_relays_with_distinct_seeds_carry_distinct_keys(self, tmp_path):
        # relay 1 takes its index, which relay 0's seed 2^64 is not
        scenario = self.scenario(tmp_path, links=self.STUBS,
                                 relays=self.relays((2**64, None)))
        net, relays = load_scenario(scenario)
        net.provision_all()
        keys = [net.relay(spec["path"], spec["key_len"],
                          RandomSource(spec.get("seed", i)).split("relay")
                          ).end_key for i, spec in enumerate(relays)]
        assert not np.array_equal(*keys)

    def test_empty_csv_path_exits_one(self, tmp_path, capsys, monkeypatch):
        # as sweep --output "": an empty path is refused, not skipped
        monkeypatch.setattr(netsim, "run_session", no_session)
        scenario = self.scenario(
            tmp_path, links=[{"a": "A", "b": "B",
                              "stub": {"seed": 1, "bits": 64}}],
            relays=[{"path": ["A", "B"], "key_len": 8}], nodes=("A", "B"))
        code, out, err = run_main(["network", scenario, "--csv", ""], capsys)
        assert code == EXIT_USAGE
        assert '"csv" must be a non-empty string' in err
        assert out == "" and "Traceback" not in err

    def test_scenario_builds_the_network(self, tmp_path):
        scenario = self.scenario(
            tmp_path,
            links=[{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 64}},
                   {"a": "B", "b": "C", "stub": {"seed": 2, "bits": 64},
                    "auth_pool_bits": 256}],
            relays=[{"path": ["A", "B", "C"], "key_len": 8}])
        net, relays = load_scenario(scenario)
        assert sorted(net.nodes) == ["A", "B", "C"]
        assert [tuple(n.id for n in link.endpoints) for link in net.links] \
            == [("A", "B"), ("B", "C")]
        assert net.links[1].channel.pool.remaining == 256
        assert all(link.key.remaining == 0 for link in net.links)
        assert relays == [{"path": ["A", "B", "C"], "key_len": 8}]

    def test_scenario_missing_section(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"nodes": ["A"], "links": []}))
        code, _, err = run_main(["network", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "relays" in err

    def test_link_without_source(self, tmp_path, capsys):
        scenario = self.scenario(
            tmp_path, links=[{"a": "A", "b": "B"}],
            relays=[], nodes=("A", "B"))
        code, _, err = run_main(["network", scenario], capsys)
        assert code == EXIT_USAGE
        assert "stub" in err and "session" in err


# A valid two-node scenario, varied one key at a time below.
AB = {"nodes": ["A", "B"],
      "links": [{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 64}}],
      "relays": [{"path": ["A", "B"], "key_len": 8}]}


@pytest.mark.parametrize("scenario, key", [
    (5, "top level"),
    ({"nodes": ["A", "B"], "links": [{"b": "B", "stub": {}}],
      "relays": []}, '"a"'),
    ({"nodes": ["A", "B"], "links": [{"a": "A", "stub": {}}],
      "relays": []}, '"b"'),
    ({"nodes": ["A", "B"],
      "links": [{"a": "A", "b": "B", "stub": {"bits": 64}}],
      "relays": []}, '"seed"'),
    ({"nodes": ["A", "B"],
      "links": [{"a": "A", "b": "B", "stub": {"seed": 1}}],
      "relays": []}, '"bits"'),
    ({"nodes": ["A", "B"],
      "links": [{"a": "A", "b": "B", "stub": {"seed": 1, "bits": 64}}],
      "relays": [{"path": ["A", "X"], "key_len": 8}]}, "'X'"),
    ({"nodes": ["A"],
      "links": [{"a": "A", "b": "Z", "stub": {"seed": 1, "bits": 64}}],
      "relays": []}, "'Z'"),
    (dict(AB, relays=[{"path": ["A", "B"], "key_len": "abc"}]), '"key_len"'),
    (dict(AB, relays=[{"path": ["A", "B"], "key_len": -3}]), '"key_len"'),
    (dict(AB, relays=[{"path": ["A", "B"], "key_len": 8.7}]), '"key_len"'),
    (dict(AB, links=[{"a": "A", "b": "B", "stub": {"seed": 1, "bits": -5}}]),
     '"bits"'),
    (dict(AB, links=[dict(AB["links"][0], auth_pool_bits=-1)]),
     '"auth_pool_bits"'),
    (dict(AB, links=[dict(AB["links"][0], auth_pool_bits="x")]),
     '"auth_pool_bits"'),
    (dict(AB, relays=[{"path": ["A", "B"], "key_len": 8, "seed": "q"}]),
     '"seed"'),
    (dict(AB, nodes=3), '"nodes"'),
    (dict(AB, links={}), '"links"'),
    (dict(AB, relays="AB"), '"relays"'),
    (dict(AB, links=[{"a": "A", "b": "B", "session": "x"}]), '"session"'),
    (dict(AB, relays=[{"path": ["A"], "key_len": 8}]), '"path"'),
    (dict(AB, relays=[{"path": "AB", "key_len": 8}]), '"path"'),
    (dict(AB, nodes=["A", "B", "C"],
          relays=[{"path": ["A", "C"], "key_len": 0}]),
     'relay 0 "path" hop A-C'),
    (dict(AB, nodes=["A", "B", "C"],
          relays=[{"path": ["A", "C"], "key_len": 8}]),
     'relay 0 "path" hop A-C'),
    (dict(AB, extra=1), 'scenario has unknown key "extra"'),
    (dict(AB, links=[dict(AB["links"][0], stubb=1)]),
     'link 0 has unknown key "stubb"'),
    (dict(AB, links=[{"a": "A", "b": "B",
                      "stub": {"seed": 1, "bits": 64, "sed": 2}}]),
     'link 0 stub has unknown key "sed"'),
    (dict(AB, links=[{"a": "A", "b": "B", "session": {"pulsez": 5}}]),
     'link 0 "session" has unknown key "pulsez"'),
    (dict(AB, links=[{"a": "A", "b": "B",
                      "session": {"pulses": 2000, "repeats": 2}}]),
     'link 0 "session" has unknown key "repeats"'),
    (dict(AB, relays=[{"path": ["A", "B"], "key_len": 8, "keylen": 99}]),
     'relay 0 has unknown key "keylen"'),
    (dict(AB, links=[dict(AB["links"][0], session={"mu": -1})]),
     "link 0 needs exactly one of"),
    (dict(AB, links=[{"a": "A", "b": "A", "stub": {"seed": 1, "bits": 64}}],
          relays=[{"path": ["A", "A"], "key_len": 8}]),
     "link 0: link A-A joins a node to itself"),
    (dict(AB, links=[AB["links"][0], dict(AB["links"][0])]),
     "link 1: nodes A and B are already linked"),
    (dict(AB, links=[AB["links"][0],
                     {"a": "B", "b": "A", "stub": {"seed": 2, "bits": 64}}]),
     "link 1: nodes B and A are already linked"),
    (dict(AB, links=[{"a": "A", "b": "B", "session": {"eve": 5}}]), '"eve"'),
    (dict(AB, links=[{"a": "A", "b": "B", "session": {"eve": None}}]),
     '"eve"'),
    (dict(AB, links=[{"a": "A", "b": "B",
                      "session": {"attack_model": 5}}]), '"attack_model"'),
    (dict(AB, links=[{"a": "A", "b": "B",
                      "stub": {"seed": True, "bits": 64}}]), '"seed"'),
    (dict(AB, nodes=["A", "B", "A"]), "node 'A' is declared twice"),
    (dict(AB, nodes=["A", "B", 1, "1"]), "node '1' is declared twice"),
])
def test_invalid_scenario_exits_one(scenario, key, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    with pytest.raises(ConfigError, match=key):
        load_scenario(str(path))
    code, _, err = run_main(["network", str(path)], capsys)
    assert code == EXIT_USAGE
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("command, config, flags, key", [
    ("run", {}, ["--pulses", "0"], "pulses"),
    ("run", {}, ["--mu", "nan"], "mu"),
    ("run", {}, ["--efficiency", "2"], "efficiency"),
    ("run", {"mu": "0.1x"}, [], "mu"),
    ("run", {"pulses": 2000.5}, [], "pulses"),
    ("run", {}, ["--distance-km", "inf"], "distance_km"),
    ("sweep", {"sweep": {"mu": [0.5]}}, ["--jobs", "0"], "jobs"),
    ("sweep", {"sweep": {"mu": []}}, [], "mu"),
    ("sweep", {"sweep": {"distance_km": [0, -5]}}, [], "distance_km"),
    ("sweep", {"sweep": {"mu": [0.5]}}, ["--repeats", "0"], "repeats"),
    ("sweep", {"sweep": {"mu": [0.5]}, "repeats": 0}, [], "repeats"),
    ("run", {}, ["--pulses", "abc"], "pulses"),
    ("run", {"pulses": True}, [], "pulses"),
    ("run", {"eve": 5}, [], "eve"),
    ("run", {"eve": None}, [], "eve"),
    ("run", {"attack_model": 5}, [], "attack_model"),
    ("sweep", {"sweep": {"mu": [0.5]}, "output": 7}, [], "output"),
    ("sweep", {"sweep": {"mu": [True]}}, [], "mu"),
    ("sweep", {"sweep": {"eve_fraction": [2]}}, [], "eve_fraction"),
    ("sweep", {"sweep": {"mu": [0.5]}}, ["--jobs", "x"], "jobs"),
    # above numpy's Poisson limit, which used to end in its traceback
    ("run", {}, ["--mu", "1e300"], "mu"),
    ("sweep", {"sweep": {"mu": [0.5, 1e300]}}, [], "mu"),
])
def test_bad_parameter_exits_one(command, config, flags, key, tmp_path,
                                 capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pulses": 2000, **config}))
    out_csv = tmp_path / "out.csv"
    argv = [command, "--config", str(path), *flags]
    if command == "sweep":
        argv += ["--output", str(out_csv)]
    code, _, err = run_main(argv, capsys)
    assert code == EXIT_USAGE
    assert f'"{key}"' in err and "Traceback" not in err
    assert not out_csv.exists()


# Counts are bounded above by the ">u4" wire format of messages 1 and 2:
# one past the bound, and numbers far beyond memory that used to end in
# numpy's "Maximum allowed dimension exceeded" or a MemoryError, exit 1
# with the rule's message by every route a count comes in.
OVER = [MAX_PULSES + 1, 10**20]


@pytest.mark.parametrize("value", OVER)
@pytest.mark.parametrize("key", ["pulses", "auth_pool_bits"])
def test_count_over_its_bound_flag_exits_one(key, value, capsys):
    flag = "--" + key.replace("_", "-")
    code, _, err = run_main(["run", flag, str(value)], capsys)
    assert code == EXIT_USAGE and "Traceback" not in err
    assert f'"{key}" must be {PARAM_RULES[key].wording}, got {str(value)!r}' \
        in err


@pytest.mark.parametrize("value", [*OVER, 1e19, 9.2e18])
@pytest.mark.parametrize("key", ["pulses", "auth_pool_bits"])
def test_count_over_its_bound_config_exits_one(key, value, tmp_path,
                                               capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    code, _, err = run_main(["run", "--config", str(path)], capsys)
    assert code == EXIT_USAGE and "Traceback" not in err
    assert f'"{key}" must be {PARAM_RULES[key].wording}' in err


@pytest.mark.parametrize("value", OVER)
@pytest.mark.parametrize("change, key", [
    (lambda v: dict(AB, links=[{"a": "A", "b": "B",
                                "session": {"pulses": v}}]), "pulses"),
    (lambda v: dict(AB, links=[{"a": "A", "b": "B",
                                "session": {"auth_pool_bits": v}}]),
     "auth_pool_bits"),
    (lambda v: dict(AB, links=[dict(AB["links"][0], auth_pool_bits=v)]),
     "auth_pool_bits"),
    (lambda v: dict(AB, links=[{"a": "A", "b": "B",
                                "stub": {"seed": 1, "bits": v}}]), "bits"),
    (lambda v: dict(AB, relays=[{"path": ["A", "B"], "key_len": v}]),
     "key_len"),
], ids=["session-pulses", "session-auth_pool_bits", "link-auth_pool_bits",
        "stub-bits", "relay-key_len"])
def test_count_over_its_bound_scenario_exits_one(change, key, value,
                                                 tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(change(value)))
    code, _, err = run_main(["network", str(path)], capsys)
    assert code == EXIT_USAGE and "Traceback" not in err
    assert f'"{key}" must be {PARAM_RULES[key].wording}, got {value}' in err


def test_counts_at_their_bound_pass_the_rules():
    # 2^32 pulses put positions 0 .. 2^32 - 1 on the wire, which ">u4"
    # holds; the bit counts share the bound
    assert PARAM_RULES["pulses"] is SessionConfig.RULES["n_pulses"]
    for key in ("pulses", "auth_pool_bits", "bits", "key_len"):
        assert PARAM_RULES[key].check(key, MAX_PULSES) == MAX_PULSES
    assert np.array([MAX_PULSES - 1]).astype(">u4")[0] == MAX_PULSES - 1


def out_of_memory(config):
    raise MemoryError(f"Unable to allocate {config.n_pulses} B")


def test_run_beyond_memory_exits_one(monkeypatch, capsys):
    # 2^32 pulses pass the rules but need GBs; no real allocation here
    monkeypatch.setattr(cli, "run_session", out_of_memory)
    code, out, err = run_main(["run", "--pulses", str(MAX_PULSES)], capsys)
    assert code == EXIT_USAGE and out == "" and "Traceback" not in err
    assert f"a session of {MAX_PULSES} pulses with a 512-bit " \
        "authentication pool does not fit in memory" in err


def test_sweep_beyond_memory_exits_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_session", out_of_memory)
    config = tmp_path / "sweep.json"
    config.write_text('{"pulses": 3000000000, "sweep": {"mu": [0.1, 0.5]}}')
    output = tmp_path / "out.csv"
    code, _, err = run_main(["sweep", "--config", str(config),
                             "--output", str(output)], capsys)
    assert code == EXIT_USAGE and "Traceback" not in err
    assert "a session of 3000000000 pulses with a 512-bit" in err
    assert not output.exists()


def test_network_beyond_memory_exits_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(netsim, "run_session", out_of_memory)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(AB, links=[
        {"a": "A", "b": "B", "session": {"pulses": MAX_PULSES}}])))
    code, _, err = run_main(["network", str(path)], capsys)
    assert code == EXIT_USAGE and "Traceback" not in err
    assert "error: out of memory" in err


def test_scenario_pool_beyond_memory_exits_one(monkeypatch, tmp_path,
                                              capsys):
    # a link's authentication pool is made as the scenario loads
    def no_memory(bits=()):
        raise MemoryError("Unable to allocate 4.00 GiB")

    monkeypatch.setattr(netsim, "BitPool", no_memory)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(AB))
    code, _, err = run_main(["network", str(path)], capsys)
    assert code == EXIT_USAGE and "Traceback" not in err
    assert "out of memory" in err


@pytest.mark.parametrize("argv, message", [
    (["run", "--pulses", "abc"], '"pulses" must be an integer >= 1'),
    (["run", "--bogus", "1"], "--bogus"),
    ([], "command"),
])
def test_usage_error_exits_one(argv, message, capsys):
    # Exit 2 is reserved for a QBER abort, so argparse's own exit status
    # for a usage error must not leak out.
    code, _, err = run_main(argv, capsys)
    assert code == EXIT_USAGE
    assert message in err and "Traceback" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    assert "usage: qkdsim" in capsys.readouterr().out


# A value for every session key, none of them its default
NON_DEFAULT = {"pulses": 3000, "mu": 0.3, "distance_km": 7.5,
               "attenuation_db_per_km": 0.25, "efficiency": 0.4,
               "dark_count_prob": 2e-6, "flip_prob": 0.02,
               "eve": "intercept:0.25", "attack_model": "individual",
               "sample_fraction": 0.2, "margin": 12, "auth_pool_bits": 768,
               "seed": 42}
SESSION_FLAGS = [("--pulses", "PULSES"), ("--mu", "MU"),
                 ("--distance-km", "DISTANCE_KM"),
                 ("--attenuation-db-per-km", "ATTENUATION_DB_PER_KM"),
                 ("--efficiency", "EFFICIENCY"),
                 ("--dark", "DARK_COUNT_PROB"), ("--flip", "FLIP_PROB"),
                 ("--eve", "EVE"), ("--attack-model", "ATTACK_MODEL"),
                 ("--sample-fraction", "SAMPLE_FRACTION"),
                 ("--margin", "MARGIN"),
                 ("--auth-pool-bits", "AUTH_POOL_BITS"), ("--seed", "SEED")]


def test_every_session_key_reaches_its_field():
    assert list(NON_DEFAULT) == list(DEFAULTS)
    assert all(NON_DEFAULT[key] != DEFAULTS[key] for key in DEFAULTS)
    argv = ["run"]
    for (flag, _), value in zip(SESSION_FLAGS, NON_DEFAULT.values()):
        argv += [flag, str(value)]
    params = merge_params(cli.build_parser().parse_args(argv))
    assert {key: params[key] for key in DEFAULTS} == NON_DEFAULT
    assert cli.session_config(params) == SessionConfig(
        n_pulses=3000, source=SourceModel(0.3),
        channel=FiberChannel(length_km=7.5, attenuation_db_per_km=0.25,
                             excess_flip_prob=0.02),
        detectors=DetectorPair(efficiency=0.4, dark_count_prob=2e-6),
        seed=42, eve=InterceptResend(0.25), sample_fraction=0.2,
        attack_model=AttackModel.INDIVIDUAL, security_margin_bits=12,
        auth_pool_bits=768)


def test_run_help_lists_session_flags_in_order(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = capsys.readouterr().out
    options = out[out.index("options:"):]
    flags = [tuple(line.split()[:2]) for line in options.splitlines()
             if line.startswith("  --") and line.split()[0] != "--config"]
    assert flags == SESSION_FLAGS


def test_run_help_words_text_flags_as_their_rules(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for key in ("eve", "attack_model"):
        flag = "--" + key.replace("_", "-")
        assert f"{flag} {key.upper()} {PARAM_RULES[key].wording} " in out


AXIS = st.lists(st.floats(0, 1), min_size=1, max_size=3)


@settings(max_examples=6, deadline=None)
@given(sweep=st.fixed_dictionaries(
           {}, optional={"distance_km": st.lists(st.floats(0, 30),
                                                 min_size=1, max_size=3),
                         "mu": AXIS, "eve_fraction": AXIS}).filter(bool),
       repeats=st.integers(1, 2), seed=st.integers(0, 2**32))
def test_sweep_csv_identical_across_jobs(sweep, repeats, seed):
    # Any small grid gives the same CSV bytes with one worker and two.
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "grid.json"
        config.write_text(json.dumps({"pulses": 2000, "seed": seed,
                                      "sweep": sweep}))
        outputs = []
        for jobs in ("1", "2"):
            out = Path(tmp) / f"jobs{jobs}.csv"
            assert main(["sweep", "--config", str(config), "--output",
                         str(out), "--repeats", str(repeats),
                         "--jobs", jobs]) == EXIT_OK
            outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + repeats * math.prod(
        len(values) for values in sweep.values())


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        code, out, err = run_main(["selftest"], capsys)
        assert code == EXIT_OK
        assert err == ""
        lines = [l for l in out.splitlines() if l.startswith("selftest:")]
        assert len(lines) >= 10
        assert all(" ok" in l for l in lines)
        assert not any("FAIL" in l for l in lines)


def test_eve_sweep_math_note():
    # The eve_fraction axis turns a number into the intercept strategy
    # string; confirm the exact mapping used by the sweep.
    assert parse_eve("intercept:0.5") == InterceptResend(0.5)
    assert math.isclose(parse_eve("intercept:1.0").fraction, 1.0)


# Where each CLI key's value lands: (CLI key, model, field). The last row
# is the sweep's eve_fraction axis, which becomes InterceptResend(f).
RULE_HOMES = [
    ("pulses", SessionConfig, "n_pulses"),
    ("mu", SourceModel, "mu"),
    ("distance_km", FiberChannel, "length_km"),
    ("attenuation_db_per_km", FiberChannel, "attenuation_db_per_km"),
    ("flip_prob", FiberChannel, "excess_flip_prob"),
    ("efficiency", DetectorPair, "efficiency"),
    ("dark_count_prob", DetectorPair, "dark_count_prob"),
    ("sample_fraction", SessionConfig, "sample_fraction"),
    ("margin", SessionConfig, "security_margin_bits"),
    ("auth_pool_bits", SessionConfig, "auth_pool_bits"),
    ("seed", SessionConfig, "seed"),
    ("seed", StubKeySource, "seed"),
    ("bits", StubKeySource, "n_bits"),
    ("eve_fraction", InterceptResend, "fraction"),
]
VALID = {SessionConfig: SessionConfig(2000, SourceModel(0.1),
                                      FiberChannel(1.0), DetectorPair(), 1),
         SourceModel: SourceModel(0.1), FiberChannel: FiberChannel(1.0),
         DetectorPair: DetectorPair(), StubKeySource: StubKeySource(1, 8),
         InterceptResend: InterceptResend(0.5)}
TINY = math.nextafter(0.0, -1.0)  # the negative number closest to 0
# The values just outside each end of each range, by field
OUTSIDE = {"n_pulses": [0, MAX_PULSES + 1],
           "mu": [TINY, math.nextafter(MAX_MU, math.inf)],
           "length_km": [TINY], "attenuation_db_per_km": [TINY],
           "excess_flip_prob": [TINY, math.nextafter(0.5, 1.0)],
           "efficiency": [TINY, math.nextafter(1.0, 2.0)],
           "dark_count_prob": [TINY, 1.0], "sample_fraction": [0.0, 1.0],
           "security_margin_bits": [-1],
           "auth_pool_bits": [-1, MAX_PULSES + 1],
           "seed": [], "n_bits": [-1, MAX_PULSES + 1],
           "fraction": [TINY, 1.5]}


def cli_rule(key):
    if key == "eve_fraction":
        return CONFIG.rules["sweep"].rules[key].item
    return PARAM_RULES[key]


def cli_check(key, value):
    """The CLI's check of ``value`` as a flag, a sweep value or a stub's
    bits, whichever ``key`` is."""
    if key == "eve_fraction":
        return _validate("", "", {"sweep": {key: [value]}}, CONFIG)
    if key == "bits":
        stub = SCENARIO.rules["links"].item.rules["stub"]
        return _validate("", "", {"seed": 1, key: value}, stub)
    return _validate("", "", {key: value}, CONFIG)


@pytest.mark.parametrize("key, model, field", RULE_HOMES,
                         ids=lambda v: getattr(v, "__name__", v))
def test_cli_key_has_its_models_rule(key, model, field):
    # One rule object per parameter: the CLI holds the model's own.
    assert cli_rule(key) is model.RULES[field]


@pytest.mark.parametrize("key, model, field, value", [
    (key, model, field, value) for key, model, field in RULE_HOMES
    for value in [math.nan, math.inf, -math.inf, True, np.True_,
                  *OUTSIDE[field]]],
    ids=lambda v: getattr(v, "__name__", repr(v)))
def test_cli_and_model_refuse_alike(key, model, field, value):
    wording = model.RULES[field].wording
    with pytest.raises(ValueError) as model_exc:
        dataclasses.replace(VALID[model], **{field: value})
    assert str(model_exc.value) == f"{field} must be {wording}, got {value!r}"
    with pytest.raises(ConfigError) as cli_exc:
        cli_check(key, value)
    assert str(cli_exc.value).endswith(
        f'"{key}" must be {wording}, got {value!r}')
