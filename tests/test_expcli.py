"""CLI surface: subcommands, presets, config precedence, CSV stability."""

import contextlib
import io
import json
import math
import re
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccdl import analytic, channel, expcli, montecarlo, optimizer, precoding, scheme
from ccdl.analytic import CsiCostModel, csi_zeta, data_share
from ccdl.expcli import CSV_COLUMNS, ExperimentSpec, main, preset, run

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
SIMULATE_GOLDEN = Path(__file__).resolve().parent / "golden" / "simulate-sweep.csv"

HEADER = "precoder,L,Q,G,snr_db,zeta,c,rate_nats,rate_bits,effective_rate_nats,source,trials,seed,c_star,q_star,gain"


def run_cli(capsys, *argv) -> tuple[int, list[str], str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def parse(lines: list[str]) -> list[dict]:
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


class TestSchema:
    def test_header_is_pinned(self, capsys):
        code, lines, _ = run_cli(capsys, "rate", "--precoder", "zf", "--G", "5", "--L", "64", "--Q", "16",
                                 "--snr-db", "10", "--zeta", "0")
        assert code == 0
        assert lines[0] == HEADER == ",".join(CSV_COLUMNS)

    def test_non_applicable_fields_empty(self, capsys):
        _, lines, _ = run_cli(capsys, "rate", "--precoder", "zf", "--G", "5", "--L", "64", "--Q", "16",
                              "--snr-db", "10", "--zeta", "0")
        row = parse(lines)[0]
        assert row["trials"] == "" and row["seed"] == "" and row["gain"] == "" and row["c_star"] == ""


class TestRate:
    def test_zf_reference_row(self, capsys):
        code, lines, _ = run_cli(capsys, "rate", "--precoder", "zf", "--G", "5", "--L", "64", "--Q", "16",
                                 "--snr-db", "10", "--zeta", "0")
        assert code == 0
        row = parse(lines)[0]
        assert float(row["rate_nats"]) == pytest.approx(155.67, abs=0.01)
        assert float(row["rate_bits"]) == pytest.approx(155.67 / 0.6931471805599453, abs=0.02)
        assert float(row["effective_rate_nats"]) == float(row["rate_nats"])
        assert row["source"] == "closed_form"

    def test_all_precoders(self, capsys):
        _, lines, _ = run_cli(capsys, "rate", "--precoder", "all", "--G", "5", "--L", "64", "--Q", "16",
                              "--snr-db", "10", "--zeta", "0")
        rows = parse(lines)
        assert [r["precoder"] for r in rows] == ["mf", "zf", "rzf"]

    def test_group_count_from_lambda_gamma(self, capsys):
        _, lines, _ = run_cli(capsys, "rate", "--precoder", "zf", "--lambda", "10", "--gamma", "0.5",
                              "--L", "64", "--Q", "16", "--K", "160", "--snr-db", "10", "--zeta", "0")
        assert parse(lines)[0]["G"] == "6"


class TestOptimize:
    def test_reference_row(self, capsys):
        code, lines, _ = run_cli(capsys, "optimize", "--precoder", "zf", "--G", "6", "--L", "32",
                                 "--snr-db", "20", "--beta", "10", "--tc", "0.04", "--wc", "300e3")
        assert code == 0
        row = parse(lines)[0]
        assert float(row["c_star"]) == pytest.approx(0.59, abs=0.01)
        assert row["q_star"] == "19"
        assert float(row["gain"]) == pytest.approx(3.12, abs=0.01)
        assert float(row["zeta"]) == pytest.approx(0.16)


class TestGain:
    def test_hardening_reference(self, capsys):
        _, lines, _ = run_cli(capsys, "gain", "--precoder", "mf", "--G", "6", "--L", "64", "--Q", "8",
                              "--snr-db", "15", "--beta", "10", "--tc", "0.04", "--wc", "300e3")
        assert float(parse(lines)[0]["gain"]) == pytest.approx(5.46, abs=0.02)

    def test_q_prime_flag(self, capsys):
        _, lines, _ = run_cli(capsys, "gain", "--precoder", "zf", "--G", "6", "--L", "64", "--Q", "8",
                              "--q-prime", "16", "--snr-db", "15", "--beta", "10", "--tc", "0.04", "--wc", "300e3")
        assert float(parse(lines)[0]["gain"]) != pytest.approx(3.90, abs=0.01)


class TestSweep:
    def test_fig2_preset_row_count_and_monotone_gain(self, capsys):
        code, lines, _ = run_cli(capsys, "sweep", "--axis", "snr_db", "--start", "0", "--stop", "25",
                                 "--step", "1", "--preset", "fig2-L32")
        assert code == 0
        rows = parse(lines)
        assert len(rows) == 26
        gains = [float(r["gain"]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))
        at_20db = next(r for r in rows if float(r["snr_db"]) == 20.0)
        assert float(at_20db["gain"]) == pytest.approx(3.1, abs=0.1)

    def test_axis_validation(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "snr_db", "--start", "5", "--stop", "0",
                               "--step", "1", "--preset", "fig2-L32")
        assert code == 1
        assert err.startswith("error: SpecError")


class TestPresets:
    def test_fig1_fields(self):
        spec = preset("fig1")
        assert spec.snr_db == 10.0 and spec.G == 5
        assert spec.mode == "rate" and spec.precoder == "all"

    def test_fig3_mf_point(self, capsys):
        code, lines, _ = run_cli(capsys, "sweep", "--preset", "fig3-L64", "--precoder", "mf")
        assert code == 0
        rows = parse(lines)
        at_15db = next(r for r in rows if float(r["snr_db"]) == 15.0)
        assert float(at_15db["gain"]) == pytest.approx(5.46, abs=0.11)

    def test_fig2_l32_zf_20db_point(self, capsys):
        _, lines, _ = run_cli(capsys, "sweep", "--preset", "fig2-L32")
        rows = parse(lines)
        at_20db = next(r for r in rows if float(r["snr_db"]) == 20.0)
        assert float(at_20db["gain"]) == pytest.approx(3.1, abs=0.31)

    @pytest.mark.parametrize("name", ["fig1", "fig2-L32", "fig2-L64", "fig3-L64"])
    def test_all_precoder_csv_matches_golden(self, capsys, name):
        assert main(["sweep", "--preset", name, "--precoder", "all"]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.csv").read_bytes()

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--preset", "fig9")
        assert code == 1
        assert "UnknownPreset" in err


class TestConfigFile:
    def test_config_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "precoder": "zf", "G": 5, "L": 64, "Q": 16, "snr_db": 10.0, "zeta": 0.0,
        }))
        code, lines, _ = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 0
        assert float(parse(lines)[0]["rate_nats"]) == pytest.approx(155.67, abs=0.01)
        # flags override file values
        code, lines, _ = run_cli(capsys, "rate", "--config", str(cfg), "--Q", "32")
        assert parse(lines)[0]["Q"] == "32"

    @pytest.mark.parametrize("fields", [{"Q": 8.5}, {"G": True}, {"L": "64"}, {"snr_db": False}, {"precoder": 5}])
    def test_config_value_of_wrong_type_rejected(self, capsys, tmp_path, fields):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(fields))
        code, lines, err = run_cli(capsys, "rate", "--config", str(cfg), "--precoder", "zf", "--G", "5", "--L", "64",
                                   "--Q", "16", "--snr-db", "10")
        assert code == 1 and lines == []
        assert err.startswith("error: SpecError:") and f"{next(iter(fields))!r}" in err

    def test_config_values_take_their_flags_types(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"precoder": "zf", "G": 5, "L": 64, "Q": 16, "snr_db": 10, "zeta": 0}))
        from_config = run_cli(capsys, "rate", "--config", str(cfg))
        assert from_config == run_cli(capsys, "rate", "--precoder", "zf", "--G", "5", "--L", "64", "--Q", "16",
                                      "--snr-db", "10", "--zeta", "0")
        assert parse(from_config[1])[0]["snr_db"] == "10.0"

    def test_preset_flag_wins_over_config_preset(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "fig2-L32"}))
        code, lines, err = run_cli(capsys, "sweep", "--preset", "fig1", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert lines == run_cli(capsys, "sweep", "--preset", "fig1", "--precoder", "all")[1]
        assert "\n".join(lines) + "\n" == (GOLDEN / "fig1.csv").read_text()

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"precoderz": "zf"}))
        code, _, err = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 1
        assert "error:" in err


class TestErrors:
    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--precoder", "zf")
        assert code == 1
        assert err.startswith("error: SpecError:")

    def test_validation_failure_is_machine_readable(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--precoder", "zf", "--lambda", "3", "--gamma", "0.5",
                               "--L", "16", "--Q", "2", "--K", "9", "--snr-db", "10", "--trials", "100")
        assert code == 1
        assert err.startswith("error: NonIntegerLambdaGamma:")

    @pytest.mark.parametrize("flags", [
        ("--snr-db", "nan"), ("--snr-db", "inf"), ("--zeta", "nan"),
        ("--beta", "nan", "--tc", "0.04", "--wc", "300e3"), ("--L", "0"), ("--zeta", "-1"),
        ("--beta", "-1", "--tc", "0.04", "--wc", "300e3"), ("--tc", "0", "--beta", "10", "--wc", "300e3"),
        ("--tc", "-0.04", "--wc", "-300000.0", "--beta", "10"), ("--wc", "0", "--beta", "10", "--tc", "0.04"),
    ])
    def test_out_of_domain_input_rejected(self, capsys, flags):
        base = {"--precoder": "mf", "--G": "5", "--L": "64", "--Q": "16", "--snr-db": "10"}
        base.update(zip(flags[::2], flags[1::2]))
        code, lines, err = run_cli(capsys, "rate", *(x for kv in base.items() for x in kv))
        assert code == 1
        assert lines == []
        assert err.startswith("error: SpecError:") and err.count("\n") == 1
        assert flags[0] in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "--trials must be >= 1, got 0"), ("--trials", "-3", "--trials must be >= 1, got -3"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
        ("--seed", str(2**64), f"--seed must be < 2**64, got {2**64}"),
    ])
    @pytest.mark.parametrize("command", [("simulate",), ("sweep", "--mode", "simulate", "--axis", "Q",
                                                         "--start", "8", "--stop", "16", "--step", "8")])
    def test_trials_and_seed_out_of_range_name_the_flag(self, capsys, command, flag, value, message):
        code, lines, err = run_cli(capsys, *command, "--precoder", "zf", "--G", "2", "--L", "32", "--Q", "8",
                                   "--snr-db", "10", "--trials", "100", flag, value)
        assert (code, lines) == (1, [])
        assert err == f"error: SpecError: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("rate", "--Q", "0"), "--Q must be >= 1, got 0"),
        (("gain", "--Q", "16", "--q-prime", "0"), "--q-prime must be >= 1, got 0"),
        (("rate", "--Q", "16", "--out", "/nonexistent/x.csv"),
         "--out '/nonexistent/x.csv' cannot be written: No such file or directory"),
        (("rate", "--Q", "16", "--out", "."), "--out '.' cannot be written: Is a directory"),
    ], ids=["Q=0", "q-prime=0", "out-missing-directory", "out-directory"])
    def test_stream_counts_and_out_name_the_flag(self, capsys, argv, message):
        # each once failed as COutOfRange naming c, or with a builtin OSError
        code, lines, err = run_cli(capsys, *argv, "--precoder", "zf", "--G", "5", "--L", "64", "--snr-db", "10")
        assert (code, lines) == (1, [])
        assert err == f"error: SpecError: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("optimize", "--precoder", "rzf", "--G", "0", "--L", "10", "--snr-db", "16", "--zeta", "0.1"),
         "SpecError: --G must be >= 1, got 0"),
        (("simulate", "--precoder", "zf", "--G", "-2", "--L", "16", "--Q", "4", "--snr-db", "10", "--trials", "10"),
         "SpecError: --G must be >= 1, got -2"),
        (("sweep", "--mode", "optimize", "--precoder", "zf", "--L", "10", "--snr-db", "10", "--axis", "G",
          "--start", "-1", "--stop", "1", "--step", "1"), "SpecError: --G must be >= 1, got -1"),
        (("rate", "--precoder", "zf", "--G", "8", "--L", "10", "--Q", "1", "--snr-db", "1e300"),
         "SpecError: --snr-db 1e+300 overflows the linear power 10**(snr_db/10)"),
        (("optimize", "--precoder", "mf", "--G", "16", "--L", "16", "--snr-db", "160", "--beta", "5e-324",
          "--tc", "2", "--wc", "8"), "SearchBreakdown: search interval [1e-09, inf] is unbounded"),
        (("rate", "--precoder", "zf", "--G", "8", "--L", "10", "--Q", "1", "--snr-db", "10", "--zeta", "5e-324"),
         "SpecError: --zeta 5e-324 is too small: zeta / (G L) = 0.0 underflows at G=8, L=10"),
        (("rate", "--precoder", "rzf", "--G", "5", "--L", "64", "--Q", "16", "--snr-db", "-1545"),
         "SnrOutOfRange: snr_db=-1545 is out of range: z^2 = 1/p_t^2 overflows"),
        (("gain", "--precoder", "rzf", "--G", "5", "--L", "64", "--Q", "16", "--snr-db", "-1545"),
         "SnrOutOfRange: snr_db=-1545 is out of range: z^2 = 1/p_t^2 overflows"),
        (("optimize", "--precoder", "rzf", "--G", "5", "--L", "64", "--snr-db", "-1545", "--zeta", "0.1"),
         "SnrOutOfRange: snr_db=-1545 is out of range: z^2 = 1/p_t^2 overflows"),
    ], ids=["G=0", "simulate-G=-2", "sweep-G-axis", "snr-overflow", "mf-unbounded-interval", "zeta-underflow",
            "rzf-rate-z-squared-overflow", "rzf-gain-z-squared-overflow", "rzf-optimize-z-squared-overflow"])
    def test_builtin_failures_are_typed(self, capsys, argv, message):
        # each once failed with a builtin ZeroDivisionError, OverflowError or ArithmeticError, or printed zeta = 0.0
        assert run_cli(capsys, *argv) == (1, [], f"error: {message}\n")

    def test_rzf_just_above_the_z_squared_overflow_keeps_its_error(self, capsys):
        code, lines, err = run_cli(capsys, "rate", "--precoder", "rzf", "--G", "5", "--L", "64", "--Q", "16",
                                   "--snr-db", "-1535")
        assert (code, lines) == (1, [])
        assert err == ("error: NonPositiveB: power trace limit b=-1.1858541225631422e-154 <= 0 at c=0.25, "
                       "p_t=3.1622776601683795e-154\n")

    def test_rzf_simulation_below_the_z_squared_overflow_still_runs(self, capsys):
        # Monte Carlo RZF takes rho^2 from the trace, not from the closed-form transforms
        code, lines, err = run_cli(capsys, "simulate", "--precoder", "rzf", "--G", "5", "--L", "64", "--Q", "16",
                                   "--snr-db", "-1545", "--trials", "100")
        assert (code, err) == (0, "")
        assert lines[1] == ("rzf,64,16,5,-1545.0,0.0,0.25,2.0511357802854804e-153,2.959163418407777e-153,"
                            "2.0511357802854804e-153,monte_carlo(100;0),100,0,,,")

    @pytest.mark.parametrize("command", [("simulate", "--Q", "1600"),
                                         ("sweep", "--mode", "simulate", "--axis", "Q", "--start", "1",
                                          "--stop", "1600", "--step", "1599")])
    def test_gram_stack_over_the_cap_fails_before_any_draw(self, capsys, monkeypatch, command):
        def never(*args):
            raise AssertionError("wishart_gram called past the input-size cap")

        # never run unpatched: one trial would ask for a 6.6 GB (160, 1600, 1600) complex stack
        monkeypatch.setattr(montecarlo, "wishart_gram", never)
        code, lines, err = run_cli(capsys, *command, "--precoder", "mf", "--G", "160", "--L", "64",
                                   "--snr-db", "10", "--trials", "1")
        assert (code, lines) == (1, [])
        assert err == ("error: SpecError: --G 160 --Q 1600: one trial's Gram matrices take 6553600000 bytes, "
                       "over the cap of 1073741824\n")

    def test_underflowing_coherence_block_names_both_flags(self, capsys):
        code, lines, err = run_cli(capsys, "rate", "--precoder", "zf", "--G", "5", "--L", "64", "--Q", "16",
                                   "--snr-db", "10", "--beta", "10", "--tc", "1e-300", "--wc", "1e-300")
        assert code == 1
        assert lines == []
        assert err.startswith("error: SpecError:") and err.count("\n") == 1
        assert "--tc" in err and "--wc" in err

    @pytest.mark.parametrize("command", ["rate", "simulate"])
    def test_conflicting_group_count_rejected(self, capsys, command):
        code, lines, err = run_cli(capsys, command, "--precoder", "zf", "--G", "3", "--lambda", "10", "--gamma", "0.5",
                                   "--K", "80", "--L", "16", "--Q", "8", "--snr-db", "10", "--trials", "100")
        assert code == 1
        assert lines == []
        assert err.startswith("error: SpecError:") and err.count("\n") == 1

    def test_zero_users_rejected(self, capsys):
        code, lines, err = run_cli(capsys, "rate", "--precoder", "zf", "--lambda", "10", "--gamma", "0.5", "--K", "0",
                                   "--L", "64", "--Q", "16", "--snr-db", "10")
        assert code == 1
        assert lines == []
        assert err.startswith("error: SchemeError:") and err.count("\n") == 1

    def test_sweep_point_cap(self, capsys):
        code, lines, err = run_cli(capsys, "sweep", "--mode", "rate", "--precoder", "mf", "--G", "5", "--L", "64",
                                   "--snr-db", "10", "--axis", "Q", "--start", "1", "--stop", "1e9", "--step", "1e-9")
        assert code == 1
        assert lines == []
        assert err.startswith("error: SpecError:")

    @pytest.mark.parametrize("start, stop, step, message", [
        ("0", "100000", "1", "sweep has 100001 points, over the cap of 100000"),
        ("0", "1", "5e-324", "sweep has infinitely many points, over the cap of 100000"),
        ("1e308", "-1e308", "1", "empty sweep range"),
    ], ids=["one-over-cap", "overflow", "overflow-below-zero"])
    def test_sweep_point_count_out_of_range(self, capsys, start, stop, step, message):
        # (stop - start) / step overflows to +-inf in the last two, which no int holds
        code, lines, err = run_cli(capsys, "sweep", "--mode", "rate", "--precoder", "zf", "--G", "5", "--L", "64",
                                   "--Q", "16", "--axis", "snr_db", f"--start={start}", f"--stop={stop}", "--step", step)
        assert (code, lines) == (1, [])
        assert err == f"error: SpecError: {message}\n"


# Each subcommand's flags with their types and choices as they stood before the field table, which adds and
# removes none.
_SHARED_FLAGS = {"--help": None, "--precoder": ("mf", "zf", "rzf", "all"), "--L": "int", "--Q": "int",
                 "--q-prime": "int", "--G": "int", "--lambda": "int", "--gamma": "float", "--K": "int",
                 "--snr-db": "float", "--beta": "float", "--tc": "float", "--wc": "float", "--zeta": "float",
                 "--trials": "int", "--seed": "int", "--out": "str", "--preset": "str", "--config": "str"}
_SWEEP_FLAGS = {"--axis": ("snr_db", "Q", "L", "G"), "--start": "float", "--stop": "float", "--step": "float",
                "--mode": ("gain", "optimize", "rate", "simulate")}


class TestFieldTable:
    """The parser, config typing and domain checks all read ExperimentSpec's one field table."""

    @pytest.mark.parametrize("command", ["rate", "simulate", "optimize", "gain", "sweep"])
    def test_each_command_takes_the_same_flags(self, command):
        parser = expcli._build_parser()._subparsers._group_actions[0].choices[command]
        flags = {action.option_strings[-1]: tuple(action.choices) if action.choices else
                 None if action.nargs == 0 else getattr(action.type, "__name__", "str") for action in parser._actions}
        assert flags == (_SHARED_FLAGS | _SWEEP_FLAGS if command == "sweep" else _SHARED_FLAGS)

    def test_sweep_modes_are_the_commands(self):
        assert set(expcli._FLAGS["mode"].choices) == set(expcli._MODES)

    @pytest.mark.parametrize("argv, message", [
        (("rate", "--precoder", "rzf", "--G", "5", "--L", "64", "--Q", "16", "--snr-db", "-3235"),
         "--snr-db -3235.0 underflows the linear power 10**(snr_db/10)"),
        (("gain", "--precoder", "mf", "--G", "5", "--L", "64", "--Q", "16", "--snr-db", "-3100"),
         "--snr-db -3100.0 underflows the linear power 10**(snr_db/10)"),
        (("simulate", "--precoder", "zf", "--G", "2", "--L", "16", "--Q", "4", "--snr-db", "3083", "--trials", "10"),
         "--snr-db 3083.0 overflows the linear power 10**(snr_db/10)"),
        (("sweep", "--mode", "rate", "--precoder", "mf", "--G", "3", "--Q", "8", "--snr-db", "10", "--zeta", "0",
          "--axis", "L", "--start", "1e308", "--stop", "1e308", "--step", "1"), f"--L must be < 2**53, got {int(1e308)}"),
        (("rate", "--precoder", "mf", "--G", "3", "--L", "64", "--Q", str(10**400), "--snr-db", "10"),
         f"--Q must be < 2**53, got {10**400}"),
        (("rate", "--precoder", "mf", "--G", "5", "--L", "64", "--Q", str(2**53), "--snr-db", "10"),
         f"--Q must be < 2**53, got {2**53}"),
    ], ids=["rzf-rate-subnormal-power", "mf-gain-subnormal-power", "simulate-power-overflow", "sweep-count-overflow",
            "count-overflow", "count-inexact"])
    def test_out_of_domain_spec_names_the_flag(self, capsys, argv, message):
        # The first two printed SnrOutOfRange naming snr_db=-inf and a gain from subnormal rates; the next three
        # failed with the builtin OverflowError; the last printed a row from a count no float holds exactly.
        assert run_cli(capsys, *argv) == (1, [], f"error: SpecError: {message}\n")

    def test_linear_power_edges(self, capsys):
        base = ("rate", "--precoder", "mf", "--G", "5", "--L", "64", "--Q", "16", "--snr-db")
        assert [run_cli(capsys, *base, snr_db)[0] for snr_db in ("-3077", "-3076", "3082", "3083")] == [1, 0, 0, 1]

    def test_non_finite_row_is_a_typed_floating_point_error(self, capsys):
        assert issubclass(expcli.NonFiniteRow, FloatingPointError)
        assert run_cli(capsys, "rate", "--precoder", "zf", "--G", "1", "--L", "1000000", "--Q", "1",
                       "--snr-db", "3080") == (1, [], "error: NonFiniteRow: zf gives non-finite rate_nats, rate_bits, "
                                                      "effective_rate_nats at L=1000000, Q=1, G=1, snr_db=3080.0\n")

    def test_square_zf_simulation_is_a_typed_error(self, capsys):
        assert run_cli(capsys, "simulate", "--precoder", "zf", "--G", "2", "--L", "16", "--Q", "16", "--snr-db", "10",
                       "--trials", "150") == (1, [], "error: ZfPowerUnbounded: exact ZF power factor needs L > Q, "
                                                     "got Q=16, L=16\n")

    @pytest.mark.parametrize("text", ["{bad", "[1, 2", ""])
    def test_malformed_config_file_names_the_file(self, capsys, tmp_path, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            reason = str(exc)
        assert run_cli(capsys, "rate", "--config", str(cfg)) == (1, [], f"error: SpecError: config file {str(cfg)!r}: "
                                                                        f"{reason}\n")

    def test_missing_config_file_names_the_file(self, capsys, tmp_path):
        code, lines, err = run_cli(capsys, "rate", "--config", str(tmp_path / "none.json"))
        assert (code, lines) == (1, [])
        assert err.startswith(f"error: SpecError: config file {str(tmp_path / 'none.json')!r}: ")

    @pytest.mark.parametrize("field, value, message", [
        ("precoder", "bogus", "--precoder must be one of mf, zf, rzf, all; got 'bogus'"),
        ("axis", "q", "--axis must be one of snr_db, Q, L, G; got 'q'"),
        ("mode", "RATE", "--mode must be one of gain, optimize, rate, simulate; got 'RATE'"),
    ])
    def test_config_value_outside_the_choices(self, capsys, tmp_path, field, value, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({field: value}))
        flags = {"--precoder": "zf", "--axis": "snr_db", "--mode": "rate", "--G": "5", "--L": "64", "--Q": "16",
                 "--start": "0", "--stop": "1", "--step": "1"}
        del flags[f"--{field}"]  # a flag would override the config value
        argv = (x for kv in flags.items() for x in kv)
        assert run_cli(capsys, "sweep", "--config", str(cfg), *argv) == (1, [], f"error: SpecError: {message}\n")

    def test_config_precoder_in_any_case(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"precoder": "ZF"}))
        argv = ("--G", "5", "--L", "64", "--Q", "16", "--snr-db", "10")
        assert run_cli(capsys, "rate", "--config", str(cfg), *argv) == run_cli(capsys, "rate", "--precoder", "zf", *argv)

    def test_help_states_type_and_domain(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--seed SEED Monte Carlo seed (default 0) [int, >= 0, < 2**64]" in out
        assert "--tc TC coherence time in seconds [float, > 0]" in out


# 0.07 at G = 7, L = 100 is one of the (zeta, G, L) triples where the model's coefficient is an ulp off the typed one.
ZETA_POINT = ("--zeta", "0.07", "--G", "7", "--L", "100", "--Q", "8", "--snr-db", "10", "--precoder", "all")
INFEASIBLE = ("--precoder", "zf", "--G", "5", "--L", "64", "--Q", "16", "--snr-db", "10", "--zeta", "10",
              "--trials", "100")


class TestCsiOverhead:
    """Every row takes its zeta from one CSI cost model and its effective rate from one data-share rule."""

    @pytest.mark.parametrize("command", ["rate", "simulate", "optimize", "gain"])
    def test_row_uses_model_zeta_and_data_share(self, capsys, command):
        code, lines, _ = run_cli(capsys, command, *ZETA_POINT, "--trials", "100")
        assert code == 0
        # --zeta is the model whose coefficient at the row's (G, L) is zeta, linear in G
        zeta = csi_zeta(CsiCostModel(beta_tot=0.07 / (7 * 100), t_c=1.0, w_c=1.0), 7, 100)
        assert zeta != 0.07
        for row in parse(lines):
            assert float(row["zeta"]) == zeta
            assert float(row["effective_rate_nats"]) == data_share(int(row["Q"]) / 100, zeta) * float(row["rate_nats"])

    @pytest.mark.parametrize("command", ["rate", "gain", "simulate"])
    def test_infeasible_fixed_q_fails_before_any_draw(self, capsys, monkeypatch, command):
        calls = _counting_draws(monkeypatch)
        assert run_cli(capsys, command, *INFEASIBLE) == (
            1, [], "error: CsiOverheadExceedsBlock: c * zeta = 2.5 > 1 leaves no resources for data\n")
        assert calls == []

    def test_zeta_overrides_preset_csi(self, capsys):
        code, lines, _ = run_cli(capsys, "sweep", "--preset", "fig1", "--zeta", "0.1")
        assert code == 0 and len(lines) == 1 + 3 * 63
        assert run_cli(capsys, "sweep", "--mode", "rate", "--precoder", "all", "--L", "64", "--G", "5",
                       "--snr-db", "10", "--axis", "Q", "--start", "1", "--stop", "63", "--step", "1",
                       "--zeta", "0.1") == (0, lines, "")


class TestEmptyFeasibleInterval:
    """Each search fails with one typed line when c * zeta <= 1 leaves no ratio above 1e-9, and
    RZF refines over all of (0, 1/zeta) when that is narrower than its grid step."""

    @pytest.mark.parametrize("precoder, zeta, error", [
        ("mf", "1e300", "no feasible stream ratio in [1e-09, 5e-301]"),
        ("zf", "1e300", "no feasible stream ratio in [1e-09, 1e-300]"),
        ("rzf", "1e300", "no feasible stream ratio in [1e-09, 1e-300]"),
        ("rzf", "1e16", "no feasible stream ratio in [1e-09, 1e-16]"),
        ("rzf", "1e9", "no feasible stream ratio in [1e-09, 1e-09]"),
        ("mf", "2000", "no evaluable stream count among [1]"),
        ("zf", "2000", "no evaluable stream count among [1]"),
        ("rzf", "2000", "no evaluable stream count among [1]"),
    ])
    def test_error_line(self, capsys, precoder, zeta, error):
        assert run_cli(capsys, "optimize", "--precoder", precoder, "--G", "5", "--L", "64", "--snr-db", "10",
                       "--zeta", zeta) == (1, [], f"error: EmptyFeasibleSet: {error}\n")

    @pytest.mark.parametrize("precoder, c_star", [("zf", 0.0003131568093725257), ("rzf", 0.0003130823037528391)])
    def test_interval_below_one_grid_step(self, capsys, precoder, c_star):
        code, lines, _ = run_cli(capsys, "optimize", "--precoder", precoder, "--G", "5", "--L", "2048",
                                 "--snr-db", "10", "--zeta", "1500")
        assert code == 0
        row = parse(lines)[0]
        assert (row["q_star"], float(row["c_star"])) == ("1", c_star)


class TestHighSnr:
    RZF = ("--precoder", "rzf", "--G", "1", "--L", "64")

    @pytest.mark.parametrize("command, snr_db, error", [
        ("rate", "1000", "NonPositiveB"),  # the two RZF power-factor paths part ways
        ("rate", "2000", "SnrOutOfRange"),
        ("optimize", "2000", "SnrOutOfRange"),
    ])
    def test_typed_error_line(self, capsys, command, snr_db, error):
        streams = ("--Q", "16") if command == "rate" else ()
        code, lines, err = run_cli(capsys, command, *self.RZF, *streams, "--snr-db", snr_db)
        assert code == 1
        assert lines == []
        assert err.startswith(f"error: {error}:") and err.count("\n") == 1
        if error == "SnrOutOfRange":
            assert f"snr_db={snr_db}" in err


# The benchmark's mc-hardening call: 5 SNRs x 3 precoders on one (seed, trials, G, Q, L) ensemble.
HARDENING = ["sweep", "--mode", "simulate", "--axis", "snr_db", "--start", "0", "--stop", "20", "--step", "5",
             "--precoder", "all", "--G", "5", "--L", "256", "--Q", "16", "--trials", "100", "--seed", "7"]


def _counting_draws(monkeypatch) -> list:
    calls = []
    draw = montecarlo.wishart_gram

    def counted(*args):
        calls.append(args[1:])
        return draw(*args)

    monkeypatch.setattr(montecarlo, "wishart_gram", counted)
    return calls


class TestSharedEnsembles:
    def test_sweep_equals_per_point_per_precoder_simulate_calls(self, capsys):
        sweep = ["sweep", "--mode", "simulate", "--axis", "snr_db", "--start", "0", "--stop", "20", "--step", "10",
                 "--precoder", "all", "--G", "3", "--L", "32", "--Q", "8", "--trials", "100", "--seed", "4"]
        code, lines, _ = run_cli(capsys, *sweep)
        assert code == 0
        expected = [HEADER]
        for snr in ("0.0", "10.0", "20.0"):
            for name in ("mf", "zf", "rzf"):
                code, single, _ = run_cli(capsys, "simulate", "--precoder", name, "--G", "3", "--L", "32", "--Q", "8",
                                          "--snr-db", snr, "--trials", "100", "--seed", "4")
                assert code == 0 and single[0] == HEADER
                expected += single[1:]
        assert lines == expected

    def test_hardening_call_draws_each_trial_once(self, capsys, monkeypatch):
        calls = _counting_draws(monkeypatch)
        assert run_cli(capsys, *HARDENING)[0] == 0
        assert len(calls) == 100 and set(calls) == {(5, 16, 256)}

    @pytest.mark.parametrize("rows_per_pass, passes", [(2, 4), (1, 7)])
    def test_pass_split_keeps_output(self, capsys, monkeypatch, rows_per_pass, passes):
        code, lines, _ = run_cli(capsys, *HARDENING)
        assert code == 0
        calls = _counting_draws(monkeypatch)
        stacks, draw = [], montecarlo._draw

        def kept_alphas(W, alphas):
            stacks.append(alphas)
            return draw(W, alphas)

        monkeypatch.setattr(montecarlo, "_draw", kept_alphas)
        # every kernel row (MF, ZF and each of the 5 RZF alphas) stores two (trials, G*Q) float arrays, and each
        # ZF and RZF row adds a (G, Q, Q) complex stack to one draw's inverse
        for cap, row_bytes in (("_PASS_BYTES", 2 * 100 * 5 * 16 * 8), ("_INVERSE_BYTES", 16 * 5 * 16 * 16)):
            calls.clear()
            stacks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, cap, rows_per_pass * row_bytes)
                assert run_cli(capsys, *HARDENING) == (0, lines, ""), cap
            assert len(calls) == passes * 100, cap
            assert 0 < max(len(s) for s in stacks) <= rows_per_pass, cap


class TestOutputStability:
    SIM_ARGS = ("simulate", "--precoder", "rzf", "--G", "3", "--L", "16", "--Q", "8",
                "--snr-db", "10", "--trials", "120", "--seed", "5")

    def test_simulate_bit_stable_across_runs_and_workers(self, tmp_path, trial_workers):
        out = [tmp_path / f"run{i}.csv" for i in range(3)]
        trial_workers(1)
        assert main([*self.SIM_ARGS, "--out", str(out[0])]) == 0
        assert main([*self.SIM_ARGS, "--out", str(out[1])]) == 0
        trial_workers(2)
        assert main([*self.SIM_ARGS, "--out", str(out[2])]) == 0
        golden = out[0].read_bytes()
        assert out[1].read_bytes() == golden
        assert out[2].read_bytes() == golden

    @pytest.mark.parametrize("workers", [2, 4])
    def test_hardening_sweep_byte_equal_serial_and_threaded(self, capsys, trial_workers, workers):
        # five SNRs of MF, ZF and RZF: one ensemble whose ZF and RZF rows share one stacked inverse; four
        # threads on a short switch interval stress each thread's own re-keyed generator
        trial_workers(1)
        serial = run_cli(capsys, *HARDENING)
        trial_workers(workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = run_cli(capsys, *HARDENING)
        finally:
            sys.setswitchinterval(interval)
        assert serial[0] == 0 and threaded == serial

    def test_simulate_sweep_matches_golden(self, capsys):
        """Guards the random stream: text fields exactly, numbers to 1e-12 relative (bit-exactness
        holds only within one numpy/BLAS build)."""
        code, lines, _ = run_cli(capsys, "sweep", "--mode", "simulate", "--precoder", "all", "--axis", "snr_db",
                                 "--start", "0", "--stop", "20", "--step", "10", "--G", "2", "--L", "16", "--Q", "4",
                                 "--trials", "100", "--seed", "13")
        golden = SIMULATE_GOLDEN.read_text().splitlines()
        assert code == 0 and len(lines) == len(golden) == 10
        for line, want in zip(lines, golden):
            for got, ref in zip(line.split(","), want.split(","), strict=True):
                try:
                    assert math.isclose(float(got), float(ref), rel_tol=1e-12), (got, ref)
                except ValueError:
                    assert got == ref

    def test_reused_parser_prints_what_fresh_parsers_print(self, capsys):
        calls = (
            ("sweep", "--mode", "simulate", "--precoder", "all", "--axis", "snr_db", "--start", "0", "--stop", "10",
             "--step", "10", "--G", "2", "--L", "16", "--Q", "4", "--trials", "100", "--seed", "3", "--zeta", "0.1"),
            ("rate", "--precoder", "zf", "--G", "5", "--L", "64", "--Q", "16", "--snr-db", "10"),
            ("simulate", "--precoder", "mf", "--G", "2", "--L", "16", "--Q", "4", "--snr-db", "10", "--trials", "100"),
        )
        reused = [run_cli(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            expcli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert reused == fresh
        assert all(code == 0 for code, _, _ in fresh)

    def test_run_accepts_spec_object(self, tmp_path):
        spec = ExperimentSpec(command="rate", precoder="zf", G=5, L=64, Q=16, snr_db=10.0, zeta=0.0,
                              out=str(tmp_path / "rate.csv"))
        assert run(spec) == 0
        assert (tmp_path / "rate.csv").read_text().splitlines()[0] == HEADER


_INTS = st.one_of(st.sampled_from([-1, 0, 1, 2, 64, 10**6, 10**9, 2**63]), st.integers(-2, 300))
_OPTIONAL_INTS = st.one_of(st.none(), _INTS)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


class TestInputDomainProperty:
    """Every spec either computes finite rows or fails with one error line."""

    @given(
        command=st.sampled_from(["rate", "gain", "optimize"]),
        precoder=st.sampled_from(["mf", "zf", "rzf", "all"]),
        L=_INTS, Q=_INTS, q_prime=_OPTIONAL_INTS, G=_OPTIONAL_INTS, lambda_states=_OPTIONAL_INTS, K=_OPTIONAL_INTS,
        gamma=st.one_of(st.none(), st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.9, 1.0]), _FLOATS),
        snr_db=st.one_of(st.sampled_from([-400.0, -100.0, -90.0, 0.0, 10.0, 160.0, 1600.0, 3080.0]), _FLOATS),
        zeta=st.one_of(st.none(), st.sampled_from([0.0, 1e-300, 0.3, 1.0, 1e300]), _FLOATS),
        beta=st.one_of(st.none(), st.sampled_from([0.0, 10.0, 1e300]), _FLOATS),
        tc=st.one_of(st.none(), st.sampled_from([0.04, 1e-300, 1e300]), _FLOATS),
        wc=st.one_of(st.none(), st.sampled_from([300e3, 1e-300, 1e300]), _FLOATS),
    )
    @settings(max_examples=100, deadline=None)
    # ZF overflows to inf and RZF's power constants to NaN; RZF at c > 1 warns before c' = 0 fails.
    @example(command="rate", precoder="zf", L=10**6, Q=1, q_prime=None, G=1, lambda_states=None, K=None,
             gamma=None, snr_db=3080.0, zeta=None, beta=None, tc=None, wc=None)
    @example(command="rate", precoder="rzf", L=64, Q=16, q_prime=None, G=1, lambda_states=None, K=None,
             gamma=None, snr_db=1600.0, zeta=None, beta=None, tc=None, wc=None)
    @example(command="gain", precoder="rzf", L=4, Q=8, q_prime=0, G=2, lambda_states=None, K=None,
             gamma=None, snr_db=10.0, zeta=None, beta=None, tc=None, wc=None)
    # --zeta given next to --beta/--tc/--wc overrides them.
    @example(command="optimize", precoder="all", L=64, Q=8, q_prime=None, G=6, lambda_states=None, K=None,
             gamma=None, snr_db=10.0, zeta=0.3, beta=10.0, tc=0.04, wc=300e3)
    def test_finite_rows_or_one_error_line(self, **fields):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            code = run(ExperimentSpec(**fields))
        if code == 0:
            rows = parse(out.getvalue().splitlines())
            assert rows
            for row in rows:
                for col in CSV_COLUMNS:
                    if col not in ("precoder", "source") and row[col] != "":
                        assert math.isfinite(float(row[col])), (col, row)
        else:
            assert code == 1
            assert out.getvalue() == "" and shown == []
            assert re.fullmatch(r"error: [A-Za-z_]\w*: [^\n]*\n", err.getvalue()), err.getvalue()


# Every exception class that a ccdl module defines: the only names a failing run may print.
CCDL_ERRORS = {obj.__name__ for module in (analytic, channel, expcli, montecarlo, optimizer, precoding, scheme)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__.startswith("ccdl.")}
_EDGE_SNRS = [-3236.0, -3100.0, -3077.0, -3076.0, -1545.0, -90.0, 160.0, 1600.0, 3080.0, 3082.0, 3083.0]
# Fields that may take edge values, which can be out of domain; "choice" stands for --precoder, --axis and --mode
_WILD = ("L", "Q", "q_prime", "G", "lambda_states", "K", "gamma", "snr_db", "zeta", "beta", "tc", "wc", "trials",
         "seed", "start", "step", "choice", "out")


@st.composite
def _cli_runs(draw):
    """(command, spec fields, names of the fields given by --config rather than by flags).

    Up to two fields are wild and take edge values; the rest take ordinary ones, so that some runs compute rows.
    """
    command = draw(st.sampled_from(["rate", "gain", "optimize", "simulate", "sweep"]))
    mode = draw(st.sampled_from([None, "rate", "gain", "optimize", "simulate"])) if command == "sweep" else None
    wild = draw(st.sets(st.sampled_from(_WILD), max_size=2))

    def value(name, ordinary, edge):
        return draw(edge if name in wild else ordinary)

    # Monte Carlo runs take small shapes and few trials; the closed forms take any size.
    simulating = "simulate" in (command, mode)
    count, edge_count = (st.integers(1, 16), st.integers(-1, 0)) if simulating else (st.integers(1, 300), _INTS)
    scheme = draw(st.booleans())  # the group count from --lambda and --gamma, else from --G
    fields = dict(
        precoder=draw(st.sampled_from(["mf", "zf", "rzf", "all"])), L=value("L", count, edge_count),
        Q=value("Q", count, edge_count), q_prime=value("q_prime", st.none() | count, edge_count),
        G=value("G", st.none() if scheme else count, st.none() | edge_count),
        snr_db=value("snr_db", st.floats(-30, 60), st.sampled_from(_EDGE_SNRS) | _FLOATS),
        zeta=value("zeta", st.none() | st.sampled_from([0.0, 0.01, 0.3]), st.sampled_from([1e-300, 1e300]) | _FLOATS),
        out=value("out", st.none(), st.sampled_from(["/nonexistent/x.csv", "."])),  # a wild --out is unwritable
    )
    if scheme:
        fields.update(lambda_states=value("lambda_states", count, edge_count),
                      K=value("K", st.none() | count, edge_count),
                      gamma=value("gamma", st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), _FLOATS))
    if draw(st.booleans()):
        fields.update(beta=value("beta", st.sampled_from([0.0, 10.0]), _FLOATS),
                      tc=value("tc", st.just(0.04), st.just(1e-300) | _FLOATS),
                      wc=value("wc", st.just(300e3), st.just(1e-300) | _FLOATS))
    if simulating:
        fields.update(trials=value("trials", st.integers(1, 3), st.integers(-1, 0)),
                      seed=value("seed", st.sampled_from([0, 7, 2**64 - 1]), st.sampled_from([-1, 2**64])))
    if command == "sweep":
        edges = st.sampled_from([-2.0, 0.0, 12.5, -1e308, 1e308])  # a Monte Carlo Q axis from any float could draw 1 GB
        start = value("start", st.sampled_from([1.0, 2.0, 8.0]), edges if mode == "simulate" else edges | _FLOATS)
        fields.update(mode=mode, axis=draw(st.sampled_from(["snr_db", "Q", "L", "G"])), start=start,
                      stop=start + draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0])),
                      step=value("step", st.sampled_from([0.5, 1.0]), st.sampled_from([-1.0, 0.0, 5e-324])))
    fields = {name: value for name, value in fields.items() if value is not None}
    in_config = draw(st.sets(st.sampled_from(sorted(fields))))
    for name in in_config & {"precoder", "axis", "mode"} if "choice" in wild else ():
        # config values are not checked by argparse: any case, and values outside the choices
        fields[name] = draw(st.sampled_from([fields[name].upper(), "bogus"]))
    return command, fields, in_config


def _flag(name: str) -> str:
    return "--lambda" if name == "lambda_states" else "--" + name.replace("_", "-")


class TestTypedErrorProperty:
    """On all five commands, with flags and a config file, every run computes finite rows or
    fails with one error line naming an exception class that ccdl defines."""

    @given(cli_run=_cli_runs())
    @settings(max_examples=300, deadline=None)
    @example(cli_run=("rate", dict(precoder="rzf", G=5, L=64, Q=16, snr_db=-3235.0), set()))
    @example(cli_run=("rate", dict(precoder="mf", G=5, L=64, Q=16, snr_db=10.0, out="/nonexistent/x.csv"), set()))
    @example(cli_run=("gain", dict(precoder="MF", G=5, L=64, Q=16, snr_db=-3100.0), {"precoder", "snr_db"}))
    @example(cli_run=("rate", dict(precoder="zf", G=1, L=10**6, Q=1, snr_db=3080.0), set()))
    @example(cli_run=("simulate", dict(precoder="zf", G=2, L=16, Q=4, snr_db=3083.0, trials=3), set()))
    @example(cli_run=("optimize", dict(precoder="rzf", G=0, L=10, snr_db=16.0, zeta=0.1), set()))
    @example(cli_run=("optimize", dict(precoder="mf", G=16, L=16, snr_db=160.0, beta=5e-324, tc=2.0, wc=8.0), set()))
    @example(cli_run=("rate", dict(precoder="zf", G=8, L=10, Q=1, snr_db=10.0, zeta=5e-324), {"zeta"}))
    @example(cli_run=("simulate", dict(precoder="mf", G=160, L=64, Q=1600, snr_db=10.0, trials=1), set()))
    @example(cli_run=("sweep", dict(mode="simulate", axis="G", start=-1.0, stop=1.0, step=1.0, precoder="zf", L=8,
                                    Q=2, snr_db=10.0, trials=3), {"mode", "axis"}))
    @example(cli_run=("sweep", dict(mode="RATE", axis="q", start=1.0, stop=2.0, step=1.0, precoder="bogus", L=8,
                                    Q=2, G=2, snr_db=10.0), {"mode", "axis", "precoder"}))
    def test_finite_rows_or_one_typed_error_line(self, tmp_path_factory, cli_run):
        command, fields, in_config = cli_run
        argv = [command, *(f"{_flag(name)}={value}" for name, value in fields.items() if name not in in_config)]
        if in_config:
            config = tmp_path_factory.getbasetemp() / "typed-error-property.json"
            config.write_text(json.dumps({name: fields[name] for name in in_config}))
            argv += ["--config", str(config)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            code = main(argv)
        if code == 0:
            rows = parse(out.getvalue().splitlines())
            assert rows
            for row in rows:
                for col in CSV_COLUMNS:
                    if col not in ("precoder", "source") and row[col] != "":
                        assert math.isfinite(float(row[col])), (col, row)
        else:
            assert code == 1
            assert out.getvalue() == "" and shown == []
            line = re.fullmatch(r"error: (\w+): [^\n]*\n", err.getvalue())
            assert line and line[1] in CCDL_ERRORS, err.getvalue()
