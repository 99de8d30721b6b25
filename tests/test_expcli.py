"""CLI surface: subcommands, presets, config precedence, CSV stability."""

import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccdl import expcli, montecarlo
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
    """Each search fails with one typed line when c * zeta <= 1 leaves no ratio, and RZF
    refines over all of (0, 1/zeta) when that is narrower than its grid step."""

    @pytest.mark.parametrize("precoder, zeta, error", [
        ("mf", "1e300", "no feasible stream ratio in [1e-09, 5e-301]"),
        ("zf", "1e300", "no feasible stream ratio in [1e-09, 1e-300]"),
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
        # every kernel row (MF, ZF and each of the 5 RZF alphas) stores two (trials, G*Q) float arrays
        monkeypatch.setattr(montecarlo, "_PASS_BYTES", rows_per_pass * 2 * 100 * 5 * 16 * 8)
        assert run_cli(capsys, *HARDENING) == (0, lines, "")
        assert len(calls) == passes * 100


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
