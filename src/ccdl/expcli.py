"""Command-line experiment runner emitting plot-ready CSV.

Subcommands: ``rate`` (closed forms), ``simulate`` (Monte Carlo),
``optimize`` (per-precoder stream-count optimization and optimized gain),
``gain`` (fixed-Q effective gain over the cacheless baseline), and
``sweep`` (any of the above along one axis).  Named presets pin the
scenario parameters behind the shipped figure reproductions.

CSV schema (fixed column order, empty fields where not applicable)::

    precoder,L,Q,G,snr_db,zeta,c,rate_nats,rate_bits,effective_rate_nats,
    source,trials,seed,c_star,q_star,gain

Sweep points are evaluated independently (optionally in parallel, capped
by the CCDL_THREADS environment variable) and written in axis order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

from ccdl import analytic, montecarlo, optimizer, scheme
from ccdl._parallel import map_ordered
from ccdl.analytic import CsiCostModel, RateInputs
from ccdl.channel import RngSeed
from ccdl.precoding import PrecoderKind

CSV_COLUMNS = [
    "precoder",
    "L",
    "Q",
    "G",
    "snr_db",
    "zeta",
    "c",
    "rate_nats",
    "rate_bits",
    "effective_rate_nats",
    "source",
    "trials",
    "seed",
    "c_star",
    "q_star",
    "gain",
]

ALL_PRECODERS = ("mf", "zf", "rzf")

# Pilot accounting shared by every shipped preset: 10 pilot resources per
# served user per block, 40 ms coherence time, 300 kHz coherence bandwidth.
PRESET_CSI = CsiCostModel(beta_tot=10.0, t_c=0.04, w_c=300e3)


class UnknownPreset(ValueError):
    pass


class SpecError(ValueError):
    """A run specification is incomplete or inconsistent."""


@dataclass
class ExperimentSpec:
    """Fully resolved description of one CLI invocation."""

    command: str
    precoder: str | None = None
    L: int | None = None
    Q: int | None = None
    q_prime: int | None = None
    G: int | None = None
    lambda_states: int | None = None
    gamma: float | None = None
    K: int | None = None
    snr_db: float | None = None
    beta: float | None = None
    tc: float | None = None
    wc: float | None = None
    zeta: float | None = None
    trials: int = 1000
    seed: int = 0
    out: str | None = None
    axis: str | None = None
    start: float | None = None
    stop: float | None = None
    step: float | None = None
    mode: str | None = None
    preset: str | None = None


def preset(name: str) -> ExperimentSpec:
    """Named experiment specs reproducing the shipped figure scenarios.

    fig1      effective rate versus stream count for all three precoders
              (10 dB, G=5, L=64).
    fig2-L32  optimized gain versus SNR at 32 antennas (G=6).
    fig2-L64  optimized gain versus SNR at 64 antennas (G=6).
    fig3-L64  fixed-Q (hardening-constrained) gain versus SNR, Q=8 on
              both sides (G=6, L=64).

    The fig2/fig3 presets default to ZF; pass --precoder to override.
    """
    csi = dict(beta=PRESET_CSI.beta_tot, tc=PRESET_CSI.t_c, wc=PRESET_CSI.w_c)
    if name == "fig1":
        return ExperimentSpec(
            command="sweep", mode="rate", precoder="all", L=64, G=5, snr_db=10.0,
            axis="Q", start=1, stop=63, step=1, **csi,
        )
    if name in ("fig2-L32", "fig2-L64"):
        return ExperimentSpec(
            command="sweep", mode="optimize", precoder="zf", L=32 if name.endswith("32") else 64,
            G=6, axis="snr_db", start=0, stop=25, step=1, **csi,
        )
    if name == "fig3-L64":
        return ExperimentSpec(
            command="sweep", mode="gain", precoder="zf", L=64, G=6, Q=8,
            axis="snr_db", start=0, stop=25, step=1, **csi,
        )
    raise UnknownPreset(f"no preset named {name!r}")


def _merge(base: ExperimentSpec, override: dict) -> ExperimentSpec:
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    for key, value in override.items():
        if key not in fields:
            raise SpecError(f"unknown spec field {key!r}")
        if value is not None:
            setattr(base, key, value)
    return base


def _require(spec: ExperimentSpec, *names: str) -> None:
    missing = [n for n in names if getattr(spec, n) is None]
    if missing:
        raise SpecError(f"{spec.command} needs {', '.join('--' + n.replace('_', '-') for n in missing)}")


_FLOAT_FIELDS = ("snr_db", "gamma", "beta", "tc", "wc", "zeta", "start", "stop", "step")


def _check_domain(spec: ExperimentSpec) -> None:
    """Reject non-finite float fields and an antenna count below one."""
    bad = [n for n in _FLOAT_FIELDS if getattr(spec, n) is not None and not math.isfinite(getattr(spec, n))]
    if bad:
        raise SpecError(f"{', '.join('--' + n.replace('_', '-') for n in bad)} must be finite")
    if spec.L is not None and spec.L < 1:
        raise SpecError(f"--L must be >= 1, got {spec.L}")


def _p_t(spec: ExperimentSpec) -> float:
    return 10.0 ** (spec.snr_db / 10.0)


def _zeta_model(spec: ExperimentSpec, G: int, L: int) -> tuple[float, CsiCostModel]:
    """Overhead coefficient for this G plus a model reproducing it.

    An explicit --zeta pins the coefficient at the cache-aided group count
    and scales as zeta * G'/G for other G' (the coefficient is linear in
    the served group count).  Without CSI flags the overhead is zero.
    """
    if spec.zeta is not None:
        if spec.beta is not None:
            raise SpecError("give either --zeta or --beta/--tc/--wc, not both")
        model = CsiCostModel(beta_tot=spec.zeta / (G * L) if spec.zeta else 0.0, t_c=1.0, w_c=1.0)
        return spec.zeta, model
    if spec.beta is not None:
        _require(spec, "tc", "wc")
        model = CsiCostModel(beta_tot=spec.beta, t_c=spec.tc, w_c=spec.wc)
        return analytic.csi_zeta(model, G, L), model
    return 0.0, CsiCostModel(beta_tot=0.0, t_c=1.0, w_c=1.0)


def _group_count(spec: ExperimentSpec) -> int:
    if spec.G is not None:
        return spec.G
    if spec.lambda_states is not None and spec.gamma is not None:
        checked = scheme.validate(
            scheme.SchemeConfig(
                L=spec.L, snr_db=spec.snr_db or 0.0, lambda_states=spec.lambda_states,
                gamma=spec.gamma, K=spec.K or spec.lambda_states * (spec.Q or 1),
                Q=spec.Q or 1, precoder="MF",
            )
        )
        return checked.G
    raise SpecError("need --G or --lambda with --gamma")


def _precoders(spec: ExperimentSpec) -> list[str]:
    if spec.precoder is None:
        raise SpecError("need --precoder (mf, zf, rzf, or all)")
    name = spec.precoder.lower()
    if name == "all":
        return list(ALL_PRECODERS)
    if name not in ALL_PRECODERS:
        raise SpecError(f"unknown precoder {spec.precoder!r}")
    return [name]


def _row(**values) -> dict:
    row = {col: "" for col in CSV_COLUMNS}
    row.update(values)
    return row


def _rate_rows(spec: ExperimentSpec) -> list[dict]:
    _require(spec, "L", "Q", "snr_db")
    G = _group_count(spec)
    p_t = _p_t(spec)
    zeta, _ = _zeta_model(spec, G, spec.L)
    rows = []
    for name in _precoders(spec):
        report = analytic.effective_rate(name, RateInputs.from_streams(G, spec.Q, spec.L, p_t), zeta=zeta)
        rows.append(
            _row(
                precoder=name, L=spec.L, Q=spec.Q, G=G, snr_db=spec.snr_db, zeta=zeta,
                c=spec.Q / spec.L, rate_nats=report.avg_sum_rate_nats,
                rate_bits=report.avg_sum_rate_nats / math.log(2),
                effective_rate_nats=report.effective_rate_nats, source=report.source,
            )
        )
    return rows


def _simulate_rows(spec: ExperimentSpec) -> list[dict]:
    _require(spec, "L", "Q", "snr_db")
    G = _group_count(spec)
    zeta, _ = _zeta_model(spec, G, spec.L)
    rows = []
    for name in _precoders(spec):
        if spec.lambda_states is not None and spec.gamma is not None:
            checked = scheme.validate(
                scheme.SchemeConfig(
                    L=spec.L, snr_db=spec.snr_db, lambda_states=spec.lambda_states,
                    gamma=spec.gamma, K=spec.K or spec.lambda_states * spec.Q,
                    Q=spec.Q, precoder=name,
                )
            )
        else:
            checked = scheme.scheme_for_gain(spec.L, spec.snr_db, G, spec.Q, K=spec.K, precoder=name)
        est = montecarlo.estimate_sum_rate(
            montecarlo.McConfig(
                trials=spec.trials, seed=RngSeed(spec.seed), scheme=checked, precoder=PrecoderKind(name.upper()),
            )
        )
        c = spec.Q / spec.L
        rows.append(
            _row(
                precoder=name, L=spec.L, Q=spec.Q, G=G, snr_db=spec.snr_db, zeta=zeta, c=c,
                rate_nats=est.mean, rate_bits=est.mean / math.log(2),
                effective_rate_nats=(1.0 - c * zeta) * est.mean,
                source=f"monte_carlo({spec.trials};{spec.seed})",
                trials=spec.trials, seed=spec.seed,
            )
        )
    return rows


def _optimize_rows(spec: ExperimentSpec) -> list[dict]:
    _require(spec, "L", "snr_db")
    G = _group_count(spec)
    p_t = _p_t(spec)
    rows = []
    for name in _precoders(spec):
        zeta, model = _zeta_model(spec, G, spec.L)
        report = optimizer.optimized_gain(name, G, spec.L, p_t, model)
        q_star = report.cached.q_star
        raw = analytic.effective_rate(name, RateInputs.from_streams(G, q_star, spec.L, p_t), model)
        rows.append(
            _row(
                precoder=name, L=spec.L, Q=q_star, G=G, snr_db=spec.snr_db, zeta=zeta,
                c=q_star / spec.L, rate_nats=raw.avg_sum_rate_nats,
                rate_bits=raw.avg_sum_rate_nats / math.log(2),
                effective_rate_nats=report.cached.effective_rate_at_q_star,
                source="closed_form", c_star=report.cached.c_star, q_star=q_star, gain=report.gain,
            )
        )
    return rows


def _gain_rows(spec: ExperimentSpec) -> list[dict]:
    _require(spec, "L", "Q", "snr_db")
    G = _group_count(spec)
    p_t = _p_t(spec)
    q_prime = spec.q_prime if spec.q_prime is not None else spec.Q
    zeta, model = _zeta_model(spec, G, spec.L)
    rows = []
    for name in _precoders(spec):
        num = analytic.effective_rate(name, RateInputs.from_streams(G, spec.Q, spec.L, p_t), model)
        den = analytic.effective_rate(name, RateInputs.from_streams(1, q_prime, spec.L, p_t), model)
        if den.effective_rate_nats == 0:
            raise analytic.ZeroDenominator("cacheless effective rate is zero")
        rows.append(
            _row(
                precoder=name, L=spec.L, Q=spec.Q, G=G, snr_db=spec.snr_db, zeta=zeta,
                c=spec.Q / spec.L, rate_nats=num.avg_sum_rate_nats,
                rate_bits=num.avg_sum_rate_nats / math.log(2),
                effective_rate_nats=num.effective_rate_nats, source="closed_form",
                gain=num.effective_rate_nats / den.effective_rate_nats,
            )
        )
    return rows


_MODE_BUILDERS = {
    "rate": _rate_rows,
    "simulate": _simulate_rows,
    "optimize": _optimize_rows,
    "gain": _gain_rows,
}

_INT_AXES = ("Q", "L", "G")
_MAX_SWEEP_POINTS = 100_000


def _axis_values(spec: ExperimentSpec) -> list:
    _require(spec, "axis", "start", "stop", "step")
    if spec.axis not in ("snr_db", "Q", "L", "G"):
        raise SpecError(f"sweep axis must be one of snr_db, Q, L, G; got {spec.axis!r}")
    if spec.step <= 0:
        raise SpecError("sweep step must be positive")
    count = int(math.floor((spec.stop - spec.start) / spec.step + 1e-9)) + 1
    if count < 1:
        raise SpecError("empty sweep range")
    if count > _MAX_SWEEP_POINTS:
        raise SpecError(f"sweep has {count} points, over the cap of {_MAX_SWEEP_POINTS}")
    values = [spec.start + i * spec.step for i in range(count)]
    if spec.axis in _INT_AXES:
        ints = [int(round(v)) for v in values]
        if any(abs(v - i) > 1e-9 for v, i in zip(values, ints)):
            raise SpecError(f"axis {spec.axis} requires integer sweep values")
        return ints
    return values


def _sweep_rows(spec: ExperimentSpec) -> list[dict]:
    mode = spec.mode or "rate"
    if mode not in _MODE_BUILDERS:
        raise SpecError(f"sweep mode must be one of {sorted(_MODE_BUILDERS)}; got {mode!r}")
    values = _axis_values(spec)

    def one_point(value) -> list[dict]:
        point = dataclasses.replace(spec, **{spec.axis: value})
        _check_domain(point)
        return _MODE_BUILDERS[mode](point)

    return [row for rows in map_ordered(one_point, values) for row in rows]


def _format(value) -> str:
    if value == "":
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(rows: list[dict], out: str | None) -> None:
    stream = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format(row[col]) for col in CSV_COLUMNS])
    finally:
        if out:
            stream.close()


def run(spec: ExperimentSpec) -> int:
    """Execute a resolved spec; returns the process exit status.

    Writes the CSV only after every point computed, so a written file is
    complete; any validation or computation failure produces one
    machine-readable line on stderr and a nonzero status.
    """
    try:
        _check_domain(spec)
        if spec.command == "sweep":
            rows = _sweep_rows(spec)
        elif spec.command in _MODE_BUILDERS:
            rows = _MODE_BUILDERS[spec.command](spec)
        else:
            raise SpecError(f"unknown command {spec.command!r}")
        _write_csv(rows, spec.out)
        return 0
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdl",
        description="Cache-aided downlink rate, simulation, optimization and sweep experiments (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("rate", "simulate", "optimize", "gain", "sweep"):
        p = sub.add_parser(command)
        p.add_argument("--precoder", choices=[*ALL_PRECODERS, "all"])
        p.add_argument("--L", type=int)
        p.add_argument("--Q", type=int)
        p.add_argument("--q-prime", dest="q_prime", type=int, help="cacheless-side stream count (gain; default Q)")
        p.add_argument("--G", type=int)
        p.add_argument("--lambda", dest="lambda_states", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--K", type=int)
        p.add_argument("--snr-db", dest="snr_db", type=float)
        p.add_argument("--beta", type=float, help="pilot resources per user per block")
        p.add_argument("--tc", type=float, help="coherence time in seconds")
        p.add_argument("--wc", type=float, help="coherence bandwidth in Hz")
        p.add_argument("--zeta", type=float, help="overhead coefficient, overrides --beta/--tc/--wc")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--preset", help="fig1, fig2-L32, fig2-L64, fig3-L64")
        p.add_argument("--config", help="JSON file of spec fields; flags override")
        if command == "sweep":
            p.add_argument("--axis", choices=["snr_db", "Q", "L", "G"])
            p.add_argument("--start", type=float)
            p.add_argument("--stop", type=float)
            p.add_argument("--step", type=float)
            p.add_argument("--mode", choices=sorted(_MODE_BUILDERS))
    return parser


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Resolve precedence: preset fields, then config file, then flags."""
    flag_values = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    preset_name = flag_values.pop("preset", None)
    config_path = flag_values.pop("config", None)

    config_values = {}
    if config_path:
        with open(config_path) as fh:
            config_values = json.load(fh)
        if not isinstance(config_values, dict):
            raise SpecError("config file must hold a JSON object")
        preset_name = preset_name or config_values.pop("preset", None)
        config_values.pop("command", None)

    if preset_name:
        spec = preset(preset_name)
        spec.preset = preset_name
        spec.command = args.command
    else:
        spec = ExperimentSpec(command=args.command)
    _merge(spec, config_values)
    _merge(spec, flag_values)
    return spec


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = build_spec(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
