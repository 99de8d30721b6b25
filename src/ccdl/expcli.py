"""Command-line experiment runner emitting plot-ready CSV.

Subcommands: ``rate`` (closed forms), ``simulate`` (Monte Carlo),
``optimize`` (per-precoder stream-count optimization and optimized gain),
``gain`` (fixed-Q effective gain over the cacheless baseline), and
``sweep`` (any of the above along one axis).  Named presets pin the
scenario parameters behind the shipped figure reproductions.

CSV schema (fixed column order, empty fields where not applicable)::

    precoder,L,Q,G,snr_db,zeta,c,rate_nats,rate_bits,effective_rate_nats,
    source,trials,seed,c_star,q_star,gain

Sweep points are evaluated independently and written in axis order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import warnings
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

ALL_PRECODERS = tuple(name.lower() for name in analytic.PRECODER_NAMES)

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


_INT_FIELDS = ("L", "Q", "q_prime", "G", "lambda_states", "K", "trials", "seed")
_FLOAT_FIELDS = ("snr_db", "gamma", "beta", "tc", "wc", "zeta", "start", "stop", "step")


def _typed(key: str, value):
    """A spec value with its flag's type: an int field takes a non-bool int, a float field a
    non-bool int or float (stored as a float), any other field a string."""
    kind = int if key in _INT_FIELDS else float if key in _FLOAT_FIELDS else str
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise SpecError(f"spec field {key!r} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise SpecError(f"spec field {key!r} is out of float range") from None


def _merge(base: ExperimentSpec, override: dict) -> ExperimentSpec:
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    for key, value in override.items():
        if key not in fields:
            raise SpecError(f"unknown spec field {key!r}")
        if value is not None:
            setattr(base, key, _typed(key, value))
    return base


def _require(spec: ExperimentSpec, *names: str) -> None:
    missing = [n for n in names if getattr(spec, n) is None]
    if missing:
        raise SpecError(f"{spec.command} needs {', '.join('--' + n.replace('_', '-') for n in missing)}")


# (field, lower bound, whether the bound itself is excluded)
_LOWER_BOUNDS = (("zeta", 0, False), ("beta", 0, False), ("tc", 0, True), ("wc", 0, True), ("L", 1, False))


def _check_domain(spec: ExperimentSpec) -> None:
    """Reject non-finite float fields, a negative --zeta or --beta, a --tc or --wc
    that is not positive or whose product underflows, and an antenna count below one."""
    bad = [n for n in _FLOAT_FIELDS if getattr(spec, n) is not None and not math.isfinite(getattr(spec, n))]
    if bad:
        raise SpecError(f"{', '.join('--' + n.replace('_', '-') for n in bad)} must be finite")
    for name, bound, strict in _LOWER_BOUNDS:
        value = getattr(spec, name)
        if value is not None and (value <= bound if strict else value < bound):
            raise SpecError(f"--{name} must be {'>' if strict else '>='} {bound}, got {value}")
    if spec.tc is not None and spec.wc is not None and spec.tc * spec.wc == 0:
        raise SpecError(f"--tc * --wc underflows to 0 (--tc {spec.tc}, --wc {spec.wc})")


def _p_t(spec: ExperimentSpec) -> float:
    return 10.0 ** (spec.snr_db / 10.0)


def _csi_model(spec: ExperimentSpec, G: int, L: int) -> CsiCostModel:
    """CSI cost model of a row at this G and L.

    An explicit --zeta overrides --beta/--tc/--wc: its model's coefficient
    is zeta at the cache-aided group count and zeta * G'/G at other G' (it
    is linear in the served group count).  Without CSI flags it is zero.
    """
    if spec.zeta is not None:
        return CsiCostModel(beta_tot=spec.zeta / (G * L) if spec.zeta else 0.0, t_c=1.0, w_c=1.0)
    if spec.beta is not None:
        _require(spec, "tc", "wc")
        return CsiCostModel(beta_tot=spec.beta, t_c=spec.tc, w_c=spec.wc)
    return CsiCostModel(beta_tot=0.0, t_c=1.0, w_c=1.0)


def _resolve_scheme(spec: ExperimentSpec) -> tuple[int, scheme.ValidatedScheme | None]:
    """Group count of a spec, with the scheme that --lambda/--gamma validate to.

    --lambda with --gamma (users --K, default lambda * Q) give a validated
    scheme and its G, which an explicit --G must equal; --G alone gives G
    and no scheme.
    """
    if spec.lambda_states is None or spec.gamma is None:
        if spec.G is None:
            raise SpecError("need --G or --lambda with --gamma")
        return spec.G, None
    Q = 1 if spec.Q is None else spec.Q
    checked = scheme.validate(
        scheme.SchemeConfig(
            L=spec.L, snr_db=spec.snr_db, lambda_states=spec.lambda_states, gamma=spec.gamma,
            K=spec.lambda_states * Q if spec.K is None else spec.K, Q=Q, precoder="MF",
        )
    )
    if spec.G is not None and spec.G != checked.G:
        raise SpecError(
            f"--G {spec.G} disagrees with --lambda {spec.lambda_states} --gamma {spec.gamma}, which give G={checked.G}"
        )
    return checked.G, checked


def _precoders(spec: ExperimentSpec) -> list[str]:
    if spec.precoder is None:
        raise SpecError(f"need --precoder ({', '.join(ALL_PRECODERS)}, or all)")
    name = spec.precoder.lower()
    if name == "all":
        return list(ALL_PRECODERS)
    if name not in ALL_PRECODERS:
        raise SpecError(f"unknown precoder {spec.precoder!r}")
    return [name]


def _rate(spec: ExperimentSpec, name: str, G: int, checked, model: CsiCostModel) -> dict:
    return dict(rate_nats=analytic.raw_rate(name, RateInputs.from_streams(G, spec.Q, spec.L, _p_t(spec))))


def _simulate(spec: ExperimentSpec, name: str, G: int, checked, model: CsiCostModel) -> dict:
    if checked is None:
        checked = scheme.scheme_for_gain(spec.L, spec.snr_db, G, spec.Q, K=spec.K, precoder=name)
    else:
        checked = scheme.validate(dataclasses.replace(checked, precoder=name))
    mc = montecarlo.McConfig(trials=spec.trials, seed=RngSeed(spec.seed), scheme=checked, precoder=PrecoderKind(name))
    return dict(mc=mc, source=f"monte_carlo({spec.trials};{spec.seed})", trials=spec.trials, seed=spec.seed)


def _optimize(spec: ExperimentSpec, name: str, G: int, checked, model: CsiCostModel) -> dict:
    report = optimizer.optimized_gain(name, G, spec.L, _p_t(spec), model)
    q_star = report.cached.q_star
    fields = _rate(dataclasses.replace(spec, Q=q_star), name, G, checked, model)
    return dict(fields, Q=q_star, c_star=report.cached.c_star, q_star=q_star, gain=report.gain)


def _gain(spec: ExperimentSpec, name: str, G: int, checked, model: CsiCostModel) -> dict:
    q_prime = spec.Q if spec.q_prime is None else spec.q_prime
    gain = analytic.effective_gain(name, G, spec.Q, q_prime, spec.L, _p_t(spec), model)
    return dict(_rate(spec, name, G, checked, model), gain=gain)


_MODES = {"rate": _rate, "simulate": _simulate, "optimize": _optimize, "gain": _gain}


def _rows(spec: ExperimentSpec, mode: str) -> list[dict]:
    """One row per precoder: the shared identity columns, then the mode's own fields.

    A mode maps (spec, precoder, G, the --lambda/--gamma scheme or None,
    CSI model) to its raw ``rate_nats``, or for ``simulate`` the Monte Carlo
    config ``mc``, and ``Q`` when it picks the stream count itself;
    :func:`_finish` discounts each.  A fixed Q with no data share fails first.
    """
    _require(spec, *(("L", "snr_db") if mode == "optimize" else ("L", "Q", "snr_db")))
    G, checked = _resolve_scheme(spec)
    model = _csi_model(spec, G, spec.L)
    zeta = analytic.csi_zeta(model, G, spec.L)
    rows = []
    for name in _precoders(spec):
        if mode != "optimize":
            analytic.data_share(spec.Q / spec.L, zeta)
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(precoder=name, L=spec.L, Q=spec.Q, G=G, snr_db=spec.snr_db, zeta=zeta, source="closed_form")
        row.update(_MODES[mode](spec, name, G, checked, model))
        rows.append(row)
    return rows


def _finish(rows: list[dict]) -> list[dict]:
    """Fill the Monte Carlo rows by one shared estimate_sum_rates call, add c, rate_bits and
    the effective rate, reject non-finite rows."""
    pending = [row for row in rows if "mc" in row]
    for row, est in zip(pending, montecarlo.estimate_sum_rates([row.pop("mc") for row in pending])):
        row["rate_nats"] = est.mean
    for row in rows:
        row.update(c=row["Q"] / row["L"], rate_bits=row["rate_nats"] / math.log(2))
        row["effective_rate_nats"] = analytic.data_share(row["c"], row["zeta"]) * row["rate_nats"]
        bad = [col for col, value in row.items() if isinstance(value, float) and not math.isfinite(value)]
        if bad:
            at = ", ".join(f"{col}={row[col]}" for col in ("L", "Q", "G", "snr_db"))
            raise FloatingPointError(f"{row['precoder']} gives non-finite {', '.join(bad)} at {at}")
    return rows


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
    if mode not in _MODES:
        raise SpecError(f"sweep mode must be one of {sorted(_MODES)}; got {mode!r}")
    values = _axis_values(spec)

    def one_point(value) -> list[dict]:
        point = dataclasses.replace(spec, **{spec.axis: value})
        _check_domain(point)
        return _rows(point, mode)

    return [row for rows in map_ordered(one_point, values) for row in rows]


def _write_csv(rows: list[dict], out: str | None) -> None:
    stream = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[col] for col in CSV_COLUMNS])
    finally:
        if out:
            stream.close()


def run(spec: ExperimentSpec) -> int:
    """Execute a resolved spec; returns the process exit status.

    Writes the CSV only after every point computed, so a written file is
    complete; any validation or computation failure, a non-finite result
    included, produces one machine-readable line on stderr and a nonzero
    status.
    """
    try:
        _check_domain(spec)
        with warnings.catch_warnings(record=True) as caught:
            if spec.command == "sweep":
                rows = _finish(_sweep_rows(spec))
            elif spec.command in _MODES:
                rows = _finish(_rows(spec, spec.command))
            else:
                raise SpecError(f"unknown command {spec.command!r}")
        _write_csv(rows, spec.out)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # Warnings are shown only once every point computed, so a failure stays one line.
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: ``parse_args`` leaves it unchanged."""
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
            p.add_argument("--mode", choices=sorted(_MODES))
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
