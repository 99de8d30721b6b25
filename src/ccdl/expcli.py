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
import operator
import sys
import typing
import warnings
from dataclasses import dataclass
from typing import Callable

from ccdl import analytic, channel, montecarlo, optimizer, precoding, scheme
from ccdl._parallel import map_ordered
from ccdl.analytic import CsiCostModel, RateInputs

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


class NonFiniteRow(FloatingPointError):
    """A computed row holds a non-finite number."""


def _p_t(snr_db: float) -> float:
    """The linear power 10**(snr_db/10), which must be a normal float."""
    try:
        p_t = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise SpecError(f"--snr-db {snr_db} overflows the linear power 10**(snr_db/10)") from None
    if p_t < sys.float_info.min:
        raise SpecError(f"--snr-db {snr_db} underflows the linear power 10**(snr_db/10)")
    return p_t


@functools.cache
def _bound(text: str) -> tuple[Callable, int]:
    """The comparison and integer bound of a domain bound such as ">= 1" or "< 2**64"."""
    op, number = text.split()
    compare = {">=": operator.ge, ">": operator.gt, "<": operator.lt}[op]
    return compare, functools.reduce(pow, map(int, number.split("**")))


@dataclass(frozen=True)
class Flag:
    """How one spec field reads from the command line; ``_FLAGS`` adds its name, type and spelling."""

    help: str
    spelling: str = ""  # default: --name, dashes for underscores
    choices: tuple[str, ...] | None = None
    any_case: bool = False  # a config value matches a choice in any case; argparse matches exactly
    bounds: tuple[str, ...] = ()  # comparisons each value passes, such as ">= 1"
    check: Callable | None = None  # a further domain check, called with the value
    sweep_only: bool = False
    name: str = ""
    kind: type = str

    def validate(self, value) -> None:
        """Raise a SpecError unless a given value is finite (for a float), one of the choices and within the bounds."""
        if self.kind is float and not math.isfinite(value):
            raise SpecError(f"{self.spelling} must be finite")
        if self.choices and (value.lower() if self.any_case else value) not in self.choices:
            raise SpecError(f"{self.spelling} must be one of {', '.join(self.choices)}; got {value!r}")
        for text in self.bounds:
            compare, bound = _bound(text)
            if not compare(value, bound):
                raise SpecError(f"{self.spelling} must be {text}, got {value}")
        if self.check:
            self.check(value)


def _flag(help: str, default=None, **flag):
    return dataclasses.field(default=default, metadata={"flag": Flag(help, **flag)})


_EXACT = "< 2**53"  # a count the float arithmetic holds exactly


@dataclass
class ExperimentSpec:
    """Fully resolved description of one CLI invocation, and the one table of its flags:
    each field but ``command`` has its type as annotation and its :class:`Flag` as metadata."""

    command: str
    precoder: str | None = _flag("all gives one row each", choices=(*ALL_PRECODERS, "all"), any_case=True)
    L: int | None = _flag("transmit antennas", bounds=(">= 1", _EXACT))
    Q: int | None = _flag("streams per group", bounds=(">= 1", _EXACT))
    q_prime: int | None = _flag("cacheless-side stream count (gain; default Q)", bounds=(">= 1", _EXACT))
    G: int | None = _flag("groups served per transmission", bounds=(">= 1", _EXACT))
    lambda_states: int | None = _flag("cache states, with --gamma in place of --G", spelling="--lambda",
                                      bounds=(_EXACT,))
    gamma: float | None = _flag("cached fraction of the library, with --lambda")
    K: int | None = _flag("users, with --lambda/--gamma or for simulate (default lambda * Q)", bounds=(_EXACT,))
    snr_db: float | None = _flag("SNR in dB, whose linear power 10**(snr_db/10) must be a normal float", check=_p_t)
    beta: float | None = _flag("pilot resources per user per block", bounds=(">= 0",))
    tc: float | None = _flag("coherence time in seconds", bounds=("> 0",))
    wc: float | None = _flag("coherence bandwidth in Hz", bounds=("> 0",))
    zeta: float | None = _flag("overhead coefficient, overrides --beta/--tc/--wc", bounds=(">= 0",))
    trials: int = _flag("Monte Carlo trials (default 1000)", 1000, bounds=(">= 1",))
    seed: int = _flag("Monte Carlo seed (default 0)", 0, bounds=(">= 0", "< 2**64"))
    out: str | None = _flag("CSV output path (default: stdout)")
    axis: str | None = _flag("swept field", choices=("snr_db", "Q", "L", "G"), sweep_only=True)
    start: float | None = _flag("first axis value", sweep_only=True)
    stop: float | None = _flag("last axis value", sweep_only=True)
    step: float | None = _flag("axis step", sweep_only=True, bounds=("> 0",))
    mode: str | None = _flag("command run at each point (default: rate)", sweep_only=True,
                             choices=("gain", "optimize", "rate", "simulate"))


def _flags() -> dict[str, Flag]:
    """Each spec field's Flag but command's, with its name, type and spelling filled in."""
    hints = typing.get_type_hints(ExperimentSpec)
    return {f.name: dataclasses.replace(flag, name=f.name, kind=(typing.get_args(hints[f.name]) or (hints[f.name],))[0],
                                        spelling=flag.spelling or "--" + f.name.replace("_", "-"))
            for f in dataclasses.fields(ExperimentSpec) if (flag := f.metadata.get("flag"))}


_FLAGS = _flags()


# Named experiment specs reproducing the shipped figure scenarios, as the fields each sets; every one is a sweep
# under PRESET_CSI.  The fig2/fig3 presets default to ZF; pass --precoder to override.
#   fig1      effective rate versus stream count for all three precoders (10 dB, G=5, L=64).
#   fig2-L32  optimized gain versus SNR at 32 antennas (G=6).
#   fig2-L64  optimized gain versus SNR at 64 antennas (G=6).
#   fig3-L64  fixed-Q (hardening-constrained) gain versus SNR, Q=8 on both sides (G=6, L=64).
_SNR_AXIS = dict(G=6, axis="snr_db", start=0, stop=25, step=1)
_PRESETS = {
    "fig1": dict(mode="rate", precoder="all", L=64, G=5, snr_db=10.0, axis="Q", start=1, stop=63, step=1),
    "fig2-L32": dict(mode="optimize", precoder="zf", L=32, **_SNR_AXIS),
    "fig2-L64": dict(mode="optimize", precoder="zf", L=64, **_SNR_AXIS),
    "fig3-L64": dict(mode="gain", precoder="zf", L=64, Q=8, **_SNR_AXIS),
}


def preset(name: str) -> ExperimentSpec:
    """The named preset's spec (see ``_PRESETS``)."""
    if name not in _PRESETS:
        raise UnknownPreset(f"no preset named {name!r}; the presets are {', '.join(_PRESETS)}")
    return ExperimentSpec(command="sweep", beta=PRESET_CSI.beta_tot, tc=PRESET_CSI.t_c, wc=PRESET_CSI.w_c,
                          **_PRESETS[name])


def _typed(key: str, value):
    """A spec value with its flag's type: an int field takes a non-bool int, a float field a
    non-bool int or float (stored as a float), any other field a string."""
    kind = _FLAGS[key].kind
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise SpecError(f"spec field {key!r} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise SpecError(f"spec field {key!r} is out of float range") from None


def _merge(base: ExperimentSpec, override: dict) -> ExperimentSpec:
    for key, value in override.items():
        if key not in _FLAGS:
            raise SpecError(f"unknown spec field {key!r}")
        if value is not None:
            setattr(base, key, _typed(key, value))
    return base


def _require(spec: ExperimentSpec, *names: str) -> None:
    missing = [n for n in names if getattr(spec, n) is None]
    if missing:
        raise SpecError(f"{spec.command} needs {', '.join(_FLAGS[n].spelling for n in missing)}")


def _check_domain(spec: ExperimentSpec) -> None:
    """Reject a field outside its domain in :class:`ExperimentSpec`, then a --tc * --wc that underflows."""
    for flag in _FLAGS.values():
        if (value := getattr(spec, flag.name)) is not None:
            flag.validate(value)
    if spec.tc is not None and spec.wc is not None and spec.tc * spec.wc == 0:
        raise SpecError(f"--tc * --wc underflows to 0 (--tc {spec.tc}, --wc {spec.wc})")


def _csi_model(spec: ExperimentSpec, G: int, L: int) -> CsiCostModel:
    """CSI cost model of a row at this G and L.

    An explicit --zeta overrides --beta/--tc/--wc: its model's coefficient
    is zeta at the cache-aided group count and zeta * G'/G at other G' (it
    is linear in the served group count).  Without CSI flags it is zero.
    A positive --zeta whose coefficient per group and antenna underflows
    below the smallest normal float is a :class:`SpecError`: it would
    print a zeta that is not the typed one, 0.0 at 5e-324.
    """
    if spec.zeta is not None:
        beta_tot = spec.zeta / (G * L)
        if spec.zeta and beta_tot < sys.float_info.min:
            raise SpecError(f"--zeta {spec.zeta} is too small: zeta / (G L) = {beta_tot} underflows at G={G}, L={L}")
        return CsiCostModel(beta_tot=beta_tot, t_c=1.0, w_c=1.0)
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
    return list(ALL_PRECODERS) if name == "all" else [name]


def _rate(spec: ExperimentSpec, name: str, G: int, checked, model: CsiCostModel) -> dict:
    return dict(rate_nats=analytic.raw_rate(name, RateInputs.from_streams(G, spec.Q, spec.L, _p_t(spec.snr_db))))


def _simulate(spec: ExperimentSpec, name: str, G: int, checked, model: CsiCostModel) -> dict:
    if checked is None:
        checked = scheme.scheme_for_gain(spec.L, spec.snr_db, G, spec.Q, K=spec.K, precoder=name)
    else:
        checked = scheme.validate(dataclasses.replace(checked, precoder=name))
    gram_bytes = 16 * checked.G * checked.Q**2  # one trial's complex (G, Q, Q) Gram stack
    if gram_bytes > montecarlo._INVERSE_BYTES:
        raise SpecError(f"--G {checked.G} --Q {checked.Q}: one trial's Gram matrices take {gram_bytes} bytes, "
                        f"over the cap of {montecarlo._INVERSE_BYTES}")
    mc = montecarlo.McConfig(trials=spec.trials, seed=channel.RngSeed(spec.seed), scheme=checked,
                             precoder=precoding.PrecoderKind(name))
    return dict(mc=mc, source=f"monte_carlo({spec.trials};{spec.seed})", trials=spec.trials, seed=spec.seed)


def _optimize(spec: ExperimentSpec, name: str, G: int, checked, model: CsiCostModel) -> dict:
    report = optimizer.optimized_gain(name, G, spec.L, _p_t(spec.snr_db), model)
    q_star = report.cached.q_star
    fields = _rate(dataclasses.replace(spec, Q=q_star), name, G, checked, model)
    return dict(fields, Q=q_star, c_star=report.cached.c_star, q_star=q_star, gain=report.gain)


def _gain(spec: ExperimentSpec, name: str, G: int, checked, model: CsiCostModel) -> dict:
    q_prime = spec.Q if spec.q_prime is None else spec.q_prime
    gain = analytic.effective_gain(name, G, spec.Q, q_prime, spec.L, _p_t(spec.snr_db), model)
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
    if pending := [row for row in rows if "mc" in row]:  # only these load numpy (ccdl/__init__)
        for row, est in zip(pending, montecarlo.estimate_sum_rates([row.pop("mc") for row in pending])):
            row["rate_nats"] = est.mean
    for row in rows:
        row.update(c=row["Q"] / row["L"], rate_bits=row["rate_nats"] / math.log(2))
        row["effective_rate_nats"] = analytic.data_share(row["c"], row["zeta"]) * row["rate_nats"]
        bad = [col for col, value in row.items() if isinstance(value, float) and not math.isfinite(value)]
        if bad:
            at = ", ".join(f"{col}={row[col]}" for col in ("L", "Q", "G", "snr_db"))
            raise NonFiniteRow(f"{row['precoder']} gives non-finite {', '.join(bad)} at {at}")
    return rows


_MAX_SWEEP_POINTS = 100_000


def _axis_values(spec: ExperimentSpec) -> list:
    _require(spec, "axis", "start", "stop", "step")
    span = (spec.stop - spec.start) / spec.step + 1e-9  # floor(span) + 1 points; may overflow to inf
    if span < 0:
        raise SpecError("empty sweep range")
    count = int(span) + 1 if math.isfinite(span) else "infinitely many"
    if span >= _MAX_SWEEP_POINTS:
        raise SpecError(f"sweep has {count} points, over the cap of {_MAX_SWEEP_POINTS}")
    values = [spec.start + i * spec.step for i in range(count)]
    if _FLAGS[spec.axis].kind is int:
        ints = [int(round(v)) for v in values]
        if any(abs(v - i) > 1e-9 for v, i in zip(values, ints)):
            raise SpecError(f"axis {spec.axis} requires integer sweep values")
        return ints
    return values


def _sweep_rows(spec: ExperimentSpec) -> list[dict]:
    mode = spec.mode or "rate"
    values = _axis_values(spec)

    def one_point(value) -> list[dict]:
        _FLAGS[spec.axis].validate(value)  # run() checked the rest of the spec
        return _rows(dataclasses.replace(spec, **{spec.axis: value}), mode)

    return [row for rows in map_ordered(one_point, values) for row in rows]


def _write_csv(rows: list[dict], out: str | None) -> None:
    try:
        stream = open(out, "w", newline="") if out else sys.stdout
    except OSError as exc:
        raise SpecError(f"--out {out!r} cannot be written: {exc.strerror}") from None
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
    for command in (*_MODES, "sweep"):
        p = sub.add_parser(command)
        for flag in _FLAGS.values():
            if command == "sweep" or not flag.sweep_only:
                p.add_argument(flag.spelling, dest=flag.name, type=flag.kind, choices=flag.choices,
                               help=f"{flag.help} [{', '.join((flag.kind.__name__, *flag.bounds))}]")
        for spelling, text in (("--preset", ", ".join(_PRESETS)),
                               ("--config", "JSON file of spec fields; flags override")):
            p.add_argument(spelling, help=text)
    return parser


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Resolve precedence: preset fields, then config file, then flags."""
    flag_values = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    preset_name = flag_values.pop("preset", None)
    config_path = flag_values.pop("config", None)

    config_values = {}
    if config_path:
        try:
            with open(config_path) as fh:
                config_values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SpecError(f"config file {config_path!r}: {exc}") from None
        if not isinstance(config_values, dict):
            raise SpecError("config file must hold a JSON object")
        config_preset = config_values.pop("preset", None)
        preset_name = preset_name or config_preset  # a --preset flag wins
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
