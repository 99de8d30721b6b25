#!/usr/bin/env python3
"""Byte-compare the output of a fixed command list between two ccdl trees.

    python3 tools/same_output.py PARENT_DIR CHANGE_DIR

Each DIR is the root of a checkout (for instance a ``git archive`` of a
commit), relative or absolute; a DIR without ``src/ccdl`` is an error.
Every command runs once per tree, with the tree's absolute ``src`` on
PYTHONPATH and the tree as working directory, one process at a time.  The
report gives one line per command: whether stdout, stderr and the exit
status are byte-identical, followed by the first differing lines of any
stream that differs.  The exit status is 0 when every command matched.

The list of 56 commands covers ``simulate`` and ``sweep --mode simulate``
(MF, ZF, RZF; the trials=0 error; Q > L for MF; the ZF error at Q = L; a
threaded Q = 64 ensemble; an L sweep; a 93-row sweep whose ensemble splits
over 5 trial passes), the four presets, ``rate``, ``gain``, ``optimize`` and
``simulate`` at ``--zeta 0.07 --G 7 --L 100 --Q 8``, a ``simulate`` whose
overhead c * zeta exceeds the block, ``fig1`` with ``--zeta`` over its CSI
triple, an optimize sweep over -10...40 dB at ``--zeta 0.05`` and at
``--zeta 0`` (where MF fails with ``UnboundedObjective``), ``optimize`` at
feasible intervals that are empty (``--L 64`` at ``--zeta 2000`` for RZF,
``1e300`` for ZF and MF) or narrower than RZF's grid step (``--L 2048 --zeta
1500``), RZF ``optimize`` at ``--zeta 2`` (its cached side's grid a strict
prefix of its cacheless side's), the RZF ``rate`` at 120, 130, 140 and 150
dB (rows whose b is known to be low), its ``NonPositiveB`` errors at -90
and 160 dB and its out-of-range error at -1545 dB, an RZF ``gain``
at a ``fig3-L64`` point, the CLI's edges (a ``--config`` value of the wrong type, a
``precoder``, ``axis`` and ``mode`` outside their choices, ``"precoder": "ZF"``, a malformed
``--config`` file, MF ``rate`` at 3082, 3083, -3076 and -3077 dB, where the linear power
10**(snr_db/10) overflows or turns subnormal, and each command's ``--help``),
``power_factor(mode="montecarlo")`` for every precoder,
``wishart_inv_trace_mc`` at (Q, L) = (16, 64) and (1, 2), the sha256
digests of ``build_precoder`` (ZF, RZF) and of ``gram_powers``' signal and
interference powers (MF, ZF, RZF, stacked alphas) on fixed seeded draws,
the ZF accept/reject decisions of ``build_precoder`` and ``stage_sinrs`` on
200 near-singular draws, and the ``ACCEPTANCE 3`` and ``ACCEPTANCE 4`` lines
of the acceptance suite (only those lines of its stdout are compared).
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import time

_CLI = ["-m", "ccdl.expcli"]
_SIM = [*_CLI, "simulate", "--G", "3", "--L", "32", "--Q", "8", "--snr-db", "10", "--seed", "1"]
_SWEEP = [*_CLI, "sweep", "--mode", "simulate", "--precoder", "all"]
_SNR_SWEEP = [*_SWEEP, "--axis", "snr_db", "--start", "0"]
_ZETA = ["--zeta", "0.07", "--G", "7", "--L", "100", "--Q", "8", "--snr-db", "10", "--precoder", "all"]
_OPT_SWEEP = [*_CLI, "sweep", "--mode", "optimize", "--precoder", "all", "--G", "5", "--L", "64",
              "--axis", "snr_db", "--start", "-10", "--stop", "40", "--step", "5"]
_OPT = [*_CLI, "optimize", "--G", "5", "--snr-db", "10"]
_RZF_RATE = [*_CLI, "rate", "--precoder", "rzf", "--G", "5", "--L", "64", "--Q", "16"]
_SHAPE = ["--G", "5", "--L", "64", "--Q", "16"]
_MF_RATE = [*_CLI, "rate", "--precoder", "mf", *_SHAPE]

# ccdl.expcli.main on the argv after the JSON text, plus --config naming that text as spec.json in a scratch cwd
_CONFIG_RUN = """
import os, sys, tempfile
from ccdl.expcli import main
with tempfile.TemporaryDirectory() as scratch:
    os.chdir(scratch)
    with open("spec.json", "w") as fh:
        fh.write(sys.argv[1])
    code = main([*sys.argv[2:], "--config", "spec.json"])
sys.exit(code)
"""


def _with_config(text: str, argv: list[str]) -> list[str]:
    return ["-c", _CONFIG_RUN, text, *argv]


def _sweep_config(flag: str, value: str) -> list[str]:
    """A two-point rate sweep over snr_db whose config file sets ``flag``'s field, with that flag left out (it would
    override the file)."""
    choices = {"--precoder": "zf", "--axis": "snr_db", "--mode": "rate"}
    del choices[flag]
    return _with_config(json.dumps({flag[2:]: value}), ["sweep", *_SHAPE, "--start", "0", "--stop", "1", "--step", "1",
                                                        *(x for item in choices.items() for x in item)])


_POWER_FACTORS = """
from ccdl.channel import RngSeed
from ccdl.precoding import PrecoderKind, power_factor
from ccdl.scheme import scheme_for_gain
for name, kind, L, Q in (("MF", PrecoderKind.mf(), 16, 24), ("ZF", PrecoderKind.zf(), 32, 8),
                         ("RZF", PrecoderKind.rzf(), 64, 32), ("RZF", PrecoderKind.rzf(0.5), 32, 16)):
    scheme = scheme_for_gain(L, 10.0, 2, Q, precoder=name)
    print(name, L, Q, repr(power_factor(kind, scheme, mode="montecarlo", trials=300, seed=RngSeed(51))))
"""

_WISHART_INV_TRACE = """
from ccdl.channel import RngSeed, wishart_inv_trace_mc
print(repr(wishart_inv_trace_mc({Q}, {L}, 2000, RngSeed({seed}))))
"""

# sha256 of every ZF and RZF precoder and of the MF, ZF, RZF and stacked-alpha Gram-space
# powers on fixed seeded draws, all accepted by ZF's rank rule
_PRECODER_BITS = """
import hashlib
import numpy as np
from ccdl.channel import RngSeed, draw_channel, wishart_gram
from ccdl.precoding import PrecoderKind, build_precoder, gram_powers
def digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()
for Q, L in ((4, 16), (8, 32), (16, 64), (16, 256), (32, 48)):
    channels = [draw_channel(Q, L, RngSeed(61, t)) for t in range(5)]
    for kind in (PrecoderKind.zf(), PrecoderKind.rzf(L / 10.0)):
        print("build_precoder", kind.name, Q, L, digest(*(build_precoder(H, kind) for H in channels)))
for G, Q, L in ((5, 16, 256), (5, 64, 128), (3, 32, 48)):
    W = wishart_gram(RngSeed(62).generator(), G, Q, L)
    for label, kind, alphas in (("MF", PrecoderKind.mf(), None), ("ZF", PrecoderKind.zf(), None),
                                ("RZF", PrecoderKind.rzf(L / 10.0), None),
                                ("RZF stacked", PrecoderKind.rzf(), [L / 1e3, L / 10.0, L * 10.0])):
        sig, intf, _ = gram_powers(W, kind, alphas)
        print("gram_powers", label, G, Q, L, digest(sig, intf))
"""

# ZF's rank decision per draw ("1" accepts, "0" raises RankDeficient) in H space and in Gram space,
# on draws whose rows 0 and 1 are 1e-12 ... 1e-4 apart
_RANK_DECISIONS = """
import numpy as np
from ccdl.channel import RngSeed, draw_channel
from ccdl.precoding import PrecoderKind, RankDeficient, build_precoder, stage_sinrs
from ccdl.scheme import scheme_for_gain
def accepts(call):
    try:
        call()
    except RankDeficient:
        return "0"
    return "1"
kind, scheme = PrecoderKind.zf(), scheme_for_gain(16, 10.0, 1, 8, precoder="ZF")
channels = []
for t, offset in enumerate(np.geomspace(1e-12, 1e-4, 200)):
    H = draw_channel(8, 16, RngSeed(92, t))
    H[1] = H[0] + offset * draw_channel(1, 16, RngSeed(93, t))[0]
    channels.append(H)
print("build_precoder", "".join(accepts(lambda: build_precoder(H, kind)) for H in channels))
print("stage_sinrs   ", "".join(accepts(lambda: stage_sinrs([H], kind, scheme)) for H in channels))
"""

# (label, python arguments, keep only the stdout lines starting with this prefix or None)
COMMANDS = [
    *[(f"simulate {p}", [*_SIM, "--trials", "200", "--precoder", p], None) for p in ("mf", "zf", "rzf")],
    ("simulate trials=0", [*_SIM, "--trials", "0", "--precoder", "mf"], None),
    ("simulate mf Q>L", [*_CLI, "simulate", "--precoder", "mf", "--G", "2", "--L", "8", "--Q", "12",
                         "--snr-db", "5", "--trials", "150", "--seed", "2"], None),
    ("simulate zf Q=L", [*_CLI, "simulate", "--precoder", "zf", "--G", "2", "--L", "16", "--Q", "16",
                         "--snr-db", "10", "--trials", "150", "--seed", "2"], None),
    ("simulate rzf Q=64 threaded", [*_CLI, "simulate", "--precoder", "rzf", "--G", "5", "--L", "128", "--Q", "64",
                                    "--snr-db", "10", "--trials", "100", "--seed", "3"], None),
    ("sweep L, 3 ensembles", [*_SWEEP, "--axis", "L", "--start", "16", "--stop", "48", "--step", "16",
                              "--G", "2", "--Q", "8", "--snr-db", "10", "--trials", "120", "--seed", "5"], None),
    ("sweep hardening", [*_SNR_SWEEP, "--stop", "20", "--step", "5", "--G", "5", "--L", "256", "--Q", "16",
                         "--trials", "100", "--seed", "7"], None),
    # 31 SNRs: 93 rows; one ensemble of 33 kernel rows (31 RZF alphas) at 7 rows per 64 MiB pass
    ("sweep 93 rows, 5 passes", [*_SNR_SWEEP, "--stop", "30", "--step", "1", "--G", "8", "--L", "32", "--Q", "16",
                                 "--trials", "4500", "--seed", "11"], None),
    *[(f"preset {name}", [*_CLI, "sweep", "--preset", name, "--precoder", "all"], None)
      for name in ("fig1", "fig2-L32", "fig2-L64", "fig3-L64")],
    *[(f"{command} zeta 0.07", [*_CLI, command, *_ZETA, "--trials", "200", "--seed", "1"], None)
      for command in ("rate", "gain", "optimize", "simulate")],
    ("simulate zeta 10 infeasible", [*_CLI, "simulate", "--precoder", "zf", "--G", "5", "--L", "64", "--Q", "16",
                                     "--snr-db", "10", "--zeta", "10", "--trials", "100"], None),
    ("preset fig1 zeta 0.1", [*_CLI, "sweep", "--preset", "fig1", "--zeta", "0.1"], None),
    *[(f"optimize sweep zeta {zeta}", [*_OPT_SWEEP, "--zeta", zeta], None) for zeta in ("0.05", "0")],
    *[(f"optimize {p} L={L} zeta {zeta}", [*_OPT, "--precoder", p, "--L", L, "--zeta", zeta], None)
      for p, L, zeta in (("rzf", "64", "2000"), ("zf", "64", "1e300"), ("mf", "64", "1e300"), ("all", "2048", "1500"),
                         ("rzf", "64", "2"))],
    *[(f"rate rzf {snr_db} dB", [*_RZF_RATE, "--snr-db", snr_db], None)
      for snr_db in ("120", "130", "140", "150", "-90", "160", "-1545")],
    ("gain rzf fig3-L64 12 dB", [*_CLI, "gain", "--precoder", "rzf", "--G", "6", "--L", "64", "--Q", "8",
                                 "--snr-db", "12", "--beta", "10", "--tc", "0.04", "--wc", "300e3"], None),
    ("config L of wrong type", _with_config('{"L": "64"}', ["rate", "--precoder", "mf", *_SHAPE, "--snr-db", "10"]),
     None),
    *[(f"config {flag[2:]} {value}", _sweep_config(flag, value), None)
      for flag, value in (("--precoder", "bogus"), ("--axis", "q"), ("--mode", "RATE"))],
    ("config precoder ZF", _with_config('{"precoder": "ZF"}', ["rate", *_SHAPE, "--snr-db", "10"]), None),
    *[(f"rate mf {snr_db} dB", [*_MF_RATE, "--snr-db", snr_db], None) for snr_db in ("3082", "3083", "-3076", "-3077")],
    ("config malformed", _with_config("{bad", ["rate"]), None),
    *[(f"{command} --help", [*_CLI, command, "--help"], None)
      for command in ("rate", "simulate", "optimize", "gain", "sweep")],
    ("power_factor montecarlo", ["-c", _POWER_FACTORS], None),
    *[(f"wishart_inv_trace_mc {Q} {L}", ["-c", _WISHART_INV_TRACE.format(Q=Q, L=L, seed=seed)], None)
      for Q, L, seed in ((16, 64, 42), (1, 2, 0))],
    ("precoder bits", ["-c", _PRECODER_BITS], None),
    ("ZF rank decisions", ["-c", _RANK_DECISIONS], None),
    ("ACCEPTANCE 3 and 4", ["-m", "pytest", "tests/test_acceptance.py", "-q", "-s", "-p", "no:cacheprovider",
                            "-k", "criterion_3 or criterion_4"], "ACCEPTANCE"),
]


def run(tree: str, args: list[str], prefix: str | None) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True)
    if prefix is None:
        return proc.stdout, proc.stderr, proc.returncode
    kept = b"".join(line for line in proc.stdout.splitlines(keepends=True) if line.startswith(prefix.encode()))
    return kept, b"", proc.returncode


def first_diff(a: bytes, b: bytes, limit: int = 6) -> list[str]:
    lines = difflib.unified_diff(a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines(),
                                 "parent", "change", n=0, lineterm="")
    return [f"    {line}" for _, line in zip(range(limit), lines)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the parent tree")
    ap.add_argument("change", help="root of the changed tree")
    args = ap.parse_args(argv)
    # A relative PYTHONPATH resolves against each command's cwd, the tree itself: no ccdl, the same failure in both.
    trees = [os.path.abspath(tree) for tree in (args.parent, args.change)]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "ccdl")):
            ap.error(f"{tree} has no src/ccdl")
    all_same = True
    for label, cmd, prefix in COMMANDS:
        start = time.perf_counter()
        old, new = (run(tree, cmd, prefix) for tree in trees)
        same = [a == b for a, b in zip(old, new)]
        all_same &= all(same)
        marks = " ".join(f"{name}={'same' if s else 'DIFF'}" for name, s in zip(("stdout", "stderr", "status"), same))
        print(f"{label:28s} {marks}  ({len(old[0])} B stdout, {time.perf_counter() - start:.1f} s)", flush=True)
        for stream, s, a, b in zip(("stdout", "stderr"), same, old, new):
            if not s:
                print(f"  {stream}:", *first_diff(a, b), sep="\n")
        if not same[2]:
            print(f"  status: parent {old[2]}, change {new[2]}")
    print("all identical" if all_same else "outputs differ")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
