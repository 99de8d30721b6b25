"""The ``ccdl`` package surface: its public names, and which submodules (and numpy) a command loads.

``channel``, ``precoding``, ``montecarlo`` and ``optimizer`` run at first use
(see ``ccdl/__init__``), so the load tests run the CLI in a fresh interpreter.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_tracing_targets import TARGETS

import ccdl

# Each public name of ``ccdl`` and the submodule that defines it.
PUBLIC = {
    "scheme": ("SchemeConfig", "ValidatedScheme", "DeliveryPlan", "validate", "build_delivery_plan", "max_gain"),
    "channel": ("RngSeed", "draw_channel", "wishart_inv_trace_mc", "resolvent_trace"),
    "precoding": ("PrecoderKind", "build_precoder", "power_factor", "stage_sinrs", "cancellation_residual"),
    "analytic": ("RateInputs", "RzfDeterministics", "CsiCostModel", "RateReport", "mf_rate", "mf_rate_finite",
                 "mf_cacheless", "zf_rate", "stieltjes", "stieltjes_deriv", "rzf_deterministics", "rzf_rate",
                 "csi_zeta", "effective_rate", "effective_gain"),
    "montecarlo": ("McConfig", "McEstimate", "estimate_sum_rate", "convergence_report",
                   "deterministic_equivalent_check"),
    "optimizer": ("OptimizationResult", "GainReport", "lambert_w0", "mf_opt_c", "zf_opt_c", "zf_opt_c_high_snr",
                  "rzf_opt_c", "integer_q", "optimized_gain"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
LAZY = ("channel", "precoding", "montecarlo", "optimizer")


def _fresh(script: str, *args: str) -> dict:
    """The JSON object that ``script`` prints last, run in a fresh interpreter on this checkout's ccdl."""
    src = str(Path(ccdl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env,
                          timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module, name", NAMES)
def test_public_name_is_the_defining_modules_object(module, name):
    namespace = {}
    exec(f"from ccdl import {name}", namespace)
    home = importlib.import_module(f"ccdl.{module}")
    assert namespace[name] is getattr(home, name)
    assert namespace[name].__module__ == home.__name__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ccdl.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from ccdl import no_such_name", {})


def test_star_import_gives_the_public_names_and_submodules():
    assert len({name for _, name in NAMES}) == 44
    namespace = {}
    exec("from ccdl import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for _, name in NAMES} | set(PUBLIC)
    assert set(dir(ccdl)) >= set(namespace) - {"__builtins__"}


_CLOSED_FORM = """
import contextlib, io, json, sys
from ccdl import expcli
statuses = []
for argv in (["rate", "--precoder", "all", "--G", "5", "--L", "64", "--Q", "8", "--snr-db", "10"],
             ["gain", "--precoder", "all", "--G", "6", "--L", "64", "--Q", "8", "--snr-db", "10", "--zeta", "0.05"],
             ["sweep", "--preset", "fig1", "--precoder", "all"],
             ["sweep", "--preset", "fig3-L64", "--precoder", "all"]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(expcli.main(argv))
print(json.dumps({"statuses": statuses, "modules": sorted(sys.modules)}))
"""


def test_closed_form_commands_never_import_numpy():
    """rate, gain and the fig1 and fig3-L64 sweeps run without numpy, and every module the benchmark's
    tracer patches is in ``sys.modules`` (its ``Tracer.install`` looks each one up there)."""
    loaded = _fresh(_CLOSED_FORM)
    assert loaded["statuses"] == [0, 0, 0, 0]
    assert "numpy" not in loaded["modules"]
    assert {module for module, _, _ in TARGETS.values()} <= set(loaded["modules"])


_THREADED = """
import contextlib, io, json, os, sys, types
from ccdl import _parallel, expcli
os.sched_getaffinity = lambda pid: {0, 1}  # two trial threads on any host
lazy = ["ccdl." + name for name in sys.argv[1:]]


def loaded() -> list[str]:
    return [name for name in lazy if type(sys.modules[name]) is types.ModuleType]


entries, map_threads = [], _parallel.map_threads


def recorded(fn, items):
    entries.append(loaded())
    return map_threads(fn, items)


_parallel.map_threads = recorded  # before channel runs and binds the name
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = expcli.main(["simulate", "--precoder", "rzf", "--G", "5", "--L", "128", "--Q", "64", "--snr-db", "10",
                          "--trials", "100"])
print(json.dumps({"status": status, "csv": out.getvalue(), "entries": entries, "after": loaded()}))
"""

THREADED_CSV = (
    "precoder,L,Q,G,snr_db,zeta,c,rate_nats,rate_bits,effective_rate_nats,source,trials,seed,c_star,q_star,gain\n"
    "rzf,128,64,5,10.0,0.0,0.5,395.76017436932557,570.9612409439775,395.76017436932557,monte_carlo(100;0),100,0,,,\n"
)


def test_threaded_first_use_loads_every_module_it_touches_first():
    """The first simulate of a fresh process takes the threaded path with its modules unloaded at start;
    every lazy module the run loads is loaded before the trial threads start (Python 3.11's LazyLoader
    is not safe when two threads first touch a module at once), and its CSV is the pinned one."""
    run = _fresh(_THREADED, *LAZY)
    assert run["status"] == 0 and len(run["entries"]) == 1
    (at_start,) = run["entries"]
    assert {"ccdl.channel", "ccdl.precoding", "ccdl.montecarlo"} <= set(at_start)
    assert run["after"] == at_start
    lines, want = run["csv"].splitlines(), THREADED_CSV.splitlines()
    assert lines[0] == want[0] and len(lines) == len(want)
    for got, ref in zip(lines[1].split(","), want[1].split(","), strict=True):
        try:  # numbers to 1e-12 relative: bit-exactness holds only within one numpy/BLAS build
            assert math.isclose(float(got), float(ref), rel_tol=1e-12), (got, ref)
        except ValueError:
            assert got == ref
