"""Cache-aided multi-antenna downlink toolkit.

Combinatorial scheme construction, linear-precoder SINR simulation,
closed-form asymptotic sum rates, CSI-overhead accounting, and
stream-count optimization for vector coded caching systems.

Only ``scheme`` and ``analytic``, which need no numpy, run at import.
``channel``, ``precoding``, ``montecarlo`` and ``optimizer`` are in
``sys.modules`` from the start, but run their code, numpy's import
included, at the first touch of one of their attributes
(``importlib.util.LazyLoader``); their public names resolve here through
the module ``__getattr__`` of PEP 562.  So the closed-form ``rate`` and
``gain`` commands never import numpy.

Threads: up to Python 3.11, ``LazyLoader`` is not thread-safe.  The first
touch marks a module loaded before its code has run, so a second thread
that touches it meanwhile finds names missing.  Load a lazy module on one
thread before other threads use it (Python 3.12 locks the first load).
ccdl's own trial threads start in ``channel.seeded_map``, whose callers'
module code has by then loaded every module the trials touch.
"""

from ccdl.scheme import SchemeConfig, ValidatedScheme, DeliveryPlan, validate, build_delivery_plan, max_gain
from ccdl.analytic import (
    RateInputs,
    RzfDeterministics,
    CsiCostModel,
    RateReport,
    mf_rate,
    mf_rate_finite,
    mf_cacheless,
    zf_rate,
    stieltjes,
    stieltjes_deriv,
    rzf_deterministics,
    rzf_rate,
    csi_zeta,
    effective_rate,
    effective_gain,
)

# The public names of each lazily run submodule.
_LAZY = {
    "channel": ("RngSeed", "draw_channel", "wishart_inv_trace_mc", "resolvent_trace"),
    "precoding": ("PrecoderKind", "build_precoder", "power_factor", "stage_sinrs", "cancellation_residual"),
    "montecarlo": ("McConfig", "McEstimate", "estimate_sum_rate", "convergence_report",
                   "deterministic_equivalent_check"),
    "optimizer": ("OptimizationResult", "GainReport", "lambert_w0", "mf_opt_c", "zf_opt_c", "zf_opt_c_high_snr",
                  "rzf_opt_c", "integer_q", "optimized_gain"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _lazy(name: str):
    """Submodule ``name``, entered in ``sys.modules`` and left to run at the first touch of an attribute."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


channel = _lazy("channel")
precoding = _lazy("precoding")
montecarlo = _lazy("montecarlo")
optimizer = _lazy("optimizer")


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
__all__ = [*(name for name in globals() if not name.startswith("_")), *_HOME]  # what ``import *`` gave eagerly
