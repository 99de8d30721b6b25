"""Every entry point the benchmark tracer wraps exists, with the arguments its span info reads.

``perfbench/tracing.py`` patches its ``TARGETS`` by name at ``Tracer.install()``
and calls each info function with the wrapped call's own arguments, so a
renamed function or argument breaks traced benchmark runs.  The file is
loaded by path and left as it is.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ccdl.channel import RngSeed, draw_channel
from ccdl.montecarlo import McConfig
from ccdl.precoding import PrecoderKind
from ccdl.scheme import scheme_for_gain

_SPEC = importlib.util.spec_from_file_location(
    "_perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

TARGETS = {span: (module, attr, info) for module, attr, span, _, info in tracing.TARGETS}


@pytest.mark.parametrize("span", TARGETS)
def test_target_exists(span):
    module, attr, _ = TARGETS[span]
    assert callable(getattr(importlib.import_module(module), attr))


def _sample_calls():
    """Arguments of one real call of each target that has span info, and the info it gives."""
    scheme = scheme_for_gain(16, 10.0, 2, 4, precoder="ZF")
    return {
        "precoding.build": ((draw_channel(4, 16, RngSeed(1)), PrecoderKind.zf()), ("ZF", 4, 16)),
        "channel.draw": ((RngSeed(1).generator(), 4, 16), 128),
        "montecarlo.estimate": ((McConfig(100, RngSeed(1), scheme, PrecoderKind.zf()),), 100),
    }


def test_info_reads_the_targets_arguments():
    calls = _sample_calls()
    assert set(calls) == {span for span, (_, _, info) in TARGETS.items() if info is not None}
    for span, (args, expected) in calls.items():
        module, attr, info = TARGETS[span]
        target = inspect.signature(getattr(importlib.import_module(module), attr))
        # the wrapper passes the call's arguments, positional or by keyword, to info unchanged
        assert list(target.parameters) == list(inspect.signature(info).parameters), span
        bound = target.bind(*args)
        assert info(*args) == info(**bound.arguments) == expected, span
