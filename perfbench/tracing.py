"""Span tracer wrapped around ccdl's public entry points from outside the package.

``Tracer.install()`` replaces each target function with a wrapper in every
``ccdl`` module that bound it, so calls through ``module.name`` and through
``from module import name`` are both seen; ``uninstall()`` restores the
originals.  A wrapper records one span per call: name, layer, start, end,
parent span, thread id and the CLI call id shared by all spans of one
invocation.  The ``map_ordered`` wrapper also wraps each item in a
``parallel.item`` span whose parent is the map span, which carries the
parent into pool threads.  Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    layer: str
    call: int
    thread: int
    start: float
    end: float
    info: object  # computed work of the call (see TARGETS), or None
    error: str | None  # exception type that left the call


def _build_info(H, kind):
    return kind.name, H.shape[0], H.shape[1]


# (defining module, attribute, span name, layer, info from the call's arguments)
TARGETS = (
    ("ccdl.expcli", "main", "expcli.main", "expcli", None),
    ("ccdl.scheme", "validate", "scheme.validate", "scheme", None),
    ("ccdl.scheme", "scheme_for_gain", "scheme.scheme_for_gain", "scheme", None),
    ("ccdl.montecarlo", "estimate_sum_rate", "montecarlo.estimate", "montecarlo", lambda mc: mc.trials),
    ("ccdl.precoding", "build_precoder", "precoding.build", "precoding", _build_info),
    ("ccdl.precoding", "stage_sinrs", "precoding.sinr", "precoding", None),
    ("ccdl.channel", "complex_gaussian", "channel.draw", "channel", lambda gen, Q, L: 2 * Q * L),
    ("ccdl.analytic", "effective_rate", "analytic.effective_rate", "analytic", None),
    ("ccdl.analytic", "rzf_deterministics", "analytic.rzf_deterministics", "analytic", None),
    ("ccdl.optimizer", "optimized_gain", "optimizer.optimized_gain", "optimizer", None),
    ("ccdl.optimizer", "rzf_opt_c", "optimizer.rzf_opt_c", "optimizer", None),
    ("ccdl._parallel", "map_ordered", "parallel.map", "parallel", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0  # id of the CLI invocation in progress; set by the caller
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, layer, info in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if name == "parallel.map":
                wrapper = self._map_wrapper(original)
            else:
                wrapper = self._wrapper(original, name, layer, info)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "ccdl" and not mod_name.startswith("ccdl."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrapper(self, fn, name, layer, info_fn, parent=None):
        """Wrap ``fn`` in a span; ``parent`` fixes the parent span (pool items)."""
        spans, local, ids, clock, ident = self.spans, self._local, self._ids, time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            outer = getattr(local, "span", None)
            up = parent if parent is not None else outer
            sid = next(ids)
            local.span = (sid, layer)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                local.span = outer
                info = info_fn(*args, **kwargs) if info_fn is not None else None
                spans.append(Span(sid, up and up[0], name, layer, self.call, ident(), start, end, info, error))

        traced.__wrapped__ = fn
        return traced

    def _map_wrapper(self, map_ordered):
        local, ids, clock, ident = self._local, self._ids, time.perf_counter, threading.get_ident

        def traced_map(fn, items):
            items = list(items)
            outer = getattr(local, "span", None)
            sid = next(ids)
            # Item work belongs to the layer that called map_ordered.
            item = self._wrapper(fn, "parallel.item", outer[1] if outer else "bench", None, parent=(sid, "parallel"))
            local.span = (sid, "parallel")
            error = None
            start = clock()
            try:
                return map_ordered(item, items)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                local.span = outer
                self.spans.append(
                    Span(sid, outer and outer[0], "parallel.map", "parallel", self.call, ident(), start, end,
                         len(items), error)
                )

        traced_map.__wrapped__ = map_ordered
        return traced_map

    def write(self, path) -> None:
        """Write every span, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\t".join(Span._fields) + "\n")
            for span in sorted(self.spans, key=lambda s: s.sid):
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _build_flops_bytes(precoder: str, Q: int, L: int) -> tuple[float, float]:
    """Computed (not counted) real flops and bytes of one build_precoder call.

    Complex multiply-add = 8 real flops, complex128 = 16 bytes.  MF is a
    conjugate transpose (no flops; channel and precoder arrays).  ZF and RZF
    form the Gram matrix (8 Q^2 L), LU-factor it (8/3 Q^3), solve for L
    right-hand sides (8 Q^2 L); RZF adds alpha to Q diagonal entries.  Bytes
    are the channel, Gram and precoder arrays.
    """
    if precoder == "MF":
        return 0.0, 16.0 * 2 * Q * L
    flops = 16.0 * Q * Q * L + 8.0 / 3.0 * Q**3 + (Q if precoder == "RZF" else 0)
    return flops, 16.0 * (2 * Q * L + Q * Q)


def layer_metrics(spans: list[Span], calls: int, rows: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass of ``calls`` CLI invocations.

    Counts and times are per CLI invocation; ratios are pooled over the pass.
    A layer's self time is the duration of its spans minus the part covered
    by their child spans; ``parallel.item`` spans count toward the layer that
    called ``map_ordered``.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    by_sid = {s.sid: s for s in spans}
    count = defaultdict(int)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    for s in spans:
        own = s.end - s.start - _covered(children.get(s.sid, ()), s.start, s.end)
        count[s.name] += 1
        self_by_name[s.name] += own
        self_by_layer[s.layer] += own

    normals = sum(s.info for s in spans if s.name == "channel.draw")
    trials = sum(s.info for s in spans if s.name == "montecarlo.estimate")
    rank_deficient = sum(1 for s in spans if s.name == "precoding.sinr" and s.error == "RankDeficient")
    builds = {p: [0, 0.0, 0.0] for p in ("MF", "ZF", "RZF")}
    for s in spans:
        if s.name == "precoding.build":
            precoder, Q, L = s.info
            flops, nbytes = _build_flops_bytes(precoder, Q, L)
            entry = builds[precoder]
            entry[0] += 1
            entry[1] += flops
            entry[2] += nbytes

    def under_optimizer(s: Span) -> bool:
        sid = s.parent
        while sid is not None:
            up = by_sid[sid]
            if up.layer == "optimizer":
                return True
            sid = up.parent
        return False

    objective_evals = sum(1 for s in spans if s.name == "analytic.effective_rate" and under_optimizer(s))

    # Pool work: map_ordered calls whose items ran off the calling thread.
    items = defaultdict(list)
    for s in spans:
        if s.name == "parallel.item":
            items[s.parent].append(s)
    pool_maps = pool_items = workers = 0
    pool_wall = queue_wait = busy = capacity = 0.0
    for m in spans:
        if m.name != "parallel.map":
            continue
        threads = {i.thread for i in items[m.sid]}
        if not threads - {m.thread}:
            continue
        wall = m.end - m.start
        pool_maps += 1
        pool_items += len(items[m.sid])
        workers = max(workers, len(threads))
        pool_wall += wall
        queue_wait += sum(i.start - m.start for i in items[m.sid])
        busy += sum(i.end - i.start for i in items[m.sid])
        capacity += len(threads) * wall

    sinr_calls = count["precoding.sinr"]
    draw_self = self_by_name["channel.draw"]
    n = max(calls, 1)
    metrics = {
        "channel.draw.calls": count["channel.draw"] / n,
        "channel.draw.normals": normals / n,
        "channel.draw.self_s": draw_self / n,
        "channel.draw.normals_per_s": normals / draw_self if draw_self > 0 else 0.0,
        "precoding.build.calls": count["precoding.build"] / n,
        "precoding.build.self_s": self_by_name["precoding.build"] / n,
        "precoding.build.flops": sum(b[1] for b in builds.values()) / n,
    }
    for precoder, (build_calls, flops, nbytes) in builds.items():
        p = precoder.lower()
        metrics[f"precoding.build.{p}.calls"] = build_calls / n
        metrics[f"precoding.build.{p}.computed_flops"] = flops / n
        metrics[f"precoding.build.{p}.computed_bytes"] = nbytes / n
    metrics.update({
        "precoding.sinr.calls": sinr_calls / n,
        "precoding.sinr.self_s": self_by_name["precoding.sinr"] / n,
        "precoding.rank_deficient": rank_deficient / n,
        "precoding.sinr.accept_ratio": (sinr_calls - rank_deficient) / sinr_calls if sinr_calls else 1.0,
        "montecarlo.estimate.calls": count["montecarlo.estimate"] / n,
        "montecarlo.trials": trials / n,
        "montecarlo.self_s": self_by_layer["montecarlo"] / n,
        "parallel.map.calls": count["parallel.map"] / n,
        "parallel.map.items": count["parallel.item"] / n,
        "parallel.pool.maps": pool_maps / n,
        "parallel.pool.items": pool_items / n,
        "parallel.workers": workers,
        "parallel.map.wall_s": pool_wall / n,
        "parallel.queue_wait_s": queue_wait / n,
        "parallel.efficiency": busy / capacity if capacity > 0 else 0.0,
        "parallel.self_s": self_by_layer["parallel"] / n,
        "analytic.effective_rate.calls": count["analytic.effective_rate"] / n,
        "analytic.effective_rate.self_s": self_by_name["analytic.effective_rate"] / n,
        "analytic.rzf_deterministics.calls": count["analytic.rzf_deterministics"] / n,
        "analytic.self_s": self_by_layer["analytic"] / n,
        "optimizer.optimized_gain.calls": count["optimizer.optimized_gain"] / n,
        "optimizer.rzf_opt_c.calls": count["optimizer.rzf_opt_c"] / n,
        "optimizer.objective_evals": objective_evals / n,
        "optimizer.self_s": self_by_layer["optimizer"] / n,
        "scheme.validate.calls": count["scheme.validate"] / n,
        "scheme.self_s": self_by_layer["scheme"] / n,
        "expcli.calls": calls,
        "expcli.rows": rows / n,
        "expcli.self_s": self_by_layer["expcli"] / n,
    })
    return metrics
