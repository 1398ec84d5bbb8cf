"""Spans recorded around calls into each `deteval` module.

The program itself carries no instrumentation: `instrument` replaces the
public functions that `deteval.cli` and `deteval.metrics` call with wrappers
that open a span, and restores them afterwards. Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    self_s: float = 0.0
    share_s: float = 0.0


class Tracer:
    """Collects spans from every thread of one traced replay.

    A worker thread's outermost span takes as parent the span open on the
    main thread when it starts, which is the call that created the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.unwrapped: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        outer = stack or self._stacks.get(self._main) or [None]
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, outer[-1], self.run_id)
        stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def finish(self) -> None:
        """Derive each span's self time, its duration minus the part of its
        interval that its child spans cover, and its share: the wall time it
        and its descendants account for when spans of several threads are
        open at once. An instant is split evenly among the open spans that
        have no open child, so the shares of a span's children and its own
        exclusive time add up to its duration."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            covered = union_length((c.start, c.end) for c in children.get(s.id, ()))
            s.self_s = (s.end - s.start) - covered
            s.share_s = 0.0

        # At equal times, opens sort before closes, parents open before their
        # children and children close before their parents (ids grow with
        # opening order), so a clock too coarse to separate them is harmless.
        events = sorted(
            [(s.start, 0, s.id) for s in self.spans] + [(s.end, 1, -s.id) for s in self.spans]
        )
        open_children: dict[int, int] = {}
        exclusive: dict[int, float] = {}
        last = events[0][0] if events else 0.0
        for t, closing, key in events:
            running = [i for i, n in open_children.items() if n == 0]
            for i in running:
                exclusive[i] = exclusive.get(i, 0.0) + (t - last) / len(running)
            last = t
            span_id = abs(key)
            parent = by_id[span_id].parent
            if not closing:
                open_children[span_id] = 0
                if parent in open_children:
                    open_children[parent] += 1
            else:
                del open_children[span_id]
                if parent in open_children:
                    open_children[parent] -= 1
        for span_id, t in exclusive.items():
            while span_id is not None:
                by_id[span_id].share_s += t
                span_id = by_id[span_id].parent

    def layer_time(self, name: str) -> float:
        """Wall time attributed to spans of `name`, shares included."""
        return sum((s.share_s for s in self.spans if s.name == name), 0.0)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _one(_result) -> int:
    return 1


# (attribute, span name, (counter, amount per result) or None); the span
# names are the layer names the benchmark reports.
_CLI_WRAPS = (
    ("parse_yolo_annotation", "annotations.parse", ("annotations.objects_parsed", len)),
    ("parse_yolo_prediction", "annotations.parse", ("annotations.objects_parsed", len)),
    ("format_yolo_annotation", "annotations.format", None),
    ("load_config", "config.load", None),
    ("digest_inputs", "config.digest", None),
    ("write_json", "config.write_json", None),
    ("evaluate_detections", "metrics.evaluate", None),
    ("plan_tiles", "prep.plan_tiles", ("prep.tiles", len)),
    ("retile_annotations", "prep.retile", None),
    ("augment", "prep.augment", ("prep.augment_samples", len)),
    ("split_dataset", "prep.split", None),
    ("shapiro_wilk", "stats.shapiro", None),
    ("anova_oneway", "stats.anova", ("stats.responses", _one)),
    ("t_test_pairwise", "stats.ttest", None),
    ("select_best", "desirability.select", None),
)
_METRICS_WRAPS = (
    ("_sweep", "metrics.ap", None),
    ("average_precision", "metrics.ap", None),
    ("confusion_matrix", "metrics.confusion", None),
)


def _wrapper(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter:
            tracer.count(counter[0], counter[1](result))
        return result

    return traced


def _match_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        cross_class = kwargs.get("cross_class", args[3] if len(args) > 3 else False)
        name = "metrics.match_cross" if cross_class else "metrics.match_same"
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def instrument(tracer: Tracer, cli_module, metrics_module):
    """Route the layer calls of `deteval.cli` and `deteval.metrics` through
    span-recording wrappers for the duration of the block. A name the
    program no longer defines is skipped, so its layer reads as zero, and
    is listed in `tracer.unwrapped`."""
    saved = []

    def patch(module, attr, replacement_for):
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.unwrapped.append(f"{module.__name__}.{attr}")
            return
        saved.append((module, attr, fn))
        setattr(module, attr, replacement_for(fn))

    for attr, name, counter in _CLI_WRAPS:
        patch(cli_module, attr, lambda fn, n=name, c=counter: _wrapper(tracer, fn, n, c))
    for attr, name, counter in _METRICS_WRAPS:
        patch(metrics_module, attr, lambda fn, n=name, c=counter: _wrapper(tracer, fn, n, c))
    patch(metrics_module, "match", lambda fn: _match_wrapper(tracer, fn))
    try:
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
