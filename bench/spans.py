"""Layer spans recorded from outside the program.

During a traced pass, :func:`installed` swaps each public function or
method listed in :data:`LAYERS` (at the name its caller looks up, e.g.
``repro.experiments.runner.generate_gdi_trace``) for a wrapper that
records one span per call and, where the layer reports work done, a
count.  Nothing under ``src/`` changes; the originals are restored when
the ``with`` block ends.  Spans stay in memory and are written as JSONL
when the benchmark exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class Span:
    """One call into a layer: ``[start, end]`` on ``time.perf_counter``."""

    __slots__ = ("name", "start", "end", "parent", "workload")

    def __init__(
        self, name: str, start: float, end: float, parent: int, workload: str
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        #: index of the enclosing span in the same tracer, -1 at top level
        self.parent = parent
        self.workload = workload


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), math.nan, parent, self.workload)
        )
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


def write_jsonl(path, tracers: Iterable[Tracer], epoch: float) -> None:
    """One JSON object per span, times in seconds since ``epoch``.

    Ids run on across tracers, so ``parent`` stays a valid ``id``.
    """
    offset = 0
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for index, span in enumerate(tracer.spans):
                record = {
                    "id": offset + index,
                    "name": span.name,
                    "start": span.start - epoch,
                    "end": span.end - epoch,
                    "parent": offset + span.parent if span.parent >= 0 else -1,
                    "workload": span.workload,
                }
                handle.write(json.dumps(record) + "\n")
            offset += len(tracer.spans)


# -- span arithmetic ---------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        inner = covered(children.get(index, ()), span.start, span.end)
        totals[span.name] += (span.end - span.start) - inner
    return dict(totals)


def inclusive_time(spans: Sequence[Span], name: str) -> float:
    """Wall time inside spans called ``name``, nested repeats counted once."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            total += span.end - span.start
    return total


def unattributed(spans: Sequence[Span], start: float, end: float) -> float:
    """Part of ``[start, end]`` that no top-level span covers."""
    tops = [(s.start, s.end) for s in spans if s.parent < 0]
    return (end - start) - covered(tops, start, end)


# -- the layer table ---------------------------------------------------------

Counter = Callable[[Tracer, tuple, object], None]


def _count_len(metric: str) -> Counter:
    def counter(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.count(metric, len(result))  # type: ignore[arg-type]

    return counter


def _count_calls(metric: str) -> Counter:
    def counter(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.count(metric)

    return counter


def _count_gdi(tracer: Tracer, args: tuple, trace) -> None:
    tracer.count("traces.gdi.records", len(trace.records))


def _count_cache_load(tracer: Tracer, args: tuple, entry) -> None:
    if entry is None:
        tracer.count("traces.cache.misses")
        return
    tracer.count("traces.cache.hits")
    tracer.count(
        "traces.cache.bytes_loaded",
        entry.timestamps.nbytes + entry.sensor_ids.nbytes + entry.values.nbytes,
    )


def _count_shm_publish(tracer: Tracer, args: tuple, result) -> None:
    segment, descriptor = result
    tracer.count("experiments.shm.segments")
    tracer.count("experiments.shm.bytes_published", segment.size)


def _count_spawns(tracer: Tracer, args: tuple, update) -> None:
    spawned = len(update.spawned) + (update.mean_spawned is not None)
    tracer.count("core.clustering.states", spawned)


def _count_fleet_windows(tracer: Tracer, args: tuple, result) -> None:
    tracer.count(
        "fleet.deployment_windows", sum(len(windows) for windows in args[1])
    )


def _count_campaign(tracer: Tracer, args: tuple, report) -> None:
    tracer.count("experiments.runner.retries", report.n_retries)
    tracer.count("experiments.runner.timeouts", report.n_timeouts)
    tracer.count("experiments.runner.worker_crashes", report.n_worker_crashes)
    tracer.count("experiments.runner.quarantined", len(report.quarantined))


#: (module, attribute at the caller's lookup site, span name or None for a
#: count-only wrapper, counter or None)
LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[Counter]], ...] = (
    ("repro.experiments.runner", "run_campaign", "experiments.runner", _count_campaign),
    ("repro.experiments.runner", "run_fleet", "experiments.runner", None),
    ("repro.experiments.runner", "generate_gdi_trace", "traces.gdi", _count_gdi),
    (
        "repro.experiments.runner",
        "window_trace_by_samples",
        "traces.windows",
        _count_len("traces.windows.windows"),
    ),
    (
        "repro.experiments.scenarios",
        "reference_states",
        "experiments.scenarios.reference",
        _count_calls("experiments.scenarios.reference_runs"),
    ),
    ("repro.traces.cache", "TraceCache.store", "traces.cache.store", None),
    ("repro.traces.cache", "TraceCache.load", "traces.cache.load", _count_cache_load),
    ("repro.experiments.shm", "publish_entry", "experiments.shm.publish", _count_shm_publish),
    ("repro.experiments.shm", "release_segments", "experiments.shm.publish", None),
    (
        "repro.sensornet.collector",
        "windows_from_arrays",
        "sensornet.collector",
        _count_len("sensornet.collector.windows"),
    ),
    (
        "repro.core.pipeline",
        "DetectionPipeline.process_window",
        "core.pipeline.process_window",
        _count_calls("core.pipeline.windows"),
    ),
    (
        "repro.core.pipeline",
        "DetectionPipeline.process_windows_fast",
        "core.pipeline.process_windows_fast",
        None,
    ),
    ("repro.core.clustering", "OnlineStateClusterer.update", "core.clustering.update", _count_spawns),
    ("repro.core.pipeline", "identify_window", "core.identification.identify", None),
    (
        "repro.core.alarms",
        "AlarmGenerator.process",
        "core.alarms.process",
        _count_len("core.alarms.raw_alarms"),
    ),
    (
        "repro.core.filtering",
        "FilterBank.update",
        "core.filtering.update",
        _count_len("core.filtering.transitions"),
    ),
    ("repro.core.tracks", "TrackManager.record_window", "core.tracks.record", None),
    ("repro.core.tracks", "TrackManager.open_track", None, _count_calls("core.tracks.tracks")),
    ("repro.core.online_hmm", "OnlineHMM.observe", "core.online_hmm.observe", None),
    ("repro.core.pipeline", "DetectionPipeline.diagnose_all", "core.classification.verdict", None),
    ("repro.core.pipeline", "DetectionPipeline.system_diagnosis", "core.classification.verdict", None),
    ("repro.core.pipeline", "DetectionPipeline.correct_model", "core.classification.verdict", None),
    ("repro.fleet.engine", "FleetEngine.from_pipelines", "fleet.pack", None),
    (
        "repro.fleet.engine",
        "FleetEngine.process_windows",
        "fleet.process_windows",
        _count_fleet_windows,
    ),
    ("repro.fleet.engine", "FleetEngine.to_pipelines", "fleet.unpack", None),
)

#: span name -> per-layer metric reporting that span's self time
SELF_TIME_METRICS: Dict[str, str] = {
    "experiments.runner": "experiments.runner.self_s",
    "traces.gdi": "traces.gdi.busy_s",
    "traces.windows": "traces.windows.busy_s",
    "traces.cache.store": "traces.cache.store_s",
    "traces.cache.load": "traces.cache.load_s",
    "experiments.shm.publish": "experiments.shm.publish_s",
    "sensornet.collector": "sensornet.collector.busy_s",
    "core.pipeline.process_window": "core.pipeline.process_window_s",
    "core.pipeline.process_windows_fast": "core.pipeline.process_windows_fast_s",
    "core.clustering.update": "core.clustering.update_s",
    "core.identification.identify": "core.identification.identify_s",
    "core.alarms.process": "core.alarms.process_s",
    "core.filtering.update": "core.filtering.update_s",
    "core.tracks.record": "core.tracks.record_s",
    "core.online_hmm.observe": "core.online_hmm.observe_s",
    "core.classification.verdict": "core.classification.verdict_s",
    "fleet.process_windows": "fleet.process_windows_s",
    "fleet.pack": "fleet.pack_s",
    "fleet.unpack": "fleet.unpack_s",
}


def _wrap(function, tracer: Tracer, span: Optional[str], counter: Optional[Counter]):
    if span is None:

        @functools.wraps(function)
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            counter(tracer, args, result)
            return result

        return counted

    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = tracer.enter(span)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit(index)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, layers=LAYERS) -> Iterator[List[str]]:
    """Record spans into ``tracer`` for every call made inside the block.

    Yields the lookup sites that no longer exist.  A layer a later change
    removes or renames then reports zero work instead of breaking the
    traced run, and the result file names the missing site.
    """
    originals = []
    missing: List[str] = []
    try:
        for module_name, path, span, counter in layers:
            *outer, attribute = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for name in outer:
                    owner = getattr(owner, name)
                raw = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(raw.__func__, tracer, span, counter))
            else:
                replacement = _wrap(raw, tracer, span, counter)
            originals.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
        yield missing
    finally:
        for owner, attribute, raw in reversed(originals):
            setattr(owner, attribute, raw)


def layer_metrics(tracer: Tracer, start: float, end: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass that ran over ``[start, end]``."""
    spans = tracer.spans
    metrics: Dict[str, float] = dict(tracer.counts)
    for name, seconds in self_times(spans).items():
        metric = SELF_TIME_METRICS.get(name)
        if metric is not None:
            metrics[metric] = seconds
    metrics["experiments.scenarios.reference_s"] = inclusive_time(
        spans, "experiments.scenarios.reference"
    )
    windows = metrics.get("core.pipeline.windows", 0)
    if windows:
        metrics["core.pipeline.us_per_window"] = (
            inclusive_time(spans, "core.pipeline.process_window") / windows * 1e6
        )
    metrics["bench.traced_wall_s"] = end - start
    metrics["bench.unattributed_s"] = unattributed(spans, start, end)
    return metrics
