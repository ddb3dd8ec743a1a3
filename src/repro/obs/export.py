"""Trace and metrics exporters: Chrome trace-event JSON, flat JSON/CSV.

:func:`chrome_trace` emits the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto / ``chrome://tracing``: one ``B``/``E`` event pair per
span, one named track (tid) per host worker thread and one per simulated
device executor, thread-name metadata events, plus the metrics registry
snapshot under ``otherData``.  Timestamps are microseconds as floats —
full ``perf_counter`` precision is preserved.

Host tracks carry wall time; ``sim:*`` tracks carry *simulated* seconds
(the cost-model timeline).  They coexist in one file because Perfetto
renders tracks independently; see ``docs/observability.md``.

:func:`load_chrome_trace` round-trips a written file back into
:class:`~repro.obs.span.Span` objects (parentage reconstructed from the
B/E nesting) so ``python -m repro trace out.json`` can render the phase
breakdown of any saved run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span
from repro.util.atomic import atomic_write_text


def _track_order(track: str) -> tuple:
    """Host tracks first (in creation order), simulated tracks after."""
    if track.startswith("host:"):
        suffix = track.split(":", 1)[1]
        return (0, int(suffix) if suffix.isdigit() else 1 << 30, track)
    return (1, 0, track)


def emit_span_events(
    events: list[dict], spans: list[Span], pid: int, tid_base: int = 0
) -> int:
    """Append thread-name metadata + stack-disciplined ``B``/``E`` pairs
    for *spans* under process *pid*, numbering tracks from ``tid_base + 1``.

    Returns the number of tracks emitted, so a multi-process writer (the
    fleet merge) can keep tids globally unique across workers.  Spans on
    one track must be well nested — guaranteed for tracer-produced spans.
    """
    tracks = sorted({s.track for s in spans}, key=_track_order)
    tids = {track: tid_base + i + 1 for i, track in enumerate(tracks)}
    for track in tracks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    for track in tracks:
        tid = tids[track]
        mine = sorted(
            (s for s in spans if s.track == track),
            key=lambda s: (s.start, -s.end, s.span_id),
        )
        stack: list[Span] = []
        for s in mine:
            while stack and stack[-1].end <= s.start:
                done = stack.pop()
                events.append(
                    {"name": done.name, "ph": "E", "pid": pid, "tid": tid,
                     "ts": done.end * 1e6}
                )
            args = {k: v for k, v in s.attrs.items()}
            if s.cpu:
                args["cpu_s"] = s.cpu
            events.append(
                {"name": s.name, "ph": "B", "pid": pid, "tid": tid,
                 "ts": s.start * 1e6, "args": args}
            )
            stack.append(s)
        while stack:
            done = stack.pop()
            events.append(
                {"name": done.name, "ph": "E", "pid": pid, "tid": tid,
                 "ts": done.end * 1e6}
            )
    return len(tracks)


def chrome_trace(
    spans: list[Span],
    metrics: MetricsRegistry | None = None,
    meta: dict | None = None,
) -> dict:
    """Build a Chrome trace-event dict from finished spans.

    Spans on one track must be well nested (guaranteed for spans produced
    by a :class:`~repro.obs.span.Tracer`: host spans come off a per-thread
    stack, simulated spans are sequential per executor).  Each span becomes
    a ``B``/``E`` pair; per track the event stream is stack-disciplined and
    its timestamps are non-decreasing.
    """
    events: list[dict] = []
    emit_span_events(events, spans, pid=0)
    out = {"traceEvents": events, "displayTimeUnit": "ms"}
    other: dict = {}
    if metrics is not None:
        other["metrics"] = metrics.to_dict()
    if meta:
        other["trace"] = dict(meta)
    if other:
        out["otherData"] = other
    return out


def write_chrome_trace(
    path,
    spans: list[Span],
    metrics: MetricsRegistry | None = None,
    meta: dict | None = None,
) -> str:
    """Serialize :func:`chrome_trace` to *path* (atomic tmp+rename — a
    killed process never leaves a truncated trace); returns the path."""
    return atomic_write_text(
        path, json.dumps(chrome_trace(spans, metrics=metrics, meta=meta))
    )


@dataclass
class TraceFile:
    """One loaded trace/metrics artifact.

    ``spans`` is empty for metrics-only files (a bare ``--metrics-out``
    JSON dump, or a crashed worker's checkpoint that never recorded a
    span); ``warnings`` lists every malformation a lenient read repaired
    instead of raising.
    """

    path: str = ""
    spans: list[Span] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def worker(self) -> str:
        """Display name: recorded worker id, else the file stem."""
        return str(self.meta.get("worker") or Path(self.path).stem or "trace")


def _looks_like_metrics_dump(data: dict) -> bool:
    """A bare ``--metrics-out`` JSON file (no trace events at all)."""
    return "traceEvents" not in data and (
        "counters" in data or "gauges" in data or "histograms" in data
    )


def read_trace(path, strict: bool = False) -> TraceFile:
    """Read a trace or metrics artifact into a :class:`TraceFile`.

    Parentage is reconstructed from the per-track ``B``/``E`` nesting and
    span ids are reassigned.  With ``strict=True`` any malformation
    (unbalanced events, mismatched close names, dangling opens) raises
    ``ValueError``.  The default lenient mode instead *repairs* and
    records a warning — a crashed worker's checkpoint, a metrics-only
    dump, or a hand-truncated file still renders:

    * an ``E`` with no open span on its track is skipped,
    * an ``E`` naming a different span than the innermost open one is
      skipped (the open span stays open),
    * spans still open at the end are closed at the latest timestamp
      seen on the file.
    """
    data = json.loads(Path(path).read_text())
    out = TraceFile(path=str(path))
    if isinstance(data, dict) and _looks_like_metrics_dump(data):
        out.metrics = data
        out.warnings.append("metrics-only file (no trace events)")
        if strict:
            raise ValueError(f"{path}: not a Chrome trace (metrics-only dump)")
        return out
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if events is None:
            msg = f"{path}: no traceEvents key"
            if strict:
                raise ValueError(msg)
            out.warnings.append("no traceEvents key")
            events = []
        other = data.get("otherData", {})
        out.metrics = other.get("metrics", {})
        out.meta = other.get("trace", {})
    else:
        events = data
    names: dict[int, str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[ev["tid"]] = ev.get("args", {}).get("name", f"tid:{ev['tid']}")
    spans: list[Span] = []
    stacks: dict[int, list[Span]] = {}
    next_id = 1
    last_ts = 0.0
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("B", "E"):
            continue
        tid = ev.get("tid", 0)
        last_ts = max(last_ts, ev.get("ts", 0.0) / 1e6)
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            attrs = dict(ev.get("args", {}))
            span = Span(
                name=ev.get("name", "?"),
                span_id=next_id,
                parent_id=stack[-1].span_id if stack else None,
                track=names.get(tid, f"tid:{tid}"),
                start=ev.get("ts", 0.0) / 1e6,
                end=ev.get("ts", 0.0) / 1e6,
                cpu=float(attrs.pop("cpu_s", 0.0)),
                attrs=attrs,
            )
            next_id += 1
            stack.append(span)
        else:
            if not stack:
                if strict:
                    raise ValueError(f"unbalanced E event on tid {tid}: {ev}")
                out.warnings.append(f"skipped unbalanced E event on tid {tid}")
                continue
            if ev.get("name") not in (None, stack[-1].name):
                if strict:
                    raise ValueError(
                        f"E event {ev.get('name')!r} closes span "
                        f"{stack[-1].name!r} on tid {tid}"
                    )
                out.warnings.append(
                    f"skipped mismatched E event {ev.get('name')!r} on tid {tid}"
                )
                continue
            span = stack.pop()
            span.end = ev.get("ts", 0.0) / 1e6
            spans.append(span)
    dangling = [s for st in stacks.values() for s in st]
    if dangling:
        if strict:
            raise ValueError(f"unclosed B events: {[s.name for s in dangling]}")
        for span in dangling:
            span.end = max(span.start, last_ts)
            span.attrs.setdefault("unclosed", True)
            spans.append(span)
        out.warnings.append(
            f"closed {len(dangling)} dangling span(s) at the last timestamp "
            f"(partial trace — crashed or still-running writer?)"
        )
    out.spans = spans
    return out


def load_chrome_trace(path) -> tuple[list[Span], dict]:
    """Strict legacy reader: spans + metrics snapshot; raises ``ValueError``
    on malformed files.  Prefer :func:`read_trace` for tooling that must
    degrade gracefully on partial or metrics-only artifacts."""
    loaded = read_trace(path, strict=True)
    return loaded.spans, loaded.metrics


def metrics_to_json(metrics: MetricsRegistry) -> str:
    """Flat JSON dump of a metrics registry."""
    return json.dumps(metrics.to_dict(), indent=2, sort_keys=True)


def metrics_to_csv(metrics: MetricsRegistry) -> str:
    """Flat CSV dump: ``kind,name,value`` rows (histograms flattened into
    ``sum``/``count``/``bucket_le_<b>`` rows)."""
    snap = metrics.to_dict()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "name", "value"])
    for name, value in snap["counters"].items():
        writer.writerow(["counter", name, value])
    for name, value in snap["gauges"].items():
        writer.writerow(["gauge", name, value])
    for name, hist in snap["histograms"].items():
        writer.writerow(["histogram", f"{name}.sum", hist["total"]])
        writer.writerow(["histogram", f"{name}.count", hist["n"]])
        edges = [*hist["boundaries"], "inf"]
        for edge, count in zip(edges, hist["counts"]):
            writer.writerow(["histogram", f"{name}.bucket_le_{edge}", count])
    return buf.getvalue()


def write_metrics(path, metrics: MetricsRegistry) -> str:
    """Write the metrics dump to *path* atomically (format from the
    extension: ``.csv`` flat CSV, anything else JSON)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return atomic_write_text(path, metrics_to_csv(metrics))
    return atomic_write_text(path, metrics_to_json(metrics))


__all__ = [
    "TraceFile",
    "chrome_trace",
    "write_chrome_trace",
    "read_trace",
    "load_chrome_trace",
    "metrics_to_json",
    "metrics_to_csv",
    "write_metrics",
]
