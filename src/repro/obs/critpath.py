"""Critical-path extraction over the causal span DAG of a finished run.

The paper's headline figures are *attribution* claims — which layer
(boot, converge, transfer, queue wait, execute) dominates end-to-end
time.  The span recorder captures every interval; this module answers
"what chain of operations set the makespan?" by walking the span DAG of
one recorded context **backwards from the last operation to finish**:

1. start at the last-ending operational span (latest ``end``; ties break
   toward the latest ``start``, then the highest id — i.e. the most
   specific, most recently opened work);
2. repeatedly pick the current span's *predecessor* — in priority order,
   its explicit :attr:`~repro.obs.recorder.Span.cause_id` link, its
   same-track parent, the previous span on its track, or (fallback) the
   globally last span to finish before it started;
3. attribute each backward step's interval to the span that covered it;
   time no chosen span covers becomes an explicit ``idle`` segment.

The walk is contiguous backward coverage of ``[trace_start,
makespan_end]``, so the summed segment durations equal the makespan by
construction, every segment is non-negative, and the chain contains the
longest operational span's own interval whenever that span lies on it.
Container spans that merely *wrap* the run (``kernel.run``) are excluded
from the walk — they would swallow the whole makespan into one segment
and say nothing.

Everything here reads the JSON-safe doc form
(:meth:`~repro.obs.recorder.ObsRecorder.to_dict`), uses only span data
(never metrics), and breaks every tie on deterministic keys — so the
critpath document for a run is byte-identical across worker counts and
obs exporters, the property the determinism tests pin.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

__all__ = [
    "PHASE_LAYERS",
    "CONTAINER_NAMES",
    "layer_of",
    "critical_path",
    "critpath_doc",
]

#: span-name prefix -> Fig. 10 phase layer.  Longest prefix wins; names
#: matching nothing fall back to their first dotted component.
PHASE_LAYERS: tuple[tuple[str, str], ...] = (
    ("ec2.", "boot"),
    ("chef.", "converge"),
    ("go.", "transfer"),
    ("gridftp.", "transfer"),
    ("galaxy.stage_in", "transfer"),
    ("galaxy.stage_out", "transfer"),
    ("condor.wait", "queue"),
    ("condor.run", "execute"),
    ("condor.", "execute"),
    ("galaxy.", "execute"),
    ("waas.", "service"),
)

#: spans that wrap a whole run rather than doing work; never chain nodes
CONTAINER_NAMES = frozenset({"kernel.run"})


def layer_of(name: str) -> str:
    """Map a span name to its Fig. 10 phase layer."""
    best = None
    best_len = -1
    for prefix, layer in PHASE_LAYERS:
        if name.startswith(prefix) and len(prefix) > best_len:
            best = layer
            best_len = len(prefix)
    if best is not None:
        return best
    return name.split(".", 1)[0]


def _closed_spans(doc: dict) -> list[dict]:
    return [
        s
        for s in doc.get("spans", ())
        if s.get("end") is not None
    ]


def _order_key(span: dict) -> tuple:
    """Deterministic 'finished last / most specific' ordering key."""
    return (span["end"], span["start"], span["id"])


def _pick_predecessor(
    cur: dict,
    by_id: dict[int, dict],
    by_track: dict[str, list[dict]],
    by_end: list[dict],
    end_keys: list[float],
) -> Optional[dict]:
    """The span to walk to from ``cur``; always starts strictly earlier.

    Priority: explicit cause link, same-track parent, previous span on
    the track (latest end <= cur.start), then the globally last span to
    finish at or before ``cur.start``.  Requiring ``start < cur.start``
    guarantees the walk terminates.
    """
    lo = cur["start"]
    cause = by_id.get(cur.get("cause_id"))
    if cause is not None and cause["start"] < lo:
        return cause
    parent = by_id.get(cur.get("parent_id"))
    if parent is not None and parent["start"] < lo:
        return parent
    best = None
    for s in by_track.get(cur["track"], ()):
        if s["id"] != cur["id"] and s["start"] < lo and s["end"] <= lo:
            if best is None or _order_key(s) > _order_key(best):
                best = s
    if best is not None:
        return best
    # global fallback: the last operation to finish at or before lo
    # (by_end ascends by (end, start, id), so scanning left from the
    # bisect point visits later finishers first)
    i = bisect_right(end_keys, lo) - 1
    while i >= 0:
        s = by_end[i]
        if s["start"] < lo:
            return s
        i -= 1
    return None


def critical_path(doc: dict) -> dict:
    """Extract one context's makespan-dominating chain with attribution.

    Returns a JSON-safe dict: ``makespan_s``, ``critical_path_s``, the
    ordered ``segments`` (earliest first, each with its span identity,
    interval, and phase ``layer``; gaps appear as ``layer="idle"``), and
    the per-layer second totals in ``layers``.
    """
    spans = _closed_spans(doc)
    label = doc.get("label") or "sim"
    if not spans:
        return {
            "label": label,
            "makespan_s": 0.0,
            "critical_path_s": 0.0,
            "chain_spans": 0,
            "layers": {},
            "segments": [],
        }
    trace_start = min(s["start"] for s in spans)
    makespan_end = max(s["end"] for s in spans)
    walkable = [s for s in spans if s["name"] not in CONTAINER_NAMES]
    segments: list[dict] = []

    def add_segment(span: Optional[dict], lo: float, hi: float) -> None:
        if hi <= lo:
            return
        if span is None:
            segments.append(
                {
                    "span_id": None,
                    "name": "(idle)",
                    "track": "",
                    "layer": "idle",
                    "start": lo,
                    "end": hi,
                    "duration_s": hi - lo,
                }
            )
        else:
            segments.append(
                {
                    "span_id": span["id"],
                    "name": span["name"],
                    "track": span["track"],
                    "layer": layer_of(span["name"]),
                    "start": lo,
                    "end": hi,
                    "duration_s": hi - lo,
                }
            )

    chain = 0
    if walkable:
        by_id = {s["id"]: s for s in walkable}
        by_track: dict[str, list[dict]] = {}
        for s in walkable:
            by_track.setdefault(s["track"], []).append(s)
        by_end = sorted(walkable, key=_order_key)
        end_keys = [s["end"] for s in by_end]
        cur = by_end[-1]
        # time above the last finisher's end (a container outlasting all
        # operational work) reads as trailing idle
        add_segment(None, cur["end"], makespan_end)
        boundary = cur["end"]
        while True:
            chain += 1
            lo = cur["start"]
            add_segment(cur, lo, boundary)
            pred = _pick_predecessor(cur, by_id, by_track, by_end, end_keys)
            if pred is None:
                add_segment(None, trace_start, lo)
                break
            # attribute pred only up to cur's start; anything between its
            # end and cur's start nobody covered — explicit idle
            pred_end = min(pred["end"], lo)
            add_segment(None, pred_end, lo)
            boundary = pred_end
            cur = pred
    else:
        add_segment(None, trace_start, makespan_end)
    segments.reverse()
    layers: dict[str, float] = {}
    for seg in segments:
        layers[seg["layer"]] = layers.get(seg["layer"], 0.0) + seg["duration_s"]
    return {
        "label": label,
        "makespan_s": makespan_end - trace_start,
        "critical_path_s": sum(seg["duration_s"] for seg in segments),
        "chain_spans": chain,
        "layers": {k: layers[k] for k in sorted(layers)},
        "segments": segments,
    }


def critpath_doc(source, suite: str = "") -> dict:
    """The ``.critpath.json`` artefact: per-context paths + layer totals.

    ``source`` is anything :func:`repro.obs.export.as_docs` accepts.
    Aggregate ``layers`` sums seconds across contexts; ``makespan_s`` is
    the largest single-context makespan.
    """
    from .export import as_docs

    contexts = [critical_path(doc) for doc in as_docs(source)]
    layers: dict[str, float] = {}
    for ctx in contexts:
        for layer, seconds in ctx["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + seconds
    return {
        "version": 1,
        "suite": suite,
        "contexts": contexts,
        "layers": {k: layers[k] for k in sorted(layers)},
        "makespan_s": max((c["makespan_s"] for c in contexts), default=0.0),
        "critical_path_s": sum(c["critical_path_s"] for c in contexts),
    }
