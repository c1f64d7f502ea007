"""Chrome ``trace_event`` JSON export of a recorded span set.

The emitted document is the "JSON Object Format" of the Trace Event
specification: ``{"traceEvents": [...], "displayTimeUnit": "ns"}``, with
complete (``"ph": "X"``) events for every span and metadata (``"M"``)
events naming the process and threads.  The file loads directly in
Perfetto (ui.perfetto.dev) and the legacy ``chrome://tracing`` viewer.

Layout: command spans occupy a set of round-robin "cmd lane" threads
(their stage slices nest inside the parent command slice); every
component track (``ssd.chn0.gang.bus`` etc.) gets its own thread so
utilization gaps are visible per resource.

Timestamps: trace_event ``ts``/``dur`` are microseconds; sim time is
picoseconds, so values are divided by 1e6 and emitted as floats (the
spec allows fractional microseconds).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

#: Number of command lanes.  Commands are assigned round-robin by span
#: id, so up to this many overlapping commands render on distinct rows.
COMMAND_LANES = 64

#: tid of the first command lane; component tracks start after them.
_CMD_TID_BASE = 1
_TRACK_TID_BASE = 1 + COMMAND_LANES

_PS_PER_US = 1e6


def to_chrome_trace(recorder, pid: int = 1,
                    process_name: str = "repro-sim") -> Dict[str, Any]:
    """Convert a :class:`~repro.obs.spans.SpanRecorder` to a trace dict."""
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    }]
    used_lanes = set()
    for span in recorder.commands:
        tid = _CMD_TID_BASE + (span.span_id % COMMAND_LANES)
        used_lanes.add(tid)
        args: Dict[str, Any] = {"id": span.span_id}
        if span.status is not None:
            args["status"] = span.status
        events.append({
            "name": span.label, "cat": "command", "ph": "X",
            "ts": span.start_ps / _PS_PER_US,
            "dur": (span.end_ps - span.start_ps) / _PS_PER_US,
            "pid": pid, "tid": tid, "args": args,
        })
        for name, start, end in span.stages:
            events.append({
                "name": name, "cat": "stage", "ph": "X",
                "ts": start / _PS_PER_US,
                "dur": (end - start) / _PS_PER_US,
                "pid": pid, "tid": tid,
            })
    tracks = sorted({span.track for span in recorder.component_spans})
    track_tid = {track: _TRACK_TID_BASE + index
                 for index, track in enumerate(tracks)}
    for span in recorder.component_spans:
        events.append({
            "name": span.name, "cat": "component", "ph": "X",
            "ts": span.start_ps / _PS_PER_US,
            "dur": (span.end_ps - span.start_ps) / _PS_PER_US,
            "pid": pid, "tid": track_tid[span.track],
        })
    for tid in sorted(used_lanes):
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": f"cmd lane {tid - _CMD_TID_BASE}"},
        })
    for track, tid in track_tid.items():
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(recorder, path: str) -> Dict[str, Any]:
    """Export the recorder to ``path``; returns the written document.

    ``allow_nan=False`` guarantees the output is strict JSON — a
    non-finite value anywhere would raise here rather than produce a
    file Perfetto rejects.
    """
    document = to_chrome_trace(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, allow_nan=False)
    return document


# ----------------------------------------------------------------------
# Validation (used by tests and the CI profile-smoke job)
# ----------------------------------------------------------------------
_METADATA_NAMES = {"process_name", "process_labels", "process_sort_index",
                   "thread_name", "thread_sort_index"}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_chrome_trace(document: Any) -> List[str]:
    """Check a trace document against the ``trace_event`` format.

    Returns a list of human-readable problems (empty means valid).
    Checks the envelope, then every event: phase-specific required
    fields, numeric non-negative timestamps/durations, and strict-JSON
    finiteness.
    """
    errors: List[str] = []
    if not isinstance(document, dict):
        return [f"document must be a JSON object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document must contain a 'traceEvents' array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: event must be an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            errors.append(f"{where}: missing 'ph' phase")
            continue
        if phase == "X":
            if not isinstance(event.get("name"), str):
                errors.append(f"{where}: X event needs a string 'name'")
            for field in ("ts", "dur"):
                value = event.get(field)
                if not _is_number(value):
                    errors.append(f"{where}: X event needs numeric "
                                  f"{field!r}")
                elif value < 0 or value != value or value in (
                        float("inf"), float("-inf")):
                    errors.append(f"{where}: {field!r} must be finite "
                                  f"and >= 0, got {value}")
            for field in ("pid", "tid"):
                if not isinstance(event.get(field), int):
                    errors.append(f"{where}: X event needs integer "
                                  f"{field!r}")
        elif phase == "M":
            name = event.get("name")
            if name not in _METADATA_NAMES:
                errors.append(f"{where}: unknown metadata event "
                              f"{name!r}")
            if not isinstance(event.get("args"), dict):
                errors.append(f"{where}: metadata event needs an "
                              f"'args' object")
    return errors


def validate_file(path: str) -> List[str]:
    """Load and validate a trace file (strict JSON: NaN/Infinity reject)."""
    def _reject_constant(text: str) -> float:
        raise ValueError(f"non-finite JSON constant {text!r} in trace")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle, parse_constant=_reject_constant)
    except (OSError, ValueError) as error:
        return [f"cannot load {path}: {error}"]
    return validate_chrome_trace(document)
