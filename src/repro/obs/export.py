"""Exporters: Prometheus text exposition, Chrome ``trace_event`` JSON, JSONL.

Both exporters are deterministic functions of their input snapshot /
record list: metric names, label keys, and series keys are emitted in
sorted order, and span records keep their completion order, so golden
tests can compare bytes.
"""

from __future__ import annotations

import json

from repro.errors import ObsError
from repro.obs.tracing import SPAN_FIELDS

CHROME_TRACE_SCHEMA = {
    "required_top": ("traceEvents",),
    "required_event": ("name", "ph", "pid", "tid", "ts"),
    "phases": ("X", "M"),
}


def _fmt_value(value) -> str:
    """Prometheus sample value: integers stay integral, floats use repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == float(int(value)) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_labels(key: str, extra: dict | None = None) -> str:
    """Render a canonical series key (plus extras) as a Prometheus label set."""
    pairs = []
    if key:
        for part in key.split(","):
            name, _, value = part.partition("=")
            pairs.append((name, value))
    if extra:
        pairs.extend(extra.items())
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{str(value)}"' for name, value in sorted(pairs)
    )
    return "{" + body + "}"


def render_prometheus(snapshot: dict) -> str:
    """Render a metrics snapshot in Prometheus text exposition format."""
    if "metrics" not in snapshot:
        raise ObsError("malformed metrics snapshot: missing 'metrics' key")
    lines: list[str] = []
    for name in sorted(snapshot["metrics"]):
        entry = snapshot["metrics"][name]
        kind = entry["kind"]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        series = entry.get("series", {})
        if kind in ("counter", "gauge"):
            for key in sorted(series):
                lines.append(f"{name}{_fmt_labels(key)} {_fmt_value(series[key])}")
        elif kind == "histogram":
            bounds = entry["boundaries"]
            for key in sorted(series):
                s = series[key]
                cumulative = 0
                for i, bound in enumerate(bounds):
                    cumulative += s["buckets"][i]
                    le = _fmt_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_fmt_labels(key, {'le': le})} {cumulative}"
                    )
                cumulative += s["buckets"][len(bounds)]
                lines.append(
                    f"{name}_bucket{_fmt_labels(key, {'le': '+Inf'})} {cumulative}"
                )
                lines.append(f"{name}_sum{_fmt_labels(key)} {_fmt_value(s['sum'])}")
                lines.append(f"{name}_count{_fmt_labels(key)} {s['count']}")
        else:
            raise ObsError(f"metric {name}: unknown kind {kind!r}")
    return "\n".join(lines) + "\n" if lines else ""


def chrome_trace(records: list[dict]) -> dict:
    """Convert span records to a Chrome ``trace_event`` JSON object.

    Spans become complete events (``ph: "X"``, microsecond ``ts``/``dur``)
    and each distinct pid contributes ``process_name``/``thread_name``
    metadata events so Perfetto labels the tracks.
    """
    events = []
    seen_pids: dict[int, str] = {}
    seen_tids: dict[tuple, str] = {}
    for rec in records:
        args = dict(rec.get("args") or {})
        pid, tid = rec["pid"], rec["tid"]
        seen_pids.setdefault(pid, f"repro pid {pid}")
        seen_tids.setdefault((pid, tid), f"thread {tid}")
        args["span_id"] = rec["id"]
        if rec.get("parent") is not None:
            args["parent_span_id"] = rec["parent"]
        if rec.get("cpu_us") is not None:
            args["cpu_us"] = rec["cpu_us"]
        events.append(
            {
                "name": rec["name"],
                "cat": rec.get("cat", "repro"),
                "ph": "X",
                "ts": rec["ts_us"],
                "dur": rec["dur_us"],
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    meta = []
    for pid, label in seen_pids.items():
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": label},
            }
        )
    for (pid, tid), label in seen_tids.items():
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": label},
            }
        )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj: dict) -> None:
    """Raise :class:`ObsError` unless *obj* is a well-formed Chrome trace."""
    if not isinstance(obj, dict):
        raise ObsError("chrome trace must be a JSON object")
    for field in CHROME_TRACE_SCHEMA["required_top"]:
        if field not in obj:
            raise ObsError(f"chrome trace missing top-level {field!r}")
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise ObsError("traceEvents must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ObsError(f"traceEvents[{i}] is not an object")
        for field in CHROME_TRACE_SCHEMA["required_event"]:
            if field not in ev:
                raise ObsError(f"traceEvents[{i}] missing field {field!r}")
        if ev["ph"] not in CHROME_TRACE_SCHEMA["phases"]:
            raise ObsError(f"traceEvents[{i}] has unsupported phase {ev['ph']!r}")
        if ev["ph"] == "X" and "dur" not in ev:
            raise ObsError(f"traceEvents[{i}] complete event missing 'dur'")


def write_trace(path: str, records: list[dict]) -> None:
    """Write span records: ``.jsonl`` as a span log, else Chrome JSON."""
    if str(path).endswith(".jsonl"):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(records), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_trace(path: str) -> list[dict]:
    """Load span records from either trace format back into record dicts."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ObsError(f"cannot read trace file {path}: {exc}") from exc
    text = text.strip()
    if not text:
        return []
    # A Chrome trace is one JSON document; a span log is one object per
    # line.  Try the whole document first, fall back to line-by-line.
    obj = None
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = None
    if obj is not None:
        if not isinstance(obj, dict):
            raise ObsError(f"trace file {path} is not a chrome trace object")
        validate_chrome_trace(obj)
        records = []
        for ev in obj["traceEvents"]:
            if ev.get("ph") != "X":
                continue
            args = dict(ev.get("args") or {})
            rec = {
                "name": ev["name"],
                "cat": ev.get("cat", "repro"),
                "ts_us": ev["ts"],
                "dur_us": ev.get("dur", 0),
                "cpu_us": args.pop("cpu_us", None),
                "pid": ev["pid"],
                "tid": ev["tid"],
                "id": args.pop("span_id", None),
                "parent": args.pop("parent_span_id", None),
            }
            rec["args"] = args
            records.append(rec)
        return records
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(
                f"trace file {path}:{lineno} is not valid JSONL: {exc}"
            ) from exc
        if "name" not in rec or "ts_us" not in rec:
            raise ObsError(f"trace file {path}:{lineno} missing span fields")
        records.append({field: rec.get(field) for field in SPAN_FIELDS})
    return records


def write_metrics(path: str, snapshot: dict) -> None:
    """Write a metrics snapshot: ``.prom``/``.txt`` as text format, else JSON."""
    if str(path).endswith((".prom", ".txt")):
        payload = render_prometheus(snapshot)
    else:
        payload = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
