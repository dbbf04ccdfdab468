"""Human-readable phase/latency summaries for ``repro obs report``.

Aggregates span records by ``(cat, name)`` and renders an aligned table:
call counts, total/mean/max wall time, total CPU time, self (exclusive)
time, each span family's share of the trace's wall-clock envelope
(``%env``, inclusive) and its share of all recorded self time (``%self``).
Inclusive shares double-count nested spans and add up concurrent threads
and worker processes; self shares add up to 100%.
"""

from __future__ import annotations


def summarize_trace(records: list[dict]) -> dict:
    """Aggregate span records into per-(cat, name) rows plus trace totals.

    A span's self time is its duration minus the durations of its direct
    children (records whose ``parent`` is its ``id``), clamped at 0.
    """
    child_us: dict = {}
    for rec in records:
        parent = rec.get("parent")
        if parent is not None:
            child_us[parent] = child_us.get(parent, 0) + int(rec.get("dur_us") or 0)
    rows: dict[tuple, dict] = {}
    ts_min = None
    ts_max = None
    pids = set()
    for rec in records:
        key = (rec.get("cat") or "repro", rec["name"])
        row = rows.get(key)
        if row is None:
            row = rows[key] = {
                "cat": key[0],
                "name": key[1],
                "count": 0,
                "wall_us": 0,
                "self_us": 0,
                "cpu_us": 0,
                "max_us": 0,
            }
        dur = int(rec.get("dur_us") or 0)
        row["count"] += 1
        row["wall_us"] += dur
        row["self_us"] += max(0, dur - child_us.get(rec.get("id"), 0))
        row["cpu_us"] += int(rec.get("cpu_us") or 0)
        if dur > row["max_us"]:
            row["max_us"] = dur
        ts = rec.get("ts_us")
        if ts is not None:
            end = ts + dur
            ts_min = ts if ts_min is None or ts < ts_min else ts_min
            ts_max = end if ts_max is None or end > ts_max else ts_max
        if rec.get("pid") is not None:
            pids.add(rec["pid"])
    ordered = sorted(
        rows.values(), key=lambda r: (-r["wall_us"], r["cat"], r["name"])
    )
    envelope_us = (ts_max - ts_min) if ts_min is not None else 0
    return {
        "spans": len(records),
        "processes": len(pids),
        "envelope_us": envelope_us,
        "rows": ordered,
    }


def _us(value: int) -> str:
    """Format microseconds for humans: µs below 1 ms, else ms or s."""
    if value >= 10_000_000:
        return f"{value / 1e6:.2f}s"
    if value >= 1_000:
        return f"{value / 1e3:.2f}ms"
    return f"{value}us"


def render_trace_summary(records: list[dict], top: int = 0) -> str:
    """Render :func:`summarize_trace` output as an aligned text table."""
    summary = summarize_trace(records)
    lines = [
        f"spans: {summary['spans']}   processes: {summary['processes']}   "
        f"trace envelope: {_us(summary['envelope_us'])}"
    ]
    rows = summary["rows"]
    if top > 0:
        rows = rows[:top]
    if not rows:
        lines.append("(no spans)")
        return "\n".join(lines) + "\n"
    envelope = summary["envelope_us"] or 1
    busy = sum(row["self_us"] for row in summary["rows"]) or 1
    header = (
        f"{'span':<34} {'count':>6} {'total':>10} {'mean':>10} "
        f"{'max':>10} {'cpu':>10} {'self':>10} {'%env':>6} {'%self':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        label = f"{row['cat']}:{row['name']}"
        if len(label) > 34:
            label = label[:31] + "..."
        mean = row["wall_us"] // row["count"] if row["count"] else 0
        share = 100.0 * row["wall_us"] / envelope
        self_share = 100.0 * row["self_us"] / busy
        lines.append(
            f"{label:<34} {row['count']:>6} {_us(row['wall_us']):>10} "
            f"{_us(mean):>10} {_us(row['max_us']):>10} "
            f"{_us(row['cpu_us']):>10} {_us(row['self_us']):>10} "
            f"{share:>5.1f}% {self_share:>5.1f}%"
        )
    return "\n".join(lines) + "\n"
