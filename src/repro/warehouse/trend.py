"""The cross-run perf trajectory: bench records rendered as one table.

Every ``repro bench --warehouse DB`` invocation (and every imported
``BENCH_*.json``) lands its records under a run row with a label, an
environment fingerprint and a timestamp.  ``trend_table`` pivots those
rows into the table ``repro report --trend`` prints: one row per
``(scenario, case)``, one column per run, each cell the measured
seconds — so "did PR N make the strict path faster" is a column scan,
not archaeology across artifact tarballs.

Runs of different modes (quick vs full) measure different workloads, so
each run column is suffixed with its mode; comparisons are meaningful
within a column's mode.  Table-kind records (the historical prose-bench
twins) carry no timing and are skipped.

Runs that stored :mod:`repro.obs` telemetry (``repro profile
--telemetry DB``, or anything calling ``Warehouse.append_telemetry``)
additionally render a latency-histogram section: one row per
``(metric, labels)``, one column per telemetry-bearing run, each cell
``count:p50/p99`` estimated from the stored bucket counts — the
latency distribution across PRs, next to the wall-clock table.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import StoreError
from repro.warehouse.db import Warehouse


def trend_data(
    wh: Warehouse,
) -> Tuple[List[Dict[str, Any]], Dict[Tuple[str, str], Dict[int, float]]]:
    """``(runs, cells)``: the bench-bearing runs in id order, and
    ``(scenario, case) -> {run_id: seconds}``."""
    runs_by_id = {run["id"]: run for run in wh.runs()}
    seen_runs: List[Dict[str, Any]] = []
    cells: Dict[Tuple[str, str], Dict[int, float]] = {}
    for run_id, scenario, record in wh.bench_rows():
        if record.get("kind") != "timing":
            continue
        run = runs_by_id.get(run_id)
        if run is None:  # pragma: no cover - references are enforced
            continue
        if not any(r["id"] == run_id for r in seen_runs):
            run = dict(run)
            run["mode"] = "quick" if record.get("quick") else "full"
            seen_runs.append(run)
        for case in record.get("cases", []):
            seconds = case.get("seconds")
            if isinstance(seconds, (int, float)):
                cells.setdefault((scenario, case["case"]), {})[
                    run_id
                ] = float(seconds)
    return seen_runs, cells


def _run_header(run: Dict[str, Any]) -> str:
    label = run["label"] or f"run{run['id']}"
    return f"{label}/{run.get('mode', '?')}"


def trend_table(wh: Warehouse) -> Tuple[List[str], List[Tuple]]:
    """``(columns, rows)`` for :func:`repro.analysis.tables.format_table`;
    raises :class:`StoreError` when the warehouse holds no timed bench
    records (nothing to chart is an error, not an empty table)."""
    runs, cells = trend_data(wh)
    if not cells:
        raise StoreError(
            "warehouse holds no timed bench records; record some with "
            "`repro bench --warehouse DB` or import BENCH_*.json files"
        )
    columns = ["scenario", "case"] + [_run_header(run) for run in runs]
    rows: List[Tuple] = []
    for (scenario, case), by_run in sorted(cells.items()):
        row = [scenario, case]
        for run in runs:
            seconds = by_run.get(run["id"])
            row.append(f"{seconds:.4f}" if seconds is not None else "-")
        rows.append(tuple(row))
    return columns, rows


def memory_trend(
    wh: Warehouse,
) -> Tuple[List[Dict[str, Any]], Dict[Tuple[str, str], Dict[int, int]]]:
    """``(runs, cells)`` of the per-case peak-RSS section: the runs whose
    bench cases carry ``peak_rss_kb`` (``repro bench`` records it since
    the obs PR), and ``(scenario, case) -> {run_id: peak_rss_kb}``.
    Empty for warehouses holding only pre-obs records."""
    runs_by_id = {run["id"]: run for run in wh.runs()}
    seen_runs: List[Dict[str, Any]] = []
    cells: Dict[Tuple[str, str], Dict[int, int]] = {}
    for run_id, scenario, record in wh.bench_rows():
        if record.get("kind") != "timing":
            continue
        run = runs_by_id.get(run_id)
        if run is None:  # pragma: no cover - references are enforced
            continue
        for case in record.get("cases", []):
            rss = case.get("peak_rss_kb")
            if not isinstance(rss, int):
                continue
            if not any(r["id"] == run_id for r in seen_runs):
                seen_runs.append(run)
            cells.setdefault((scenario, case["case"]), {})[run_id] = rss
    return seen_runs, cells


def _bucket_quantile(
    buckets: List[float], bucket_counts: List[int], q: float
) -> Optional[float]:
    """The q-quantile's upper bucket edge (the Prometheus estimate:
    exact enough for a trend cell).  None for an empty histogram or a
    quantile landing in the overflow (+Inf) bucket."""
    total = sum(bucket_counts)
    if total == 0:
        return None
    target = q * total
    cumulative = 0
    for edge, count in zip(buckets, bucket_counts):
        cumulative += count
        if cumulative >= target:
            return float(edge)
    return None  # in the +Inf bucket


def telemetry_trend(
    wh: Warehouse,
) -> Tuple[List[Dict[str, Any]], List[Tuple]]:
    """``(runs, rows)`` of the histogram-telemetry section: the
    telemetry-bearing runs in id order, and one row per ``(metric,
    labels)`` with a ``count:p50/p99`` cell per run.  Empty when no run
    stored histogram telemetry."""
    runs_by_id = {run["id"]: run for run in wh.runs()}
    seen_runs: List[Dict[str, Any]] = []
    cells: Dict[Tuple[str, str], Dict[int, str]] = {}
    for row in wh.telemetry_rows(kind="histogram"):
        run = runs_by_id.get(row["run_id"])
        if run is None:  # pragma: no cover - references are enforced
            continue
        if not any(r["id"] == row["run_id"] for r in seen_runs):
            seen_runs.append(run)
        value = row["value"]
        p50 = _bucket_quantile(
            value["buckets"], value["bucket_counts"], 0.50
        )
        p99 = _bucket_quantile(
            value["buckets"], value["bucket_counts"], 0.99
        )
        labels = json.dumps(row["labels"], sort_keys=True) if row[
            "labels"
        ] else ""
        cells.setdefault((row["name"], labels), {})[row["run_id"]] = (
            f"{value['count']}:"
            f"{p50 if p50 is not None else '>max'}/"
            f"{p99 if p99 is not None else '>max'}"
        )
    rows: List[Tuple] = []
    for (name, labels), by_run in sorted(cells.items()):
        row_out = [name, labels]
        for run in seen_runs:
            row_out.append(by_run.get(run["id"], "-"))
        rows.append(tuple(row_out))
    return seen_runs, rows


def render_trend(wh: Warehouse) -> str:
    """The formatted trend table plus a run legend (one line per run:
    header, timestamp, host fingerprint), and — when any run stored obs
    telemetry — the peak-RSS and latency-histogram sections; what the
    CLI prints.  A warehouse holding only telemetry (``repro profile
    --telemetry`` without any bench runs) renders just those sections."""
    from repro.analysis.tables import format_table

    tel_runs, tel_rows = telemetry_trend(wh)
    try:
        runs, _cells = trend_data(wh)
        columns, rows = trend_table(wh)
    except StoreError:
        if not tel_rows:
            raise
        out = "(no timed bench records)"
    else:
        legend = "\n".join(
            f"  {_run_header(run)}: {run['started_at']}  "
            f"(python {run['env'].get('python')}, "
            f"{run['env'].get('machine')}, "
            f"cpu_count={run['env'].get('cpu_count')})"
            for run in runs
        )
        out = format_table(columns, rows) + "\n\nruns:\n" + legend
    mem_runs, mem_cells = memory_trend(wh)
    if mem_cells:
        mem_columns = ["scenario", "case"] + [
            run["label"] or f"run{run['id']}" for run in mem_runs
        ]
        mem_rows: List[Tuple] = []
        for (scenario, case), by_run in sorted(mem_cells.items()):
            mem_row = [scenario, case]
            for run in mem_runs:
                rss = by_run.get(run["id"])
                mem_row.append(str(rss) if rss is not None else "-")
            mem_rows.append(tuple(mem_row))
        out += "\n\nmemory (peak_rss_kb):\n" + format_table(
            mem_columns, mem_rows
        )
    if tel_rows:
        tel_columns = ["metric", "labels"] + [
            run["label"] or f"run{run['id']}" for run in tel_runs
        ]
        out += (
            "\n\ntelemetry (histogram count:p50/p99, upper bucket "
            "edges):\n" + format_table(tel_columns, tel_rows)
        )
    return out
