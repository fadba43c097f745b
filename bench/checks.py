"""Reading a suite's CSV output, the correctness gate, and the tail rule.

Everything here works on the files the ``fpiter`` CLI writes: one summary
CSV per suite and one trace CSV per (algorithm, case) run. The gate checks
each run against the iteration count and terminal reason recorded for the
workload, and against a bound on the final error. A SHA-256 of each
trace's ``E_n`` column is computed so that a change in trace bits shows up
next to the timings.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# wall-clock fields; every other byte the CLI writes is deterministic
CLOCK_FIELDS = ("elapsed_s", "time_s")


@dataclass(frozen=True)
class RunOutput:
    """One (algorithm, case) run as the CLI reported it."""

    algorithm: str
    case: str
    iterations: int
    reason: str
    time_s: float
    trace_rows: int
    final_error: float
    digest: str


@dataclass(frozen=True)
class SuiteOutput:
    runs: Tuple[RunOutput, ...]
    rows_written: int  # CSV data rows, summary and traces together
    bytes_written: int  # CSV bytes minus the wall-clock fields


@dataclass(frozen=True)
class Expectation:
    """What every run of a workload must report.

    ``runs`` maps (algorithm, case) to (iterations, terminal reason), as
    recorded when the benchmark was defined; ``max_final_error`` maps each
    algorithm to the bound on the last ``E_n`` of its runs.
    """

    runs: Dict[Tuple[str, str], Tuple[int, str]]
    max_final_error: Dict[str, float]


def _read_rows(path: Path) -> Tuple[List[dict], int]:
    """CSV rows as dicts (``#`` lines skipped) and the bytes outside clock fields."""
    text = path.read_text()
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    clock_bytes = sum(len(row[f]) for row in rows for f in CLOCK_FIELDS if f in row)
    return rows, len(text.encode()) - clock_bytes


def read_suite(out_dir: Path, experiment: str) -> SuiteOutput:
    """Parse the summary CSV of one suite and the trace CSV of each run in it."""
    summary, total_bytes = _read_rows(out_dir / f"{experiment}_summary.csv")
    total_rows = len(summary)
    runs = []
    for row in summary:
        trace, trace_bytes = _read_rows(
            out_dir / f"{experiment}_{row['algorithm']}_{row['case']}.csv"
        )
        total_rows += len(trace)
        total_bytes += trace_bytes
        errors = "\n".join(r["E_n"] for r in trace)
        runs.append(
            RunOutput(
                algorithm=row["algorithm"],
                case=row["case"],
                iterations=int(row["iterations"]),
                reason=row["terminal_reason"],
                time_s=float(row["time_s"]),
                trace_rows=len(trace),
                final_error=float(trace[-1]["E_n"]) if trace else float("nan"),
                digest=hashlib.sha256(errors.encode()).hexdigest(),
            )
        )
    return SuiteOutput(tuple(runs), total_rows, total_bytes)


def suite_digest(suite: SuiteOutput) -> str:
    """One SHA-256 over the per-run ``E_n`` digests, in summary order."""
    lines = "".join(f"{r.algorithm},{r.case},{r.digest}\n" for r in suite.runs)
    return hashlib.sha256(lines.encode()).hexdigest()


def gate(
    suite: SuiteOutput,
    expect: Expectation,
    reference: Optional[Dict[Tuple[str, str], str]] = None,
) -> Dict[Tuple[str, str], str]:
    """Failed runs of one suite, each with the reason it failed.

    A run fails when its iteration count or terminal reason differs from
    the recorded one, when its trace does not hold ``iterations + 1``
    rows, when its final error is above its algorithm's bound, or when its
    ``E_n`` digest differs from ``reference`` (the same run in an earlier
    suite of the same seed). An expected run the suite did not report
    fails as missing.
    """
    failures = {}
    seen = set()
    for run in suite.runs:
        key = (run.algorithm, run.case)
        seen.add(key)
        want = expect.runs.get(key)
        if want is None:
            failures[key] = "not an expected run"
        elif (run.iterations, run.reason) != want:
            failures[key] = (
                f"got {run.iterations} iterations, {run.reason}; recorded {want[0]}, {want[1]}"
            )
        elif run.trace_rows != run.iterations + 1:
            failures[key] = f"trace has {run.trace_rows} rows for {run.iterations} iterations"
        elif not run.final_error <= expect.max_final_error[run.algorithm]:
            failures[key] = (
                f"final error {run.final_error!r} above {expect.max_final_error[run.algorithm]}"
            )
        elif reference is not None and reference.get(key) != run.digest:
            failures[key] = "E_n digest differs from an earlier suite with the same seed"
    for key in expect.runs.keys() - seen:
        failures[key] = "missing from the summary"
    return failures


def tail(values, beyond: int = 10) -> Tuple[float, float, int]:
    """Highest percentile of ``values`` with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample count)``: the value has exactly
    ``beyond`` samples after it in sorted order, so it sits at percentile
    ``100 (n - beyond) / n``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n
