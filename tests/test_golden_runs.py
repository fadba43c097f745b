"""The golden-run table: counts, terminal reasons and ``E_n`` checkpoints.

``tests/data/golden_runs.csv`` holds one row per run of a fixed matrix: all
seven engines on sfp at 1,024 nodes in both projection modes (its four
cases), on cfp at seed 0 from the CLI's first start, and on weber from the
CLI's first five starts at seed 0; 98 runs. Each row holds the iteration
count, the terminal reason and ``E_n`` at the checkpoints below and at the
last ``n``. An empty cell is not pinned: a checkpoint past the run's end,
and what cq's path does not keep (its counts and ``E_n`` on sfp and weber,
its ``E_n`` on cfp; it amplifies a last-bit change by orders of magnitude
there, see ROADMAP's standing rules).

The test reruns each row and compares counts and reasons exactly and
``E_n`` within 1e-9 relative. A run that stops on its tolerance must keep
``E_n`` on both sides of the stopping step more than 1e-6 relative away
from it, so a count that could flip on a last-bit change is named as such.

A change that moves a pinned value regenerates the table and names every
move in CHANGES.md; the table's diff shows them. Regenerate with

    PYTHONPATH=src python tests/test_golden_runs.py
"""

import csv
import math
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from fpiter import (
    ALGORITHMS,
    PROJECTION_MODES,
    TerminalReason,
    build_cfp,
    build_sfp,
    build_weber,
    run,
)

TABLE = Path(__file__).resolve().parent / "data" / "golden_runs.csv"
CHECKPOINTS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
KEY = ("experiment", "mode", "algorithm", "case")
E_COLUMNS = tuple(f"E_{n}" for n in CHECKPOINTS) + ("E_last",)
COLUMNS = KEY + ("iterations", "reason") + E_COLUMNS
E_REL_TOL = 1e-9
TOLERANCE_MARGIN = 1e-6


@cache
def _matrix():
    # key -> (spec, x0), in row order; the starts are those of the CLI at
    # seed 0 (fpiter.cli.run_suite draws them from default_rng([seed, 1]))
    specs = [("sfp", mode, build_sfp(mode=mode), 1) for mode in PROJECTION_MODES]
    specs += [("cfp", "", build_cfp(seed=0), 1), ("weber", "", build_weber(), 5)]
    runs = {}
    for experiment, mode, spec, count in specs:
        starts = spec.make_initials(np.random.default_rng([0, 1]), count)
        for algorithm in ALGORITHMS:
            for case, x0 in starts:
                runs[experiment, mode, algorithm, case] = spec, x0
    return runs


def _run(key):
    spec, x0 = _matrix()[key]
    algorithm = key[2]
    config = replace(spec.defaults, schedules=spec.schedules_for(algorithm))
    return config, run(algorithm, spec.operator, config, x0)


def _pins(experiment, algorithm):
    # (count pinned, E_n pinned); see the module docstring for cq's rule
    if algorithm != "cq":
        return True, True
    return experiment == "cfp", False


def _row(key, trace):
    count, values = _pins(key[0], key[2])
    errors = trace.errors
    e_cells = [repr(errors[n]) if n < len(errors) else "" for n in CHECKPOINTS]
    e_cells.append(repr(errors[-1]))
    row = dict(zip(KEY, key))
    row["iterations"] = str(trace.iterations) if count else ""
    row["reason"] = trace.terminal_reason.value
    row.update(zip(E_COLUMNS, e_cells if values else [""] * len(E_COLUMNS)))
    return row


def _read_table():
    with open(TABLE, newline="") as fh:
        return list(csv.DictReader(fh))


# a missing table leaves no rows, which the coverage test below reports
ROWS = _read_table() if TABLE.exists() else []


def test_table_covers_the_matrix_in_order():
    assert [tuple(row[k] for k in KEY) for row in ROWS] == list(_matrix())
    assert len(ROWS) == 98


@pytest.mark.parametrize("golden", ROWS, ids=lambda row: "-".join(filter(None, (row[k] for k in KEY))))
def test_run_matches_its_golden_row(golden):
    key = tuple(golden[k] for k in KEY)
    config, trace = _run(key)
    actual = _row(key, trace)
    assert actual["reason"] == golden["reason"]
    assert actual["iterations"] == golden["iterations"]
    for column in E_COLUMNS:
        if golden[column]:
            got, want = float(actual[column]), float(golden[column])
            assert math.isclose(got, want, rel_tol=E_REL_TOL, abs_tol=0.0), (column, got, want)
    if golden["iterations"] and trace.terminal_reason is TerminalReason.TOLERANCE_MET:
        # the last E_n is below the tolerance and the one before is not
        for err in trace.errors[-2:]:
            margin = abs(err / config.tolerance - 1.0)
            assert margin > TOLERANCE_MARGIN, f"E_n = {err!r} drifts toward the tolerance"


def _write_table():
    TABLE.parent.mkdir(exist_ok=True)
    with open(TABLE, "w", newline="") as fh:
        writer = csv.DictWriter(fh, COLUMNS, lineterminator="\n")
        writer.writeheader()
        for key in _matrix():
            writer.writerow(_row(key, _run(key)[1]))


if __name__ == "__main__":
    _write_table()
    print(f"wrote {TABLE}")
