"""The five figure scans of scripts/run_figure_scans.py against their
committed outputs in tests/golden/.

Each scan is regenerated through cli.main into a temporary directory.
The "# columns:" line, the flag column and every text cell must match
exactly; numeric cells must match to a relative 1e-12 (nan matches
nan).  After a deliberate change of a scan's output, regenerate the
files with

    python3 scripts/run_figure_scans.py --out-dir tests/golden
"""
import csv
import importlib.util
import math
from pathlib import Path

import pytest

from holonoise import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-12
REGENERATE = "python3 scripts/run_figure_scans.py --out-dir tests/golden"

_spec = importlib.util.spec_from_file_location(
    "run_figure_scans", ROOT / "scripts" / "run_figure_scans.py"
)
run_figure_scans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_figure_scans)


def columns_and_rows(path):
    """The "# columns:" line and the parsed data rows of a CLI CSV."""
    lines = path.read_text().splitlines()
    header = next(line for line in lines if line.startswith("# columns: "))
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    return header, rows


def cells_match(column, want, got):
    if column == "flag":
        return want == got
    try:
        a, b = float(want), float(got)
    except ValueError:
        return want == got
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * abs(a)


def mismatches(name, golden, fresh):
    """Where ``fresh`` departs from ``golden``, as "file row column" lines."""
    want_header, want_rows = columns_and_rows(golden)
    got_header, got_rows = columns_and_rows(fresh)
    if got_header != want_header:
        return [f"{name}: columns {got_header!r}, golden {want_header!r}"]
    if len(got_rows) != len(want_rows):
        return [f"{name}: {len(got_rows)} data rows, golden {len(want_rows)}"]
    columns = want_header.removeprefix("# columns: ").split(",")
    found = []
    for index, (want, got) in enumerate(zip(want_rows, got_rows), start=1):
        for column, a, b in zip(columns, want, got, strict=True):
            if not cells_match(column, a, b):
                found.append(f"{name}: data row {index}, column {column}: {b!r}, golden {a!r}")
    return found


@pytest.mark.parametrize("name", sorted(run_figure_scans.SCANS))
def test_scan_matches_golden(tmp_path, name):
    fresh = tmp_path / name
    assert cli.main(run_figure_scans.SCANS[name] + ["--out", str(fresh)]) == 0
    found = mismatches(name, GOLDEN / name, fresh)
    assert not found, "\n".join(found[:20] + [f"regenerate deliberately with: {REGENERATE}"])
