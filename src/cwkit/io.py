"""File formats: CSV/NDJSON ingestion and CSV/JSON emission.

Floats are written with 17 significant digits (enough to round-trip
float64). All writers go through an atomic write-temp-then-rename so a
crashed run never leaves a truncated file behind.
"""

import json
import os
from pathlib import Path

import numpy as np

from .errors import ParseError, RaggedRows
from .projections import Empirical


def _fmt(x):
    return f"{float(x):.17g}"


def atomic_write(path, text):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path, obj):
    atomic_write(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _is_number(cell):
    # a JSON integer too long for a float raises OverflowError, not ValueError
    try:
        float(cell)
    except (ValueError, OverflowError):
        return False
    return True


def _data_lines(path, fmt):
    """(line number, text) of each data line: nonblank, CSV header dropped.

    A CSV file may open with one header row, a row in which no cell is a
    number.
    """
    lines = [(i, ln) for i, ln in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if ln.strip()]
    if fmt == "csv" and lines and not any(map(_is_number, lines[0][1].split(","))):
        del lines[0]
    return lines


def _read_rows(path, fmt):
    """One list of floats per data line of a CSV or NDJSON file.

    Every row must have the width of the first. A cell may still be
    infinite or NaN; ``_finite_array`` rejects those.
    """
    lines = _data_lines(path, fmt)
    rows = []
    for lineno, line in lines:
        if fmt == "csv":
            cells = line.split(",")
        else:
            try:
                cells = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {err.msg}",
                                 row=lineno) from None
            # type, not isinstance: a JSON true is a bool, an int subclass
            if not isinstance(cells, list) or not all(type(x) in (int, float) for x in cells):
                raise ParseError(f"{path}:{lineno}: expected an array of numbers", row=lineno)
        if rows and len(cells) != len(rows[0]):
            raise RaggedRows(f"{path}:{lineno}: expected {len(rows[0])} cells, got {len(cells)}",
                             row=lineno)
        try:
            rows.append([float(c) for c in cells])
        except (ValueError, OverflowError):
            col = next(j for j, c in enumerate(cells, 1) if not _is_number(c))
            raise ParseError(f"{path}:{lineno}: column {col}: not a float: "
                             f"{str(cells[col - 1]).strip()[:40]!r}", row=lineno,
                             column=col) from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def _finite_array(path, fmt, rows):
    """The rows as one float array; an infinite or NaN cell is a ParseError.

    One vectorised check on the array; the file is read again for the bad
    cell's line only when it fails.
    """
    arr = np.array(rows)
    if not np.isfinite(arr).all():
        r, c = np.argwhere(~np.isfinite(arr))[0]
        lineno = _data_lines(path, fmt)[r][0]
        raise ParseError(f"{path}:{lineno}: column {c + 1}: not finite: "
                         f"{float(arr[r, c])}", row=lineno, column=int(c) + 1)
    return arr


def ingest_samples(path):
    """Read an unweighted Empirical (a sample) from CSV, with an optional
    single header row, or from NDJSON.

    The suffix .ndjson or .jsonl (any case) means NDJSON; any other means
    CSV. The file stem becomes the label.
    """
    path = Path(path)
    fmt = "ndjson" if path.suffix.lower() in (".ndjson", ".jsonl") else "csv"
    rows = _read_rows(path, fmt)
    # build the array while rows is alive: freeing the row lists first left glibc's
    # heap so that the CLI's W1 kernel took ~45x the page faults (2-vCPU Linux host)
    return Empirical(points=_finite_array(path, fmt, rows), label=path.stem)


def load_atomic_csv(path):
    """Read a weighted Empirical from CSV rows of d coordinates plus a weight."""
    path = Path(path)
    rows = _read_rows(path, "csv")
    if len(rows[0]) < 2:
        raise ParseError(f"{path}: need at least one coordinate column plus a weight column")
    arr = _finite_array(path, "csv", rows)
    return Empirical(points=arr[:, :-1], weights=arr[:, -1])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def directions_csv(directions):
    return "".join(u.describe() + "\n" for u in directions)


def samples_csv(sample_set):
    return "".join(",".join(_fmt(x) for x in row) + "\n" for row in sample_set.points)


def projected_csv(proj):
    lines = ["value,weight"]
    lines += [f"{_fmt(v)},{_fmt(w)}" for v, w in zip(proj.values, proj.weights)]
    return "\n".join(lines) + "\n"


def atomic_csv(measure):
    d = measure.dim
    lines = [",".join(f"x{i + 1}" for i in range(d)) + ",weight"]
    for p, w in zip(measure.points, measure.weights):
        lines.append(",".join(_fmt(x) for x in p) + f",{_fmt(w)}")
    return "\n".join(lines) + "\n"


def traces_csv(traces):
    """One row per (direction, sequence element): direction_id,n,distance."""
    lines = ["direction_id,n,distance"]
    for i, tr in enumerate(traces):
        for _, size, dist in tr.entries:
            lines.append(f"{i},{size},{_fmt(dist)}")
    return "\n".join(lines) + "\n"


def mixed_moments_csv(exponents, values):
    """Rows of alpha_1..alpha_d followed by the moment value."""
    d = len(exponents[0])
    lines = [",".join(f"alpha{i + 1}" for i in range(d)) + ",value"]
    for alpha, val in zip(exponents, values):
        lines.append(",".join(str(int(a)) for a in alpha) + f",{_fmt(val)}")
    return "\n".join(lines) + "\n"
