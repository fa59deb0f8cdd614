"""File formats: CSV/NDJSON ingestion and CSV/JSON emission.

Input files are UTF-8 and may open with a byte-order mark. The data lines
of a CSV file are parsed in one ``np.loadtxt`` call; that result is taken
only where it must equal the row loop's (``_read_rows``), which reads
NDJSON, and reads any CSV the bulk parse did not take. The row loop is the
only code that rejects a file, naming the bad row and column.

Floats are written with 17 significant digits (enough to round-trip
float64). All writers go through an atomic write-temp-then-rename so a
crashed run never leaves a truncated file behind.
"""

import json
import os
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import ParseError, RaggedRows
from .projections import Empirical


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


def _is_header(line):
    """Whether a CSV line is a header: no cell is a number. A CSV file may
    open with one header row."""
    return not any(map(_is_number, line.split(",")))


def _read_text(path):
    # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write
    return path.read_text(encoding="utf-8-sig")


def _data_lines(text, fmt):
    """(line number, text) of each data line: nonblank, CSV header dropped."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if fmt == "csv" and lines and _is_header(lines[0][1]):
        del lines[0]
    return lines


def _read_rows(path, text, fmt):
    """One list of floats per data line of the text of a CSV or NDJSON file.

    Every row must have the width of the first. A cell may still be
    infinite or NaN; ``_finite_array`` rejects those. ``path`` only names
    the file in errors.
    """
    lines = _data_lines(text, fmt)
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
            if not cells:
                raise ParseError(f"{path}:{lineno}: empty array: a row needs at least one number",
                                 row=lineno)
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


def _finite_array(path, text, fmt, rows):
    """The rows as one float array; an infinite or NaN cell is a ParseError.

    One vectorised check on the array; the text is split into lines again
    for the bad cell's line number only when it fails.
    """
    arr = np.array(rows)
    if not np.isfinite(arr).all():
        r, c = np.argwhere(~np.isfinite(arr))[0]
        lineno = _data_lines(text, fmt)[r][0]
        raise ParseError(f"{path}:{lineno}: column {c + 1}: not finite: "
                         f"{float(arr[r, c])}", row=lineno, column=int(c) + 1)
    return arr


# Characters on which loadtxt and the row loop part: line breaks of
# str.splitlines that loadtxt strips from a cell as whitespace, and \x1f, which
# loadtxt strips and float() does not. A lone \r, a break to str.splitlines, is
# checked apart, by counting only in a text that holds a \r: both take \r\n as
# one break.
_LOADTXT_DIFFERS = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _csv_body(text):
    """The text from its first data line on: leading whitespace, blank lines
    and a header row dropped."""
    body = text.lstrip()
    end = body.find("\n") + 1 or len(body)
    return body[end:] if _is_header(body[:end]) else body


def _bulk_csv(text):
    """The data rows of a CSV text as one float array, parsed in one loadtxt
    call, or None where only the row loop may answer.

    None when the text holds a character on which the two part, holds no
    data line (loadtxt would warn), or loadtxt raises or reads a cell that is
    not finite. An array, when returned, is bit-equal to the row loop's: both
    parse a cell with CPython's string-to-double, and on the text left they
    split the same lines and strip the same whitespace.
    """
    if any(c in text for c in _LOADTXT_DIFFERS) or (
            "\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    body = _csv_body(text)
    if not body or body.isspace():
        return None
    try:
        arr = np.loadtxt(StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return arr if np.isfinite(arr).all() else None


def read_array(path, weighted=False):
    """The data rows of a file as one finite float array: CSV with an
    optional single header row, or NDJSON.

    The suffix .ndjson or .jsonl (any case) means NDJSON; any other means
    CSV. With ``weighted`` each row ends in a weight, so a file narrower
    than two columns is a ParseError, reported before a non-finite cell.
    """
    path = Path(path)
    fmt = "ndjson" if path.suffix.lower() in (".ndjson", ".jsonl") else "csv"
    # The bulk parse reads the whole text before parsing it; the row loop is the
    # fallback and the error path. The CLI is sensitive to how ingestion leaves
    # glibc's heap: on the benchmark's 131k-row CLI inputs (2-vCPU Linux host) a
    # cwkit verdict process took ~14.6k minor faults with this text-first parse,
    # ~19.3k with the row loop alone and ~72.6k with loadtxt reading the path
    # itself. On the row loop, build the array while rows is alive: freeing the
    # row lists first cost the CLI's W1 kernel ~45x the page faults.
    text = _read_text(path)
    arr = _bulk_csv(text) if fmt == "csv" else None
    if arr is None or (weighted and arr.shape[1] < 2):
        rows = _read_rows(path, text, fmt)
        if weighted and len(rows[0]) < 2:
            raise ParseError(f"{path}: need at least one coordinate column plus a weight column")
        arr = _finite_array(path, text, fmt, rows)
    return arr


def ingest_samples(path):
    """Read an unweighted Empirical (a sample) from a ``read_array`` file; the
    file stem becomes the label."""
    return Empirical(points=read_array(path), label=Path(path).stem)


def load_atomic_csv(path):
    """Read a weighted Empirical from a ``read_array`` file whose rows are d
    coordinates plus a weight."""
    arr = read_array(path, weighted=True)
    return Empirical(points=arr[:, :-1], weights=arr[:, -1])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def directions_csv(directions):
    return "".join(u.describe() + "\n" for u in directions)


# Rows per format call in _csv_rows. On a 1e5-row sample, one call over all
# rows raised the writer's peak RSS by ~0.4 MiB over a per-row writer; blocks
# of this size lowered it by ~5 MiB, at the same speed.
_WRITE_BLOCK = 4096


def _csv_rows(arr):
    """One CSV line per row of a 2-D float array, each cell as ``%.17g``: the
    shortest text of an integer-valued cell, and enough digits to read any
    other float back exactly.

    One format string over a block of rows: no per-row Python objects.
    """
    fmt = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    blocks = (arr[i:i + _WRITE_BLOCK] for i in range(0, len(arr), _WRITE_BLOCK))
    return "".join((fmt * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def samples_csv(sample_set):
    return _csv_rows(sample_set.points)


def projected_csv(proj):
    masses = np.broadcast_to(proj.masses(), proj.values.shape)
    return "value,weight\n" + _csv_rows(np.column_stack([proj.values, masses]))


def atomic_csv(measure):
    header = ",".join(f"x{i + 1}" for i in range(measure.dim)) + ",weight\n"
    return header + _csv_rows(np.column_stack([measure.points, measure.weights]))


def traces_csv(traces):
    """One row per (direction, sequence element): direction_id,n,distance."""
    return "direction_id,n,distance\n" + "".join(
        _csv_rows(np.column_stack([np.full(tr.sizes.size, i), tr.sizes, tr.distances]))
        for i, tr in enumerate(traces))


def mixed_moments_csv(exponents, values):
    """Rows of alpha_1..alpha_d followed by the moment value."""
    d = len(exponents[0])
    header = ",".join(f"alpha{i + 1}" for i in range(d)) + ",value\n"
    return header + _csv_rows(np.column_stack([np.asarray(exponents, dtype=np.float64),
                                               np.asarray(values, dtype=np.float64)]))
