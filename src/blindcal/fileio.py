"""On-disk formats: CSV matrices, raw binary arrays, netpbm images, traces.

CSV matrices carry the header line ``# blindcal matrix <rows> <cols>`` and
one row per line, row major. The binary format is magic ``BCAL``, u32
version (= 1), u32 ndims, then ndims u64 dimensions, followed by the payload
as little-endian 64-bit floats in C order. Images are binary netpbm: ``P5``
(grayscale) or ``P6`` (colour), then width, height and maxval (= 255) as
positive decimals, each after whitespace and ``#`` comments that run to a
newline, then one whitespace byte and the 8-bit raster, read as floats in [0, 1].

Every CSV file is a header line, then one line of comma-joined cells per
row, written by :func:`write_csv`. Floats in text formats are written with
``repr`` (shortest round-trip form), so identical data produces identical
bytes.
"""

from __future__ import annotations

import json
import math
import re
import struct
from typing import Iterator

import numpy as np

from .errors import FormatError
from .solver import SolverTrace

_MAGIC = b"BCAL"
_VERSION = 1


def _number(path, kind, text, what: str):
    """kind(text), or a FormatError naming the file and the field."""
    try:
        return kind(text)
    except ValueError:
        raise FormatError(f"{path}: bad {what} {text!r}") from None


def _text_lines(path) -> Iterator[str]:
    """The stripped lines of an ASCII text file, read one at a time."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                yield line.strip()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text ({exc.reason} at byte {exc.start})") from None


def _csv_table(path, header: str, what: str) -> tuple[re.Match, Iterator[str]]:
    """The match of a CSV file's header line to the pattern ``header``, and the lines below."""
    lines = _text_lines(path)
    line = next(lines, "")
    match = re.fullmatch(header, line)
    if match is None:
        raise FormatError(f"{path}: bad {what} header {line!r}")
    return match, lines


def _csv_rows(path, lines: Iterator[str], kinds: tuple, what: str) -> Iterator[list]:
    """The non-empty ``lines`` as rows of one cell per kind, each converted by
    its kind; an empty cell becomes None where the kind is ``_optional``."""
    for line in filter(None, lines):
        parts = line.split(",")
        if len(parts) != len(kinds):
            raise FormatError(f"{path}: bad {what} row {line!r}")
        yield [_number(path, kind, v, f"{what} cell") for kind, v in zip(kinds, parts)]


# ---------------------------------------------------------------------------
# CSV vectors and matrices
# ---------------------------------------------------------------------------

def write_csv(path, header: str, rows):
    """Write the header line, then one line per row of cell strings joined by commas."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join([header, *map(",".join, rows)]) + "\n")


def write_matrix_csv(path, a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = a.shape
    write_csv(path, f"# blindcal matrix {rows} {cols}",
              ([repr(float(v)) for v in row] for row in a))


def read_matrix_csv(path) -> np.ndarray:
    match, lines = _csv_table(path, r"# blindcal matrix (\d+) (\d+)", "matrix")
    rows, cols = (_number(path, int, v, "matrix dimension") for v in match.groups())
    data = list(_csv_rows(path, lines, (float,) * cols, "matrix"))
    if len(data) != rows:
        raise FormatError(f"{path}: header says {rows} rows, data has {len(data)}")
    return np.array(data, dtype=float).reshape(rows, cols)


def write_vector_csv(path, v):
    write_matrix_csv(path, np.asarray(v, dtype=float).reshape(1, -1))


def _vector(path, a: np.ndarray) -> np.ndarray:
    """a as a 1-d array; only a 1-d array, a row or a column is a vector."""
    if sum(size > 1 for size in a.shape) > 1:
        raise FormatError(f"{path}: expected a vector, got a {'x'.join(map(str, a.shape))} array")
    return a.ravel()


def read_vector_csv(path) -> np.ndarray:
    return _vector(path, read_matrix_csv(path))


# ---------------------------------------------------------------------------
# Raw binary arrays
# ---------------------------------------------------------------------------

def write_array_binary(path, a):
    a = np.asarray(a, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, a.ndim))
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        fh.write(np.ascontiguousarray(a).tobytes())


def read_array_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    try:
        version, ndims = struct.unpack_from("<II", data, 4)
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        dims = struct.unpack_from(f"<{ndims}Q", data, 12)
    except struct.error:
        raise FormatError(f"{path}: truncated header") from None
    start, expected = 12 + 8 * len(dims), 8 * math.prod(dims)
    if len(data) - start != expected:
        raise FormatError(f"{path}: payload has {len(data) - start} bytes, expected {expected}")
    return np.frombuffer(data, dtype="<f8", offset=start).reshape(dims).copy()


def read_vector_file(path) -> np.ndarray:
    """Vector from .csv or binary, chosen by extension."""
    if str(path).endswith(".csv"):
        return read_vector_csv(path)
    return _vector(path, read_array_binary(path))


# ---------------------------------------------------------------------------
# netpbm images (binary P5 / P6, maxval 255)
# ---------------------------------------------------------------------------

_NETPBM_HEADER = re.compile(rb"P([56])" + rb"(?:\s|#[^\n]*\n)+([1-9]\d*)" * 3 + rb"\s")


def read_image(path) -> np.ndarray:
    """Read a P5/P6 netpbm file into a (channels, height, width) float array."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _NETPBM_HEADER.match(data)
    if header is None:
        raise FormatError(f"{path}: bad netpbm header {data[:32]!r} (need P5 or P6, "
                          "then positive width, height and maxval)")
    channels = 1 if header[1] == b"5" else 3
    width, height, maxval = (_number(path, int, v, "netpbm header field")
                             for v in header.groups()[1:])
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    expected = width * height * channels
    raster = data[header.end():header.end() + expected]
    if len(raster) != expected:
        raise FormatError(f"{path}: raster has {len(raster)} bytes, expected {expected}")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(float) / 255.0
    return pixels.reshape(height, width, channels).transpose(2, 0, 1).copy()


def write_image(path, image):
    """Write a (channels, height, width) array in [0, 1] as binary P5/P6."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise FormatError(f"image must be (1|3, h, w), got shape {image.shape}")
    c, h, w = image.shape
    quantised = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n" if c == 1 else b"P6\n")
        fh.write(f"{w} {h}\n255\n".encode("ascii"))
        fh.write(quantised.transpose(1, 2, 0).tobytes())


# ---------------------------------------------------------------------------
# Solver traces and phase grids
# ---------------------------------------------------------------------------

def _optional(text: str) -> float | None:
    return float(text) if text else None


# The trace file, one row per column: its CSV header, the SolverTrace list
# behind it, and its cell type; an _optional cell is empty for None.
_TRACE_SCHEMA = (("iteration", "iteration", int), ("f", "objective", float),
                 ("mu_xi", "mu_xi", float), ("mu_gamma", "mu_gamma", float),
                 ("delta", "delta", _optional), ("delta_F", "delta_F", _optional),
                 ("elapsed_seconds", "elapsed_seconds", float))
_TRACE_HEADER = ",".join(header for header, _, _ in _TRACE_SCHEMA)


def write_trace_csv(path, trace: SolverTrace):
    columns = [["" if v is None else repr(int(v) if kind is int else float(v))
                for v in getattr(trace, name)] for _, name, kind in _TRACE_SCHEMA]
    write_csv(path, _TRACE_HEADER, zip(*columns))


def read_trace_csv(path) -> SolverTrace:
    trace = SolverTrace()
    kinds = tuple(kind for _, _, kind in _TRACE_SCHEMA)
    _, lines = _csv_table(path, re.escape(_TRACE_HEADER), "trace")
    for row in _csv_rows(path, lines, kinds, "trace"):
        for (_, name, _), value in zip(_TRACE_SCHEMA, row):
            getattr(trace, name).append(value)
    return trace


_GRID_COLUMNS = "p,rho,trials,successes,probability"


def write_grid_csv(path, result):
    spec = result.spec
    trials = spec.trials_per_cell
    write_csv(path, _GRID_COLUMNS, (
        (str(p), repr(rho), str(trials), str(round(prob * trials)), repr(prob))
        for p, row in zip(spec.p_values, result.success_probability.tolist())
        for rho, prob in zip(spec.rho_values, row)))


def read_grid_csv(path) -> list[dict]:
    _, lines = _csv_table(path, re.escape(_GRID_COLUMNS), "grid")
    rows = _csv_rows(path, lines, (int, float, int, int, float), "grid")
    return [dict(zip(_GRID_COLUMNS.split(","), row)) for row in rows]


_TRIAL_COLUMNS = ("cell,p,rho,trial,seed,stop_reason,iterations,error_db,objective,"
                  "underdetermined,operator_passes")


def write_trials_csv(path, result):
    """One row per trial of a phase grid; underdetermined (1 or 0) means
    m*p < n + m - 1, and commas in an error's stop reason become semicolons.
    Wall seconds are left out, so that reruns write identical bytes."""
    write_csv(path, _TRIAL_COLUMNS, (
        (str(t.cell), str(t.p), repr(float(t.rho)), str(t.trial), str(t.seed),
         t.stop_reason.replace(",", ";"), str(t.iterations), repr(float(t.error_db)),
         repr(float(t.objective)), str(int(t.underdetermined)), str(t.operator_passes))
        for t in result.trials))


def write_report_json(path, report: dict):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
