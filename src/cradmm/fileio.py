"""On-disk formats, specified to the byte.

Matrix file:   magic ``CLNSMAT1`` | u64 rows | u64 cols | rows*cols values
Vector file:   magic ``CLNSVEC1`` | u64 length | length values
Values are row-major, each an interleaved (real, imaginary) pair of IEEE-754
binary64 floats; all integers and floats are little-endian. Round-trips are
bit-exact, including non-finite payload values.

Text files end their lines in ``\n``. Every CSV float is printed with 17
significant digits (``FLOAT_SPEC``), enough to reproduce any binary64
exactly; inf and nan print as ``inf`` and ``nan``.

Trace CSV:     header ``TRACE_HEADER``, then one row per iteration.
Summary CSV:   header ``SUMMARY_COLUMNS``, then one row per record cut to those
columns; None or an absent key is an empty field, and a field is quoted only
when it holds a comma, a quote or a ``\n`` (``csv``'s minimal quoting, quotes
doubled).
JSON record:   one object as UTF-8 text, two-space indent, keys sorted, a final
newline; inf and nan are written ``Infinity`` and ``NaN``. The manifest and
every ``metrics_<tag>.json`` are JSON records.

View PGM:      binary Netpbm P5, maxval 65535 (two bytes per pixel, most
significant byte first as the format requires), linearly scaled so the peak
maps to 65535 with ties rounded half-up; all-zero views stay all-zero.
"""

import csv
import json
import math
import os
import struct

import numpy as np

from .admm import ConvergenceTrace, IterationRecord
from .errors import FileFormatError

MATRIX_MAGIC = b"CLNSMAT1"
VECTOR_MAGIC = b"CLNSVEC1"
TRACE_HEADER = "iter,objective,primal_residual,dual_residual,elapsed_seconds"
SUMMARY_COLUMNS = ("method", "lambda", "rho", "N", "iterations", "final_objective",
                   "nmse", "precision", "recall", "wall_seconds", "status")
FLOAT_SPEC = ".17g"  # the format spec of every CSV float

_MATRIX_HEADER = struct.Struct("<8sQQ")
_VECTOR_HEADER = struct.Struct("<8sQ")
_BYTES_PER_VALUE = 16
_MAX_PAYLOAD_BYTES = 2**64 - 1


def write_matrix(path, data):
    """Write a 2-D complex array; round-trips through read_matrix bit-exactly."""
    a = np.asarray(data)
    if a.ndim != 2:
        raise ValueError(f"matrix payload must be 2-D, got shape {a.shape}")
    write_matrix_blocks(path, a.shape, (a,))


def write_matrix_blocks(path, shape, blocks):
    """Write a ``shape`` (rows, cols) complex matrix from its row blocks, taken in order.

    Each block is a 2-D array of ``cols`` columns, written as it arrives, so
    no more than one block need exist at a time. The file holds the same
    bytes as ``write_matrix`` of the stacked blocks. ValueError when a block
    has another width or the blocks do not sum to ``rows`` rows; the file is
    then incomplete.
    """
    rows, cols = shape
    written = 0
    with open(path, "wb") as fh:
        fh.write(_MATRIX_HEADER.pack(MATRIX_MAGIC, rows, cols))
        for block in blocks:
            b = np.ascontiguousarray(block, dtype="<c16")  # no copy of a contiguous complex128 array
            if b.ndim != 2 or b.shape[1] != cols:
                raise ValueError(f"row block of shape {b.shape} in a matrix of {cols} columns")
            fh.write(b)  # straight from the array's buffer
            written += b.shape[0]
    if written != rows:
        raise ValueError(f"row blocks hold {written} rows, the header {rows}")


def read_matrix(path):
    with open(path, "rb") as fh:
        rows, cols = _read_header(fh, MATRIX_MAGIC, _MATRIX_HEADER)
        return _read_payload(fh, _MATRIX_HEADER.size, rows * cols).reshape(rows, cols)


def write_vector(path, data):
    """Write a 1-D complex array; round-trips through read_vector bit-exactly."""
    a = np.asarray(data)
    if a.ndim != 1:
        raise ValueError(f"vector payload must be 1-D, got shape {a.shape}")
    a = np.ascontiguousarray(a, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_VECTOR_HEADER.pack(VECTOR_MAGIC, a.shape[0]))
        fh.write(a)


def read_vector(path):
    with open(path, "rb") as fh:
        (length,) = _read_header(fh, VECTOR_MAGIC, _VECTOR_HEADER)
        return _read_payload(fh, _VECTOR_HEADER.size, length)


def _read_header(fh, magic, header):
    raw = fh.read(header.size)
    if len(raw) < len(magic):
        raise FileFormatError(f"truncated header at offset {len(raw)}: need {header.size} bytes")
    if raw[: len(magic)] != magic:
        raise FileFormatError(
            f"bad magic at offset 0: expected {magic!r}, found {bytes(raw[:len(magic)])!r}"
        )
    if len(raw) < header.size:
        raise FileFormatError(f"truncated header at offset {len(raw)}: need {header.size} bytes")
    return header.unpack(raw)[1:]


def _read_payload(fh, offset, n_values):
    """The payload after the header, read straight into a new complex128 array.

    The file size is checked against the header before anything is read.
    """
    if n_values * _BYTES_PER_VALUE > _MAX_PAYLOAD_BYTES:
        raise FileFormatError(f"dimension overflow at offset 8: {n_values} values")
    size = os.fstat(fh.fileno()).st_size
    expected = offset + n_values * _BYTES_PER_VALUE
    if size < expected:
        raise FileFormatError(f"truncated payload at offset {size}: expected {expected} bytes")
    if size > expected:
        raise FileFormatError(f"trailing data at offset {expected}: file has {size} bytes")
    data = np.empty(n_values, dtype="<c16")
    got = fh.readinto(data)
    if got != data.nbytes:  # the file shrank after the size check
        raise FileFormatError(f"truncated payload at offset {offset + got}: expected {expected} bytes")
    return data.astype(np.complex128, copy=False)  # a no-op on little-endian hosts


def write_trace_csv(trace, path):
    """One CSV row per iteration, floats printed with ``FLOAT_SPEC``."""
    with TraceCsvWriter(path) as writer:
        for record in trace:
            writer.write_row(record)


class TraceCsvWriter:
    """Streams trace rows to disk as iterations complete; single owner per file."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._fh.write(TRACE_HEADER + "\n")

    def write_row(self, r):
        self._fh.write(
            f"{r.k},{r.objective:{FLOAT_SPEC}},{r.primal_residual:{FLOAT_SPEC}},"
            f"{r.dual_residual:{FLOAT_SPEC}},{r.elapsed_seconds:{FLOAT_SPEC}}\n"
        )

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def read_trace_csv(path):
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise FileFormatError("bad trace header at offset 0")
    records = []
    for line in lines[1:]:
        fields = line.split(",")
        try:
            if len(fields) != 5:
                raise ValueError
            records.append(IterationRecord(int(fields[0]), *map(float, fields[1:])))
        except ValueError:
            raise FileFormatError(f"malformed trace row: {line!r}") from None
    return ConvergenceTrace(records)


def write_summary_csv(records, path):
    """The header ``SUMMARY_COLUMNS``, then each record (a dict) cut to those columns, one row each."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, SUMMARY_COLUMNS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for record in records:  # an absent key and a None are both an empty field
            writer.writerow({k: f"{v:{FLOAT_SPEC}}" if isinstance(v, float) else v for k, v in record.items()})


def write_json(record, path):
    """Write ``record`` as UTF-8 JSON text: two-space indent, sorted keys, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def write_view_pgm(view, path):
    """Write one projection as a 16-bit binary PGM, peak scaled to 65535."""
    arr = np.asarray(view, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"view must be a nonempty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or float(arr.min()) < 0.0:
        raise ValueError("view values must be finite and >= 0")
    peak = float(arr.max())
    if peak > 0.0:
        if 65535.0 / peak == math.inf:  # a tiny peak: scale by a power of two first, which is exact
            arr = np.ldexp(arr, -math.frexp(peak)[1])
            peak = float(arr.max())
        pixels = np.floor(arr * (65535.0 / peak) + 0.5).astype(np.uint16)  # round half-up
    else:
        pixels = np.zeros(arr.shape, dtype=np.uint16)
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        fh.write(pixels.astype(">u2").tobytes())
