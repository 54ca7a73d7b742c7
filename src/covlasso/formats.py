"""On-disk encodings for logit matrices and second-moment matrices.

Both binary formats are little-endian with fixed headers:

Logit file (magic ``NDLM``)::

    bytes 0..3   magic "NDLM"
    bytes 4..7   format version, u32 (currently 1)
    bytes 8..15  sample count N, u64
    bytes 16..23 category count n, u64
    bytes 24..27 flags, u32: bit 0 = labels present, bit 1 = names present
    then         N * n float64 logits, row-major
    then         N u32 labels                      (iff bit 0)
    then         n strings, each a u32 byte length
                 followed by that many UTF-8 bytes (iff bit 1)

Second-moment file (magic ``NDCV``)::

    bytes 0..3   magic "NDCV"
    bytes 4..7   format version, u32 (currently 1)
    bytes 8..15  matrix order n, u64
    bytes 16..23 sample count, u64
    then         n*(n+1)/2 float64 values: the upper triangle including
                 the diagonal, row-major

Parsers are strict: wrong magic, bad version, non-finite values,
out-of-range labels and trailing bytes are all rejected, and every
diagnostic names the byte offset (binary) or line and column (CSV) of
the first problem in file order; repeated names, refused by
``LogitMatrix``, come last.  A CSV is read in one pass, line by line.
Writers and parsers round-trip bit-exactly.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .covariance import CovMatrix, LogitMatrix
from .errors import CovLassoError, InvalidInput
from .linalg import NEG_EIG_BAND

LOGIT_MAGIC = b"NDLM"
COV_MAGIC = b"NDCV"
FORMAT_VERSION = 1
FLAG_LABELS = 1
FLAG_NAMES = 2


class _Reader:
    """Cursor over a byte buffer with offset-carrying errors.

    ``take`` returns memoryview slices, so reading a payload copies
    nothing; callers convert to ``bytes`` only where they compare or
    decode.
    """

    def __init__(self, buf: bytes):
        self.buf = memoryview(buf)
        self.off = 0

    def take(self, count: int, what: str) -> memoryview:
        if self.off + count > len(self.buf):
            raise InvalidInput(
                f"unexpected end of file while reading {what}: need {count} bytes "
                f"at offset {self.off}, file has {len(self.buf)} (byte {self.off})"
            )
        chunk = self.buf[self.off : self.off + count]
        self.off += count
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def finish(self) -> None:
        extra = len(self.buf) - self.off
        if extra:
            raise InvalidInput(
                f"{extra} trailing bytes after the end of the payload (byte {self.off})"
            )


def _check_magic(r: _Reader, magic: bytes, kind: str) -> None:
    got = bytes(r.take(4, "magic"))
    if got != magic:
        raise InvalidInput(
            f"bad magic for a {kind} file: expected {magic!r}, got {got!r} (byte 0)"
        )
    version = r.u32("format version")
    if version != FORMAT_VERSION:
        raise InvalidInput(f"unsupported {kind} format version {version} (byte 4)")


def _raise_nonfinite(values: np.ndarray, off: int, what: str) -> None:
    """Raise at the first non-finite float64 of a payload stored from byte ``off``.

    The constructors scan their payload once; readers call this only after
    a check has failed, so the success path never pays for the search.
    """
    bad = np.flatnonzero(~np.isfinite(values.ravel()))
    if bad.size:
        raise InvalidInput(f"{what} (byte {off + int(bad[0]) * 8})")


def write_logits(matrix: LogitMatrix) -> bytes:
    flags = 0
    if matrix.labels is not None:
        flags |= FLAG_LABELS
    if matrix.names is not None:
        flags |= FLAG_NAMES
    parts = [
        LOGIT_MAGIC,
        struct.pack("<IQQI", FORMAT_VERSION, matrix.samples, matrix.n, flags),
        np.ascontiguousarray(matrix.data, dtype="<f8").tobytes(),
    ]
    if matrix.labels is not None:
        parts.append(matrix.labels.astype("<u4").tobytes())
    if matrix.names is not None:
        for name in matrix.names:
            raw = name.encode("utf-8")
            parts.append(struct.pack("<I", len(raw)) + raw)
    return b"".join(parts)


def read_logits(buf: bytes) -> LogitMatrix:
    r = _Reader(buf)
    _check_magic(r, LOGIT_MAGIC, "logit")
    samples = r.u64("sample count")
    n = r.u64("category count")
    flags = r.u32("flags")
    if samples == 0 or n == 0:
        raise InvalidInput(
            f"sample and category counts must be positive, got {samples} x {n} (byte 8)"
        )
    if flags & ~(FLAG_LABELS | FLAG_NAMES):
        raise InvalidInput(f"unknown flag bits 0x{flags:x} (byte 24)")

    data_off = r.off
    raw = r.take(samples * n * 8, "logit data")
    # A view where the payload is 8-byte aligned, as in the CLI's buffer,
    # which starts the file 4 bytes in; a copy otherwise, as in a plain
    # ``bytes``, where the payload 28 bytes in is not aligned and numpy's
    # matmul on a view of it bypasses BLAS.  On a 5000 x 1000 view with 2
    # OpenBLAS threads, A @ Theta (1000 x 2), A @ v and A^T @ R took 39.9,
    # 32.0 and 52.0 ms against 15.9, 7.8 and 15.9 ms aligned, and a fitted
    # Theta changed bytes.
    data = np.require(
        np.frombuffer(raw, dtype="<f8").reshape(samples, n), requirements="A"
    )
    try:
        labels, names = _read_labels_and_names(r, samples, n, flags)
        r.finish()
        return LogitMatrix(data, labels, names)
    except CovLassoError:
        # LogitMatrix's scan found a non-finite value, or a later field is
        # bad: either way a non-finite logit is the fault to report.
        _raise_nonfinite(data, data_off, "non-finite logit value")
        raise


def _read_labels_and_names(r: _Reader, samples: int, n: int, flags: int):
    labels = None
    if flags & FLAG_LABELS:
        lab_off = r.off
        labels = np.frombuffer(r.take(samples * 4, "labels"), dtype="<u4").astype(
            np.int64
        )
        bad = np.flatnonzero(labels >= n)
        if bad.size:
            raise InvalidInput(
                f"label {labels[bad[0]]} out of range [0, {n}) "
                f"(byte {lab_off + int(bad[0]) * 4})"
            )

    names = None
    if flags & FLAG_NAMES:
        names = []
        for k in range(n):
            length_off = r.off
            length = r.u32(f"name {k} length")
            raw_name = r.take(length, f"name {k}")
            try:
                names.append(bytes(raw_name).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise InvalidInput(
                    f"name {k} is not valid UTF-8: {exc} (byte {length_off + 4})"
                ) from exc
    return labels, names


def write_cov(cov: CovMatrix) -> bytes:
    tri = np.ascontiguousarray(cov.data[np.triu_indices(cov.n)], dtype="<f8")
    header = struct.pack("<IQQ", FORMAT_VERSION, cov.n, cov.sample_count)
    return COV_MAGIC + header + tri.tobytes()


def read_cov(buf: bytes) -> CovMatrix:
    """Parse an NDCV file; S is accepted iff S + delta I has a Cholesky factor.

    delta = NEG_EIG_BAND * max|S|, max|S| floored at the smallest normal
    float so that S = 0 passes.  A computed factor is exact for a
    perturbation of at most (n+1) u max|S| per entry, so success shows
    lambda_min(S) >= -delta - n(n+1) u max|S|; the factorization cannot
    fail when lambda_min(S + delta I) exceeds O(n u max|S|), so failure
    shows lambda_min(S) < -delta + O(n u max|S|) (Higham, Accuracy and
    Stability of Numerical Algorithms, Thms 10.3 and 10.7).  That is the
    eigenvalue band rule up to a roundoff sliver, with no eigenvalue
    computed; the shift lets rank-deficient S (N < n) pass.
    """
    r = _Reader(buf)
    _check_magic(r, COV_MAGIC, "second-moment")
    n = r.u64("matrix order")
    count = r.u64("sample count")
    if n == 0:
        raise InvalidInput("matrix order must be positive (byte 8)")
    if count == 0:
        raise InvalidInput("sample count must be positive (byte 16)")
    tri_off = r.off
    entries = n * (n + 1) // 2
    tri = np.frombuffer(r.take(entries * 8, "triangle data"), dtype="<f8")

    # Row i of the stored triangle fills row i and column i of the
    # matrix from the diagonal on.
    mat = np.empty((n, n))
    start = 0
    for i in range(n):
        row = tri[start : start + n - i]
        mat[i, i:] = row
        mat[i:, i] = row
        start += n - i
    try:
        r.finish()
        cov = CovMatrix(mat, count)
    except CovLassoError:
        # CovMatrix's scan is the payload's only one on success.
        _raise_nonfinite(tri, tri_off, "non-finite matrix value")
        raise
    # CovMatrix copied mat, so the shift can go in place.
    delta = NEG_EIG_BAND * max(float(tri.max()), -float(tri.min()), np.finfo(float).tiny)
    mat.flat[:: n + 1] += delta
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise InvalidInput(
            f"matrix is not positive semidefinite: S + d I has no Cholesky "
            f"factor at d = {NEG_EIG_BAND:g} max|S| = {delta:.6e} (byte {tri_off})"
        ) from None
    return cov


def _ascii_number(cell: str, kind: type):
    """``kind(cell)``, refusing the underscores and non-ASCII digits int and float take."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return kind(cell)


def _cells(line: str, lineno: int) -> list[str]:
    if line.strip() == "":
        raise InvalidInput(f"blank line (line {lineno})")
    return [cell.strip() for cell in line.split(",")]


def read_logits_csv(text: str, labels_col: int | None = None) -> LogitMatrix:
    """Parse comma-separated logit rows, one sample per line.

    An optional header row names the categories (detected when any
    field of the first line fails to parse as a float); it must have as
    many fields as the data rows.  When ``labels_col`` is given, that
    column (negative values count from the end) holds integer labels and
    the remaining columns are logits.  Diagnostics cite 1-based line and
    column numbers.  ``LogitMatrix`` refuses repeated names after the rows.
    """
    lines = text.splitlines()
    if not lines:
        raise InvalidInput("empty input (line 1)")
    cells = _cells(lines[0], 1)
    header: list[str] | None = None
    first = 1  # line number of the first data row
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        if len(lines) == 1:
            raise InvalidInput("no data rows after the header (line 2)") from None
        header, first, cells = cells, 2, _cells(lines[1], 2)

    width = len(cells)
    if header is not None and len(header) != width:
        raise InvalidInput(
            f"header has {len(header)} fields, data rows have {width} (line 1)"
        )
    col_index: int | None = None
    if labels_col is not None:
        col_index = labels_col if labels_col >= 0 else width + labels_col
        if not 0 <= col_index < width:
            raise InvalidInput(
                f"labels column {labels_col} out of range for {width} columns "
                f"(line {first})"
            )
        if width < 2:
            raise InvalidInput(
                f"need at least one logit column besides the labels (line {first})"
            )

    n = width if col_index is None else width - 1
    data = np.empty((len(lines) - first + 1, n))
    labels = None if col_index is None else np.empty(len(data), dtype=np.int64)
    for k, lineno in enumerate(range(first, len(lines) + 1)):
        cells = _cells(lines[lineno - 1], lineno)
        if len(cells) != width:
            raise InvalidInput(
                f"expected {width} columns, got {len(cells)} (line {lineno})"
            )
        values = []
        for c, cell in enumerate(cells):
            if c == col_index:
                try:
                    label = _ascii_number(cell, int)
                except ValueError:
                    raise InvalidInput(
                        f"label {cell!r} is not an integer "
                        f"(line {lineno}, column {c + 1})"
                    ) from None
                if not 0 <= label < n:
                    raise InvalidInput(
                        f"label {label} out of range [0, {n}) "
                        f"(line {lineno}, column {c + 1})"
                    )
                labels[k] = label
                continue
            try:
                value = _ascii_number(cell, float)
            except ValueError:
                raise InvalidInput(
                    f"value {cell!r} is not a number (line {lineno}, column {c + 1})"
                ) from None
            if not math.isfinite(value):
                raise InvalidInput(
                    f"non-finite value {cell!r} (line {lineno}, column {c + 1})"
                )
            values.append(value)
        data[k] = values

    if header is not None and col_index is not None:
        del header[col_index]
    return LogitMatrix(data, labels, header)
