"""The one reader for the package's binary artifacts.

Every artifact is a magic string, a little-endian u32 version, a header of
fixed-width fields and length-prefixed UTF-8 strings, then a row-major
float64 matrix. `Reader.texts` keeps a block of strings as one `StringTable`,
which decodes a string only when it is read. `Reader.matrix` reads the
matrix straight from the file into the array it returns;
`Reader.stored_matrix` leaves it in the file and returns a `StoredMatrix`,
which keeps the file open and reads rows with `os.preadv` when they are
asked for. Either checks the matrix for NaN and infinity in
slices of `SLICE_BYTES`, so the check allocates no array the matrix's size.
Every length is checked against the file size before it is read, so a
header declaring more than the file holds allocates nothing. Reading fails
with a DataError subclass on a wrong magic or version, a short read (also of
a stored matrix whose file shrank after it was opened), bytes left over
after the last field, or a string that is not UTF-8, and with
NonFiniteParams on a matrix holding NaN or infinity.
"""

from __future__ import annotations

import os
import struct
import weakref
from array import array
from collections.abc import Sequence
from itertools import pairwise
from pathlib import Path

import numpy as np

from .errors import BadMagic, NonFiniteParams, SerializationError, Truncated, VersionMismatch

# A matrix is checked, and a stored one read whole, in row slices of about this many bytes.
SLICE_BYTES = 1 << 18


def row_slices(rows: int, cols: int) -> list[tuple[int, int]]:
    """`[start, stop)` ranges of whole rows, about `SLICE_BYTES` of float64 each, covering `rows`."""
    step = max(1, SLICE_BYTES // (8 * max(cols, 1)))
    return [(start, min(start + step, rows)) for start in range(0, rows, step)]


class StringTable(Sequence):
    """Strings kept as the bytes of the file's block, each a u32 length and
    that many UTF-8 bytes, and an `array("q")` of where each length starts,
    one entry past the last: no object per string. Reading a row decodes
    its string afresh. It equals any sequence of the same strings."""

    def __init__(self, block: bytes, starts: array) -> None:
        self.block = block
        self.starts = starts

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, row: int) -> str:
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError(f"string {row} of {len(self)}")
        return self.block[self.starts[row] + 4 : self.starts[row + 1]].decode("utf-8")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


class StoredMatrix:
    """A row-major float64 matrix left in its file, read on demand.

    It holds its own descriptor of the file, closed when the object is
    collected, so the rows come from the file that was opened even if its
    path is replaced. Indexing takes a slice of rows or an array of row
    numbers and returns a new C-order array: each run of consecutive rows is
    one `os.preadv` into it. A read that comes back short, because the file
    shrank, is `Truncated`; no row of it is returned.
    """

    def __init__(self, fd: int, path: str | Path, offset: int, rows: int, cols: int):
        self.fd = fd
        self._close = weakref.finalize(self, os.close, fd)
        self.path = path
        self.offset = offset
        self.shape = (rows, cols)

    def __getitem__(self, key: slice | np.ndarray) -> np.ndarray:
        rows = np.arange(*key.indices(self.shape[0])) if isinstance(key, slice) else np.asarray(key, dtype=np.int64)
        out = np.empty((len(rows), self.shape[1]), dtype="<f8")
        if len(rows):
            runs = (np.flatnonzero(np.diff(rows) != 1) + 1).tolist()
            for lo, hi in pairwise([0, *runs, len(rows)]):
                self._read_into(out[lo:hi], int(rows[lo]))
        return out

    def _read_into(self, out: np.ndarray, row: int) -> None:
        """Fill `out` with the rows from `row` on, looping over partial reads."""
        if not 0 <= row <= self.shape[0] - len(out):
            raise IndexError(f"rows [{row}, {row + len(out)}) of a {self.shape[0]}-row matrix")
        at = self.offset + 8 * self.shape[1] * row
        view = memoryview(out).cast("B")
        while view:
            got = os.preadv(self.fd, [view], at)
            if not got:
                raise Truncated(f"{self.path}: expected {len(view)} more bytes at offset {at}; the file shrank")
            view, at = view[got:], at + got

    def close(self) -> None:
        self._close()


def _check_finite(path: str | Path, matrix: np.ndarray | StoredMatrix) -> None:
    """NonFiniteParams unless every entry is finite, checked one row slice at a time."""
    for start, stop in row_slices(*matrix.shape):
        if not np.isfinite(matrix[start:stop]).all():
            raise NonFiniteParams(f"{path}: matrix contains non-finite values")


class Reader:
    """Sequential reader over one open artifact; checks magic and version on open.

    Use it as a context manager: the file is closed on every path.
    """

    def __init__(self, path: str | Path, magic: bytes, version: int, what: str):
        self.path = path
        self.fh = Path(path).open("rb")
        try:
            self.size = os.fstat(self.fh.fileno()).st_size
            self.pos = 0
            found = self.take(len(magic))
            if found != magic:
                raise BadMagic(f"{path}: expected magic {magic!r}, found {found!r}")
            (found_version,) = self.unpack("<I")
            if found_version != version:
                raise VersionMismatch(f"{path}: unsupported {what} version {found_version}")
        except BaseException:
            self.fh.close()
            raise

    def __enter__(self) -> Reader:
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def _skip(self, n: int) -> int:
        """Claim the next n bytes, which the file must still hold, and return where they start."""
        if n > self.size - self.pos:
            raise Truncated(f"{self.path}: expected {n} more bytes at offset {self.pos}")
        self.pos += n
        return self.pos - n

    def _check_full(self, got: int, n: int, start: int) -> None:
        if got != n:  # the file shrank after it was opened
            raise Truncated(f"{self.path}: expected {n} more bytes at offset {start}")

    def take(self, n: int) -> bytes:
        start = self._skip(n)
        data = self.fh.read(n)
        self._check_full(len(data), n, start)
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def texts(self, count: int, trailer: int) -> StringTable:
        """`count` strings, each a u32 byte length followed by that many UTF-8
        bytes, that fill the file up to its last `trailer` bytes. The block
        is read with one call and kept as a `StringTable`; every length and
        every string's UTF-8 is checked here."""
        base = self.pos
        nbytes = self.size - base - trailer
        if nbytes < 0:
            raise Truncated(f"{self.path}: expected {trailer} more bytes at offset {base}")
        if count > nbytes // 4:  # each string takes at least its 4-byte length: allocate no starts for more
            raise Truncated(f"{self.path}: {count} strings need at least {4 * count} bytes at offset {base}")
        block = self.take(nbytes)
        starts = array("q", [0]) * (count + 1)
        at = 0
        for row in range(count):
            starts[row] = at
            if at + 4 > nbytes:
                raise Truncated(f"{self.path}: expected 4 more bytes at offset {base + at}")
            (length,) = struct.unpack_from("<I", block, at)
            at += 4
            if length > nbytes - at:
                raise Truncated(f"{self.path}: expected {length} more bytes at offset {base + at}")
            try:
                block[at : at + length].decode("utf-8")
            except UnicodeDecodeError:
                raise SerializationError(f"{self.path}: string at offset {base + at} is not valid UTF-8") from None
            at += length
        if at != nbytes:
            raise Truncated(f"{self.path}: {nbytes - at} unexpected bytes after the strings at offset {base + at}")
        starts[count] = at
        return StringTable(block, starts)

    def _claim_matrix(self, rows: int, cols: int) -> int:
        """Claim a row-major (rows, cols) float64 matrix's bytes; both sides must be positive."""
        if rows < 1 or cols < 1:
            raise SerializationError(f"{self.path}: matrix shape ({rows}, {cols}) has an empty side")
        return self._skip(8 * rows * cols)

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """A finite row-major (rows, cols) float64 matrix, read into memory."""
        start = self._claim_matrix(rows, cols)
        out = np.empty((rows, cols), dtype="<f8")
        self._check_full(self.fh.readinto(out), out.nbytes, start)
        _check_finite(self.path, out)
        return out

    def stored_matrix(self, rows: int, cols: int) -> StoredMatrix:
        """A finite row-major (rows, cols) float64 matrix left in the file,
        on a descriptor of its own that outlives this reader."""
        start = self._claim_matrix(rows, cols)
        stored = StoredMatrix(os.dup(self.fh.fileno()), self.path, start, rows, cols)
        try:
            _check_finite(self.path, stored)
        except BaseException:
            stored.close()
            raise
        return stored

    def end(self) -> None:
        """Reject bytes past the last field."""
        if self.pos != self.size:
            raise Truncated(f"{self.path}: {self.size - self.pos} unexpected trailing bytes")
