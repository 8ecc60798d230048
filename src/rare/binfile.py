"""The one reader for the package's binary artifacts.

Every artifact is a magic string, a little-endian u32 version, a header of
fixed-width fields and length-prefixed UTF-8 strings, then a row-major
float64 matrix, which `Reader.matrix` reads straight from the file into the
array it returns. Every length is checked against the file size before it
is read, so a header declaring more than the file holds allocates nothing.
Reading fails with a DataError subclass on a wrong magic or version, a short
read, bytes left over after the last field, or a string that is not UTF-8,
and with NonFiniteParams on a matrix holding NaN or infinity.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, NonFiniteParams, SerializationError, Truncated, VersionMismatch


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

    def texts(self, count: int, trailer: int) -> list[str]:
        """`count` strings, each a u32 byte length followed by that many UTF-8
        bytes, that fill the file up to its last `trailer` bytes; the block
        is read with one call."""
        base = self.pos
        nbytes = self.size - base - trailer
        if nbytes < 0:
            raise Truncated(f"{self.path}: expected {trailer} more bytes at offset {base}")
        block = self.take(nbytes)
        out = []
        at = 0
        for _ in range(count):
            if at + 4 > nbytes:
                raise Truncated(f"{self.path}: expected 4 more bytes at offset {base + at}")
            (length,) = struct.unpack_from("<I", block, at)
            at += 4
            if length > nbytes - at:
                raise Truncated(f"{self.path}: expected {length} more bytes at offset {base + at}")
            try:
                out.append(block[at : at + length].decode("utf-8"))
            except UnicodeDecodeError:
                raise SerializationError(f"{self.path}: string at offset {base + at} is not valid UTF-8") from None
            at += length
        if at != nbytes:
            raise Truncated(f"{self.path}: {nbytes - at} unexpected bytes after the strings at offset {base + at}")
        return out

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """A finite row-major (rows, cols) float64 matrix; both sides must be positive."""
        if rows < 1 or cols < 1:
            raise SerializationError(f"{self.path}: matrix shape ({rows}, {cols}) has an empty side")
        start = self._skip(8 * rows * cols)
        out = np.empty((rows, cols), dtype="<f8")
        self._check_full(self.fh.readinto(out), out.nbytes, start)
        if not np.all(np.isfinite(out)):
            raise NonFiniteParams(f"{self.path}: matrix contains non-finite values")
        return out

    def end(self) -> None:
        """Reject bytes past the last field."""
        if self.pos != self.size:
            raise Truncated(f"{self.path}: {self.size - self.pos} unexpected trailing bytes")
