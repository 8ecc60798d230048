"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError family -> 1 (usage),
DataError family -> 2 (bad or missing input), NumericError family -> 3
(non-finite loss or parameters). DimMismatch and WorkerLost also exit 2.
"""

from __future__ import annotations


class RareError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(RareError):
    """A configuration value is unusable (bad flag value, invalid spec)."""


class SpecInvalid(ConfigError):
    """A generator or trainer spec fails validation."""


class NonPositiveTemperature(ConfigError):
    """Softmax temperature must be strictly positive."""


class DataError(RareError):
    """Input data is missing, malformed, or inconsistent."""


class MalformedLine(DataError):
    """A line of a text input is not UTF-8, does not parse, or lacks a field."""

    def __init__(self, path: str, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {reason}")


class MalformedRow(MalformedLine):
    """A TSV or run-file row has the wrong shape or an unparsable field."""


class DuplicateId(DataError):
    """The same id appeared twice in a collection that requires unique ids."""


class NegativeGrade(DataError):
    """A relevance grade below zero was read from a qrels file."""


class EmptyPool(DataError):
    """An example pool contains no usable examples."""


class PoolTooSmall(DataError):
    """An example pool is smaller than the number of examples requested."""


class EmptyCollection(DataError):
    """An index was asked to build over zero items."""


class EmptyCorpus(DataError):
    """A corpus file contains no documents."""


class EmptyQuery(DataError):
    """A query with empty text cannot be rendered or searched."""


class MissingNegative(DataError):
    """A format that renders negatives got an example without one."""


class OrdinalOutOfRange(DataError):
    """An item ordinal does not exist in the index."""


class SerializationError(DataError):
    """Base class for binary artifact parsing failures."""


class BadMagic(SerializationError):
    """The file does not start with the expected magic bytes."""


class VersionMismatch(SerializationError):
    """The file's format version is not supported by this build."""


class Truncated(SerializationError):
    """The file ended before the declared payload was complete."""


class DimMismatch(RareError):
    """Two vectors or a vector and an index disagree on dimensionality."""


class NumericError(RareError):
    """A numeric quantity that must be finite is not."""


class NonFiniteParams(NumericError):
    """Embedder parameters contain NaN or infinity."""


class NonFiniteLoss(NumericError):
    """A training loss or gradient came out NaN or infinite."""


class WorkerLost(RareError):
    """A worker process ended before it returned its share of the work."""
