"""Exception types shared across the package.

Every concrete error derives from one of three bases, which the command
line maps to its exit codes: :class:`ArgumentError` (2),
:class:`InputOutputError` (3) and :class:`NumericError` (4).
"""


class DrmError(Exception):
    """Base class for every error raised by this package."""


class ArgumentError(DrmError):
    """The request itself is invalid for the inputs it names."""


class InputOutputError(DrmError):
    """A file could not be read or written, or its content is unusable."""


class NumericError(DrmError):
    """A numerical routine failed or its result cannot be represented."""


# --- bundle file format ---

class BadMagic(InputOutputError):
    """File does not start with the bundle magic bytes."""


class UnsupportedVersion(InputOutputError):
    """Bundle file declares a format version this reader does not know."""


class CorruptHeader(InputOutputError):
    """Bundle header is truncated, unparseable, or violates the schema."""


class OffsetOutOfRange(InputOutputError):
    """A tensor's declared data span falls outside the file's data region."""


class NonFiniteValue(InputOutputError):
    """A tensor contains NaN or infinity."""


class IoFailure(InputOutputError):
    """Underlying OS-level read or write failed."""


# --- bundle alignment ---

class ShapeMismatch(InputOutputError):
    """Operands do not have compatible shapes."""


class MissingTensor(InputOutputError):
    """A task bundle lacks a tensor present in the base bundle."""


class ExtraTensor(InputOutputError):
    """A task bundle carries a tensor the base bundle does not have."""


# --- numerics ---

class ConvergenceFailure(NumericError):
    """An iterative numerical routine failed to converge."""


class SizeTooLarge(NumericError):
    """Input exceeds the size limit of a test-scale routine."""


class SingularSystem(NumericError):
    """A linear system has no unique solution."""


class CastOverflow(NumericError):
    """A merged tensor does not fit its output dtype (overflows to infinity)."""


# --- analysis ---

class NeedTwoTasks(ArgumentError):
    """The requested analysis is only defined for two or more tasks."""
