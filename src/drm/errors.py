"""Exception types shared across the package."""


class DrmError(Exception):
    """Base class for every error raised by this package."""


# --- bundle file format ---

class BadMagic(DrmError):
    """File does not start with the bundle magic bytes."""


class UnsupportedVersion(DrmError):
    """Bundle file declares a format version this reader does not know."""


class CorruptHeader(DrmError):
    """Bundle header is truncated, unparseable, or violates the schema."""


class OffsetOutOfRange(DrmError):
    """A tensor's declared data span falls outside the file's data region."""


class NonFiniteValue(DrmError):
    """A tensor contains NaN or infinity."""


class IoFailure(DrmError):
    """Underlying OS-level read or write failed."""


# --- bundle alignment ---

class ShapeMismatch(DrmError):
    """Operands do not have compatible shapes."""


class MissingTensor(DrmError):
    """A task bundle lacks a tensor present in the base bundle."""


class ExtraTensor(DrmError):
    """A task bundle carries a tensor the base bundle does not have."""


# --- numerics ---

class ConvergenceFailure(DrmError):
    """An iterative numerical routine failed to converge."""


class SizeTooLarge(DrmError):
    """Input exceeds the size limit of a test-scale routine."""


class SingularSystem(DrmError):
    """A linear system has no unique solution."""


class CastOverflow(DrmError):
    """A merged tensor does not fit its output dtype (overflows to infinity)."""


# --- analysis ---

class NeedTwoTasks(DrmError):
    """The requested analysis is only defined for two or more tasks."""
