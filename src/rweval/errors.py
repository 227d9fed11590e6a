"""Exception types shared across the toolkit."""


class RwevalError(Exception):
    """Base class for all errors raised by this package."""


class MalformedElf(RwevalError):
    """The input is not a well-formed ELF image.

    ``offset`` points at the offending byte range when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset:#x})"
        super().__init__(message)


class Unsupported(RwevalError):
    """Valid ELF, but a class/encoding this toolkit does not handle."""


class EmptyMatrix(RwevalError):
    """A feature matrix with no usable rows or columns."""


class DegenerateSplit(RwevalError):
    """A train/test split that would leave one side empty."""


class SchemaError(RwevalError, ValueError):
    """A tree, built or serialized, violates the model schema.

    ``path`` locates the offending node, e.g. ``root.true.false``.
    """

    def __init__(self, message: str, path: str = "root"):
        self.path = path
        super().__init__(f"{message} [{path}]")


class SpawnError(RwevalError):
    """A configured command could not be started."""


class WorkdirError(RwevalError):
    """A run's private working directory could not be prepared."""


class UnknownTool(RwevalError):
    """A requested tool has no records in the result set."""
