"""Exception hierarchy for the package.

Every error raised by the library derives from SubmodcurvError so the CLI
can map failures onto its exit-code contract without pattern matching on
messages.
"""


class SubmodcurvError(Exception):
    """Base class for all library errors."""


class ShapeError(SubmodcurvError):
    """Operands have incompatible dimensions, variable counts or truncation."""


class SingularityError(SubmodcurvError):
    """Inversion or logarithm of an object with vanishing constant term /
    determinant, or a metric that is singular at the base point."""


class DomainError(SubmodcurvError):
    """Mathematically invalid input: non-positive weight, point outside the
    open polydisc, non-positive truncation degree, and similar."""


class TruncationError(SubmodcurvError):
    """Requested truncation degree is too small for the construction."""


class DegeneracyError(SubmodcurvError):
    """A frame is linearly dependent at its base point."""


class WorkLimitError(SubmodcurvError):
    """An input whose size, read before the work starts, passes the
    documented limit of that work."""


class UnsupportedIdealError(SubmodcurvError):
    """The ideal family is outside what the requested operation supports."""


class InputError(SubmodcurvError):
    """Malformed textual input (polynomial source or config file).

    Carries enough location information to point the user at the offending
    spot: line/column when known, otherwise the field name.
    """

    def __init__(self, message, *, line=None, column=None, field=None):
        self.line = line
        self.column = column
        self.field = field
        where = []
        if field is not None:
            where.append(f"field {field!r}")
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {column}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
