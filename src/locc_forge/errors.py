"""Exception types shared across the library."""


class LoccForgeError(Exception):
    """Base class for all locc-forge failures."""


class DimensionMismatchError(LoccForgeError, ValueError):
    """Operands act on Hilbert spaces of different dimension."""


class InconsistentNodeError(LoccForgeError, ValueError):
    """A node context violates its own invariants (bad bystander operator or
    parent coefficients outside the feasible cone)."""


class NotProductError(LoccForgeError, ValueError):
    """An operator expected to be a tensor product with a known factor is not."""


class TreeStructureError(LoccForgeError, ValueError):
    """A protocol tree is structurally malformed; the message names the node path."""


class MeasurementFormatError(LoccForgeError, ValueError):
    """A JSON document, or the arguments of ``SeparableMeasurement``, do not
    describe a valid measurement or protocol tree.  ``location`` is the path
    of the offending field in the JSON format, such as
    ``outcomes[3].label``, whichever of the two carried it."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
        self.detail = message

    def relocated(self, location: str) -> "MeasurementFormatError":
        """The same error, of the same type, located at ``location``."""
        moved = MeasurementFormatError.__new__(type(self))
        MeasurementFormatError.__init__(moved, self.detail, location)
        return moved


class IncompleteMeasurementError(MeasurementFormatError):
    """The weighted outcome operators miss the identity: with the given
    weights, or with the best nonnegative ones when none are given.  Located
    at ``outcomes``, the list whose weighted sum it is."""

    def __init__(self, message: str):
        super().__init__(message, "outcomes")
