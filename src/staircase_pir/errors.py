"""Exception types shared across the package."""


class StaircasePIRError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(StaircasePIRError):
    """The requested field modulus is not a prime number."""


class DuplicatePoint(StaircasePIRError):
    """Vandermonde evaluation points must be pairwise distinct."""


class ZeroPoint(StaircasePIRError):
    """Vandermonde evaluation points must be nonzero."""


class DimensionMismatch(StaircasePIRError):
    """Matrix dimensions do not match the operation."""


class Singular(StaircasePIRError):
    """The linear system has no unique solution."""


class InvalidThreshold(StaircasePIRError):
    """Collusion threshold t must satisfy 1 <= t < k."""


class InvalidK(StaircasePIRError):
    """Responder count k must satisfy k <= n."""


class FieldTooSmall(StaircasePIRError):
    """The field modulus must exceed the number of servers."""


class FileIndexOutOfRange(StaircasePIRError):
    """Requested file index is not in [1, m]."""


class BadEncodingMatrix(StaircasePIRError):
    """Encoding matrix fails the prefix-invertibility requirement."""


class OutOfRange(StaircasePIRError, ValueError):
    """A value outside its range, such as a responder count outside [k, n]
    or a deadline that is not positive."""


class InsufficientResponders(StaircasePIRError):
    """Fewer than k servers responded; the user must keep waiting."""


class MissingResponse(StaircasePIRError):
    """A response required by the download plan was not supplied."""


class NotEnoughShares(StaircasePIRError):
    """Secret reconstruction needs at least k shares."""


class SearchSpaceTooLarge(StaircasePIRError):
    """Exhaustive privacy enumeration would exceed the configured cap."""


class HandshakeMismatch(StaircasePIRError):
    """Client and server disagree on scheme parameters or encoding matrix."""


class MalformedFrame(StaircasePIRError):
    """A wire frame failed to parse."""
