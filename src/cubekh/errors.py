"""Exception types shared across the library.

Validation errors (bad input data), budget errors and internal
inconsistencies are kept separate so the CLI can map them to distinct exit
codes.
"""


class CubekhError(Exception):
    """Base class for all library errors."""


class ValidationError(CubekhError):
    """Base class for malformed or inconsistent input data."""


class MalformedPD(ValidationError):
    """PD code fails structural validation (label frequency, tuple arity)."""


class DisconnectedTrace(ValidationError):
    """Strand tracing through the PD code is inconsistent."""


class LengthMismatch(ValidationError):
    """A resolution bit-vector does not match the crossing count."""


class IncompatibleMarking(ValidationError):
    """Arc marking does not define a valid two-fold marking datum."""


class NonPlanarTrace(ValidationError):
    """The PD code does not describe a planar (genus 0) diagram."""


class DimensionMismatch(ValidationError):
    """Matrix or multi-framing dimensions disagree."""


class InvalidRange(ValidationError):
    """A numeric parameter lies outside its documented range."""


class NotAComplex(ValidationError):
    """Differentials do not square to zero."""


class NotBicomplex(ValidationError):
    """Horizontal/vertical differentials fail square or commutation checks."""


class NotChainMap(ValidationError):
    """A purported chain map does not commute with the differentials, so
    the differential of its mapping cone does not square to zero."""


class FiltrationViolation(ValidationError):
    """A differential decreases the filtration level of some generator."""


class BadCircleMap(ValidationError):
    """Circle correspondence data for an edge map is inconsistent."""


class InternalInconsistency(CubekhError):
    """Two independent constructions of the same quantity disagree, or an
    internal invariant failed.  Indicates an implementation bug, never bad
    input."""


class SizeBudgetExceeded(CubekhError):
    """Input exceeds a size budget: crossings and free loops against the
    cube budget, or the length of a large-surgery derivation."""

