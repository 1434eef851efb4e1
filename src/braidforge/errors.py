"""Exception hierarchy.

Every failure the library can diagnose maps to one subclass, so callers
(and the CLI exit-code logic) can dispatch on type.  ``SchemaError`` and
its children mean the *input* was bad; ``EnumerationLimit`` means an
enumeration guard tripped; ``ClassificationBug`` means an internal
cross-check failed, which should be impossible on valid inputs.
``Check`` is one verified identity of a report; it lives here because
every command path imports this module.
"""

from typing import NamedTuple


class Check(NamedTuple):
    name: str
    anchor: str
    status: str  # pass | fail | skipped
    witness: str = ""


class BraidforgeError(Exception):
    """Base class for all library errors."""


class SchemaError(BraidforgeError):
    """Malformed or inconsistent input data."""


class InvalidPresentation(SchemaError):
    """Group presentation contains an entry < 2."""


class NotASubgroup(SchemaError):
    """Element set is not a subgroup of the stated parent."""


class EnumerationLimit(BraidforgeError):
    """A configured enumeration guard was exceeded."""


class DivisionByZero(BraidforgeError):
    """Inversion of the zero cyclotomic number."""


class NotNormalized(SchemaError):
    """Quadratic form has q(0) != 0."""


class NotEven(SchemaError):
    """Quadratic form violates q(-g) = q(g)."""


class NotQuadratic(SchemaError):
    """Polarization of the value table is not biadditive."""


class NotIsotropic(SchemaError):
    """Subgroup is not isotropic for the form."""


class NotAnisotropic(SchemaError):
    """Form vanishes on a nonzero element, so it cannot be classified
    as anisotropic."""


class NotMetric(SchemaError):
    """Operation requires a non-degenerate form."""


class NotCharacter(SchemaError):
    """Sign table is not multiplicative."""


class RingAxiomError(SchemaError):
    """Base class for fusion-ring table violations."""


class UnitFail(RingAxiomError):
    pass


class AssociativityFail(RingAxiomError):
    pass


class DualityFail(RingAxiomError):
    pass


class DatumError(SchemaError):
    """Base class for pre-modular datum violations."""


class UnitTwistFail(DatumError):
    pass


class ZeroDim(DatumError):
    pass


class DualDimFail(DatumError):
    pass


class SymmetryFail(DatumError):
    pass


class VerlindeFail(DatumError):
    pass


class BadParameter(SchemaError):
    """Parameter outside its documented domain."""


class NotWeaklyIntegral(BraidforgeError):
    """Operation requires integer total squared dimension."""


class Degenerate(BraidforgeError):
    """Operation requires a non-degenerate datum."""


class Unsupported(BraidforgeError):
    """Requested computation is outside the supported fragment."""


class NumericalFail(BraidforgeError):
    """Floating-point stage failed to converge or to round decisively."""


class ClassificationBug(BraidforgeError):
    """An internal invariant that is provably true was violated."""
