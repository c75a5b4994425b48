"""Exception types shared across the library."""


class LpiFormsError(Exception):
    """Base class for all library errors."""


class DegenerateSimplex(LpiFormsError):
    """A simplex repeats a vertex id, has zero volume or a non-finite vertex."""


class MissingVertex(LpiFormsError):
    """A vertex id is not present in the vertex table."""


class DuplicateVertex(LpiFormsError):
    """A vertex id appears twice in the vertex table."""


class MissingSimplex(LpiFormsError):
    """A simplex key is not present in the complex."""


class DuplicateSimplex(LpiFormsError):
    """A simplex key appears twice in a cochain file."""


class BadDimension(LpiFormsError):
    """Dimension or degree out of range for the operation."""


class BadExponent(LpiFormsError):
    """Integrability exponent outside [1, inf)."""


class BadCarrier(LpiFormsError):
    """The form's carrier complex has the wrong shape for the operation."""


class BadDegree(LpiFormsError):
    """Form degree out of range for the operation."""


class OutsideDomain(LpiFormsError):
    """Point outside the closed unit ball."""


class BadEpsilon(LpiFormsError):
    """Bump-family exponent shift outside its open interval."""


class NotACounterexample(LpiFormsError):
    """The exponent sequence is non-increasing, so no counterexample exists."""


class TooLarge(LpiFormsError, ValueError):
    """The input exceeds the size limit of a dense computation."""
