"""Exception hierarchy shared by all modules.

Every domain failure raises a subclass of :class:`CalculatorError` whose
message names the violated hypothesis, so the CLI can map it to exit code 1
with a meaningful diagnostic.
"""


class CalculatorError(Exception):
    """Base class for all domain errors raised by this package."""


class CertificateFailed(CalculatorError):
    """An internal certificate failed to hold for a computed value.

    The certificates are exact checks the mathematics guarantees, so a
    failure flags an implementation bug; unlike ``assert``, it survives
    ``python -O``.
    """


# ring layer

class InvalidPresentation(CalculatorError):
    pass


class RewrittenGenerator(InvalidPresentation):
    """A power rule of cap 1 rewrites a generator of a ring built by hand,
    so a class expression cannot read that generator as itself."""


class RingMismatch(CalculatorError):
    pass


class NotDegreeTwo(CalculatorError):
    pass


# characteristic classes

class DivisionInconsistent(CalculatorError):
    pass


# catalog

class EmptyIntersection(CalculatorError):
    pass


class NoPrimitiveClass(CalculatorError):
    pass


class MetadataOnlySpace(CalculatorError):
    pass


class MissingSpinCClass(CalculatorError):
    """A spin^c twist was asked of a space that carries no spin^c class."""


# index engine

class MissingOddClass(CalculatorError):
    pass


class WindowExhausted(CalculatorError):
    """The vanishing window of the index polynomial was exhausted.

    This contradicts the parity argument guaranteeing a nonvanishing twist,
    so it flags an internal bug or an inadmissible input space.
    """


class KunnethViolation(CalculatorError):
    pass


class PreconditionUnmet(CalculatorError):
    pass


class LichnerowiczObstruction(CalculatorError):
    """The untwisted A-hat pairing is nonzero: no PSC metric exists."""


class DegenerateClass(CalculatorError):
    pass


# cone engine

class UnsupportedRank(CalculatorError):
    pass


class InvalidNormalization(CalculatorError):
    pass


class DimensionTooLow(CalculatorError):
    pass


class IrrationalCriticalPoint(CalculatorError):
    """A slice optimum sits at a non-rational critical point.

    The optimizer refuses to approximate; exactness is preserved by raising.
    """


# lattice toolkit

class RankTooLarge(CalculatorError):
    pass


class BoundViolated(CalculatorError):
    """The reduced dual basis violated the r^2 bound.

    This contradicts the transference/reduction argument, so it signals an
    implementation bug rather than a property of the input.
    """


class EuclideanizationFailed(CalculatorError):
    pass


class TooManyVertices(CalculatorError):
    """A polytope has too many vertices for exhaustive facet enumeration."""


# pushforward

class NonPolynomialResult(CalculatorError):
    """A pushforward's closed-form Schur coefficients disagree with its
    localization sum at the check point x_i = 2^(i-1).

    The closed form is a theorem; failure is a hard error.
    """


class TooFewVariables(CalculatorError):
    pass


# cli

class ValueTooLarge(CalculatorError):
    """A result has more digits than the interpreter converts to text, or its
    JSON ``_approx`` is past the float range."""


class ParseError(CalculatorError):
    def __init__(self, message, position, expected=()):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected)

    def __str__(self):
        base = super().__str__()
        if self.expected:
            return "%s at offset %d (expected %s)" % (
                base, self.position, ", ".join(self.expected))
        return "%s at offset %d" % (base, self.position)
