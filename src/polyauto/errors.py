"""Exception types shared across the package.

Every domain error raised by the library is a subclass of AlgebraError, so
callers (and the CLI) can catch one type and still report the specific name.
"""


class AlgebraError(Exception):
    pass


# -- fields ------------------------------------------------------------

class NotPrime(AlgebraError):
    pass


class ReducibleModulus(AlgebraError):
    pass


class DivisionByZero(AlgebraError):
    pass


class FieldMismatch(AlgebraError):
    pass


# -- polynomials -------------------------------------------------------

class ArityMismatch(AlgebraError):
    pass


class DegreeCapExceeded(AlgebraError):
    pass


class IndexOutOfRange(AlgebraError):
    pass


class NegativeExponent(AlgebraError, ValueError):
    """A monomial or a power with an exponent below zero; also a ValueError,
    so callers that catch ValueError still catch it."""


# -- automorphisms -----------------------------------------------------

class InvalidFactor(AlgebraError):
    pass


class NotStructured(AlgebraError):
    pass


class NotTriangular(AlgebraError):
    pass


# -- constructive engines ----------------------------------------------

class IndexClash(AlgebraError):
    pass


class ZeroScalar(AlgebraError):
    pass


class DegenerateTarget(AlgebraError):
    pass


class IdentityInput(AlgebraError):
    pass


class NotAffine(AlgebraError):
    pass


class NotSpecial(AlgebraError):
    pass


class UnsupportedField(AlgebraError):
    pass


class NoSuchUnit(AlgebraError):
    pass


class NotAlternating(AlgebraError):
    pass


class UnsupportedCharacteristic(AlgebraError):
    pass


class NotParabolic(AlgebraError):
    pass


class UnsupportedM(AlgebraError):
    pass


class InternalIdentityFailure(AlgebraError):
    pass


class DegenerateChain(AlgebraError):
    pass


# -- derivations -------------------------------------------------------

class KernelViolation(AlgebraError):
    pass


class NilpotencyCapExceeded(AlgebraError):
    pass


# -- text formats ------------------------------------------------------

class ParseError(AlgebraError):
    def __init__(self, message, line=None, column=None):
        self.reason = message
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ArityError(ParseError):
    """A list in the text has the wrong number of entries."""
