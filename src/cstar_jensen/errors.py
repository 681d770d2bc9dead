"""Exception taxonomy shared by every layer of the package. The readers of
the scenario wire format, which raise its ValidationError, are in jsonutil."""


class CstarJensenError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CstarJensenError):
    """Operands live in algebras with different block structure."""


class NearSingular(CstarJensenError):
    """A block is numerically singular and refuses inversion."""


class NotSelfAdjoint(CstarJensenError):
    """An operation required a self-adjoint element and did not get one."""


class OrderViolation(CstarJensenError):
    """A strict-order coefficient has spectrum outside the open interval (0, 1)."""


class SpaceMismatch(CstarJensenError):
    """Vectors or mappings from incompatible module spaces were combined."""


class InvalidMode(CstarJensenError):
    """An orthogonal-pair sampler was configured inconsistently."""


class DomainError(CstarJensenError):
    """A numeric parameter is outside its admissible range."""


class PairConditionViolated(CstarJensenError):
    """A candidate (phi, psi, a) triple fails one of the pair conditions."""

    def __init__(self, message, condition=None, residual=None):
        super().__init__(message)
        self.condition = condition
        self.residual = residual


class InvalidSampler(CstarJensenError):
    """A sampler emitted a pair that is not orthogonal."""


class ParseError(CstarJensenError):
    """Input text is not well-formed JSON."""


class ValidationError(CstarJensenError):
    """Well-formed input violates the scenario or wire-format schema."""


class IoError(CstarJensenError):
    """Reading or writing a file failed."""
