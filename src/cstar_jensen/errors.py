"""Exception taxonomy shared by every layer of the package, and the field
lookup that raises its schema error."""


class CstarJensenError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CstarJensenError):
    """Operands live in algebras with different block structure."""


class NearSingular(CstarJensenError):
    """A block is numerically singular and refuses inversion."""

    def __init__(self, message, block_index=None, smallest_singular_value=None):
        super().__init__(message)
        self.block_index = block_index
        self.smallest_singular_value = smallest_singular_value


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

    def __init__(self, message, condition=None, basis_pair=None, residual=None):
        super().__init__(message)
        self.condition = condition
        self.basis_pair = basis_pair
        self.residual = residual


class PairNotValidated(CstarJensenError):
    """A check that presupposes a validated pair received an unvalidated one."""


class InvalidSampler(CstarJensenError):
    """A sampler emitted a pair that is not orthogonal."""


class ParseError(CstarJensenError):
    """Input text is not well-formed JSON."""


class ValidationError(CstarJensenError):
    """Well-formed input violates the scenario or wire-format schema."""


class IoError(CstarJensenError):
    """Reading or writing a file failed."""


def require_field(obj: dict, name: str, section: str):
    """obj[name] from a decoded JSON object, or a ValidationError that names
    the section and the field."""
    if name not in obj:
        raise ValidationError(f"{section} is missing the {name!r} field")
    return obj[name]
