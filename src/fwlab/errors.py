"""Exception types shared across the package."""


class FWLabError(Exception):
    """Base class for every error raised by this package."""


class NonHermitianInput(FWLabError):
    """An operator that must be Hermitian fails its tolerance check."""


class SingularOperand(FWLabError):
    """Inverse square root requested for an operator without a spectral gap."""


class SingularHamiltonian(FWLabError):
    """(Near) zero-energy modes make H / sqrt(H^2) undefined."""


class NotUnitary(FWLabError):
    """A matrix expected to be unitary is not, within tolerance."""


class BranchCutProximity(FWLabError):
    """A unitary eigenphase sits too close to +-pi for a principal logarithm."""


class DimensionMismatch(FWLabError):
    """Operand shapes do not match the grading."""


class NotCommuting(FWLabError):
    """The closed forms need commuting even and odd parts; these do not commute."""


class OutsideValidityDomain(FWLabError):
    """The commuting-case root is not the principal (positive) root here."""


class DegenerateFactor(FWLabError):
    """1 + beta*lambda is numerically singular; the polar construction breaks down."""


class InvalidGrid(FWLabError):
    """Unusable lattice parameters (site count or box size)."""


class ParseError(FWLabError):
    """A flat input file or descriptor violates its format contract."""

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        where = "" if path is None else str(path)
        if line is not None:
            where += f":{line}"
        if column is not None:
            where += f":{column}"
        super().__init__(f"{where}: {message}" if where else message)
