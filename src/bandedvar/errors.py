"""Exception types shared across the package."""


class BandedVarError(Exception):
    """Base class for all package-specific failures."""


class SingularDesignError(BandedVarError):
    """A regression design is numerically rank deficient.

    Attributes
    ----------
    column : int or None
        Index of the first offending design column.
    row : int or None
        Equation index when the failure occurred inside a row-wise fit.
    rows : list of int or None
        All failing equations, for aggregate fits.
    """

    def __init__(self, message, column=None, row=None, rows=None):
        super().__init__(message)
        self.column = column
        self.row = row
        self.rows = rows


class ConvergenceError(BandedVarError):
    """A numerical routine failed to converge (an eigenvalue solve in
    :func:`bandedvar.linalg.spectral_radius`)."""


class NonStationaryError(BandedVarError):
    """An operation that requires a stationary model received one that is not."""


class DataFormatError(BandedVarError):
    """Malformed input file. Carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
