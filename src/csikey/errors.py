"""Exception types shared across the package."""


class CsikeyError(Exception):
    """Base class for all package errors."""


class NumericalError(CsikeyError):
    """A numerical routine failed to converge."""


class DegenerateBasisError(CsikeyError):
    """Input vectors are rank deficient, exactly or numerically."""


class ParameterError(CsikeyError):
    """An invalid parameter, or a violated precondition of a reduction or protocol."""


class DimensionGuardError(CsikeyError):
    """Exact solver invoked above its dimension / search-space guard."""


class OptionError(ParameterError):
    """An experiment option with an unknown name or a value of the wrong type."""


class SearchFailureError(CsikeyError):
    """A search or reduction ended without a verified answer."""
