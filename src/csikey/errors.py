"""Exception types shared across the package."""


class CsikeyError(Exception):
    """Base class for all package errors."""


class NumericalError(CsikeyError):
    """A numerical routine failed to converge."""


class DegenerateBasisError(CsikeyError):
    """Input vectors are rank deficient."""


class IllConditionedError(CsikeyError):
    """Condition number too large for a reliable inverse."""


class ParameterError(CsikeyError):
    """Invalid system parameter."""


class DimensionGuardError(CsikeyError):
    """Exact solver invoked above its dimension / search-space guard."""


class ConfigurationError(CsikeyError):
    """A stated precondition of a reduction or protocol is violated."""


class OptionError(ConfigurationError):
    """An experiment option with an unknown name or a value of the wrong type."""


class SearchFailureError(CsikeyError):
    """A search wrapper exhausted its options without a verified answer."""


class ReductionFailureError(CsikeyError):
    """A reduction step failed (no oracle guess accepted)."""
