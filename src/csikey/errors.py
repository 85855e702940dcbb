"""Exception types shared across the package, and the one rule for integer
and real scalar arguments: need_int and need_real."""

import numbers
import sys

import numpy as np


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


def _show(x) -> str:
    """x in a message: an integer beyond 2^64 by its bit length, a power of
    two above 2^20 as 2^k."""
    if type(x) is int and abs(x) > 2**64:
        return f"a {abs(x).bit_length()}-bit integer"
    pow2 = type(x) is int and x > 2**20 and not x & (x - 1)
    return f"2^{x.bit_length() - 1}" if pow2 else repr(x)


def need_int(name: str, v, lo, hi=2**53):
    """v if it is an integer in [lo, hi], else ParameterError.  Python and
    numpy integers pass; bool and floats, integral ones too, do not."""
    if (isinstance(v, (int, np.integer)) or isinstance(v, numbers.Integral)) \
            and not isinstance(v, bool) and lo <= v <= hi:
        return v
    span = f">= {lo}" if hi == np.inf else f"in [{_show(lo)}, {_show(hi)}]"
    raise ParameterError(f"{name} must be an integer {span}, got {_show(v)}")


def need_real(name: str, v, lo, hi):
    """v if it is a real in the open range (lo, hi), else ParameterError.
    Python and numpy integers and floats pass; bool, NaN and an integer
    beyond the float range do not."""
    if isinstance(v, (float, np.floating)) and lo < float(v) < hi:  # open: finite
        return v
    if (isinstance(v, (int, np.integer)) or isinstance(v, numbers.Real)) \
            and not isinstance(v, bool) and lo < v < hi and abs(v) <= sys.float_info.max:
        return v
    raise ParameterError(f"{name} must be a real in ({_show(lo)}, {_show(hi)}), "
                         f"got {_show(v)}")
