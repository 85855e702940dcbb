"""Exception types shared across the package, and the one rule for each
kind of argument: need_int, need_real, need_array and need_ints."""

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


def _fit(name: str, x, shape, dtype=None) -> np.ndarray:
    """x as an array of dtype if its shape matches shape (see need_array),
    else ParameterError."""
    try:
        arr = np.asarray(x, dtype=dtype)
    except (ValueError, TypeError):  # a string, a ragged list, a dict
        raise ParameterError(f"{name} must be a numeric array, got {x!r:.40}") from None
    want = shape[1:] if shape[:1] == (...,) else shape  # a stack: the last axes
    got = arr.shape[arr.ndim - len(want):] if want is not shape else arr.shape
    if len(got) != len(want) or any(w not in (None, g) for w, g in zip(want, got)):
        spec = str(shape).replace("None", "*").replace("Ellipsis", "...")
        raise ParameterError(f"{name} must have shape {spec}, got {arr.shape}")
    return arr


def need_array(name: str, x, shape, finite=True) -> np.ndarray:
    """x as a float array of the given shape, else ParameterError.  In shape,
    None marks a free axis and a leading ... a stack of any depth; with
    finite, every entry must be finite."""
    x = _fit(name, x, shape, float)
    if finite and not np.isfinite(x).all():
        raise ParameterError(f"{name} must be finite, got {x[~np.isfinite(x)][0]}")
    return x


def need_ints(name: str, x, lo, hi, shape) -> np.ndarray:
    """x as int64 if it has the shape (as in need_array) and every entry is
    an integer in [lo, hi], else ParameterError.  Integer and bool arrays
    pass with one range test; float arrays only with finite integral values."""
    x = _fit(name, x, shape)
    kind = x.dtype.kind
    if kind in "biu":
        ok = (x >= lo) & (x <= hi)
    elif kind == "f":  # below hi + 1, so that the int64 cast is exact
        ok = (x >= lo) & (x < hi + 1) & (x == np.floor(x))
    else:  # no other dtype
        ok = np.zeros(x.shape, dtype=bool)
    if not ok.all():
        raise ParameterError(f"{name} must be integers in [{_show(lo)}, {_show(hi)}], "
                             f"got {_show(x[~ok].tolist()[0])}")
    return x.astype(np.int64, copy=False)
