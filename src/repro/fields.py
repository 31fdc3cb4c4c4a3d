"""One checker for user numbers and the one error that names a bad field.

Every number a user sizes, picks or reads out — stage counts, widths,
wire loads, the tap stage, the readout clock, temperatures, grid
extents — is checked here, once, by the constructor that takes it.  A
real number is an ``int`` or ``float`` (never a ``bool`` or a ``str``)
that is finite and inside its bounds (``above``/``below`` open,
``at_least``/``at_most`` closed); an integer is also integral and fits
in 64 bits.  :func:`real_array` checks a whole ``(S, 1)`` population
column or coordinate grid in one numpy pass.  A refusal raises the
caller's error class with the message ``"{field} must be …, got …"``.
:func:`flag` turns a check into an ``argparse`` ``type=``, so a command
line flag is checked by the same rule as the argument it sets.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["ReproInputError", "flag", "integer", "real", "real_array"]


class ReproInputError(ValueError):
    """Malformed or out-of-range user input; ``field`` names the offender.

    The base of every input error in the package (``SweepError``,
    ``TechnologyError``, ``ConfigurationError``, ``CellError``,
    ``CalibrationError``).  The sweep service answers any of them with
    the ``bad-spec`` error code; ``internal`` is kept for faults of the
    server itself.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


def _refuse(error, field, value, integral=False, above=None, at_least=None,
            below=None, at_most=None):
    """Raise ``error`` naming ``field``, with the range in words."""
    low = above if above is not None else at_least
    high = below if below is not None else at_most
    if low is not None and high is not None:
        part = (f"in {'(' if above is not None else '['}{low:g}, "
                f"{high:g}{')' if below is not None else ']'}")
    elif low is not None:
        part = f"{'>' if above is not None else '>='} {low:g}"
    elif high is not None:
        part = f"{'<' if below is not None else '<='} {high:g}"
    else:
        part = ""
    if integral:
        wanted = f"an integer {part}".rstrip()
    elif part in ("> 0", ">= 0"):
        wanted = ("positive" if above is not None else "non-negative") + " and finite"
    else:
        wanted = f"finite and {part}" if part else "finite"
    raise error(f"{field} must be {wanted}, got {value!r}", field)


def real(value, field: str, error=ReproInputError, *, above=None, at_least=None,
         below=None, at_most=None) -> float:
    """``value`` as a float, or ``error`` naming ``field``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if (
        isinstance(value, (bool, str))
        or not math.isfinite(number)
        or (above is not None and not number > above)
        or (at_least is not None and not number >= at_least)
        or (below is not None and not number < below)
        or (at_most is not None and not number <= at_most)
    ):
        _refuse(error, field, value, False, above, at_least, below, at_most)
    return number


def integer(value, field: str, error=ReproInputError, *, at_least=None,
            at_most=None) -> int:
    """``value`` as an int (``3`` or ``3.0``; not ``2.5`` or ``1e30``), or ``error``."""
    try:
        whole = int(value)
        valid = whole == value and abs(whole) < 2**63 and not isinstance(value, (bool, str))
    except (TypeError, ValueError, OverflowError):
        valid = False
    if (
        not valid
        or (at_least is not None and whole < at_least)
        or (at_most is not None and whole > at_most)
    ):
        _refuse(error, field, value, True, at_least=at_least, at_most=at_most)
    return whole


def real_array(values, field: str, error=ReproInputError, *, above=None,
               at_least=None, below=None, at_most=None) -> np.ndarray:
    """``values`` as a float ndarray, or ``error`` quoting the first bad element.

    Strings, ``None`` and booleans are refused, so a coordinate list
    from the wire cannot smuggle ``"25"`` or ``true`` in as a number.
    """
    try:
        raw = np.asarray(values)
    except ValueError:  # a ragged nested sequence
        raw = np.asarray(None)
    if raw.dtype.kind not in "iuf" or (
        isinstance(values, (list, tuple)) and any(isinstance(v, bool) for v in values)
    ):
        flat = values if raw.dtype.kind in "iuf" else raw.reshape(-1).tolist()
        bad = next((v for v in flat if isinstance(v, (bool, str)) or v is None), values)
        _refuse(error, field, bad, False, above, at_least, below, at_most)
    array = raw.astype(float, copy=False)
    ok = np.isfinite(array)
    for bound, inside in (
        (above, np.greater), (at_least, np.greater_equal),
        (below, np.less), (at_most, np.less_equal),
    ):
        if bound is not None:
            ok &= inside(array, bound)
    if not ok.all():
        bad = array[~ok].reshape(-1)[0].item()
        _refuse(error, field, bad, False, above, at_least, below, at_most)
    return array


def flag(check, field: str, **bounds):
    """An argparse ``type=``: ``check`` (:func:`integer` or :func:`real`)
    with the bounds of the argument ``field``, so a bad value is a usage
    error naming the flag (exit 2), not a traceback.
    """
    import argparse  # only command lines build flags

    def parse(text: str):
        try:
            number = int(text) if text.lstrip("+-").isdigit() else float(text)
            return check(number, field, **bounds)
        except ValueError as error:  # not a number, or the check refused it
            raise argparse.ArgumentTypeError(str(error)) from None

    return parse
