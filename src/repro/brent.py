"""Brent's bracketing root-finder, a line-for-line port of scipy's ``brentq``.

The neighbourhood resimulator samples the first merge of a 3 → 1 interval
by inverting a closed-form CDF, and generic demographies invert Λ(t) the
same way.  Both need nothing but a bracketing root-finder, so this module
carries one instead of importing :mod:`scipy.optimize`, which alone costs a
process about as much start-up time and memory as everything else a run
imports.

The iteration is scipy's C ``brentq`` (Brent 1973, as in
``scipy/optimize/Zeros/brentq.c``) statement for statement, with the same
defaults and argument checks, so every root is bit-identical to
``scipy.optimize.brentq``; ``tests/test_brent.py`` holds scipy as the oracle.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

__all__ = ["brentq"]

_XTOL = 2e-12
_RTOL = 4 * 2.220446049250313e-16  # 4 · float64 machine epsilon
_MAXITER = 100


def _value(f: Callable[[float], float], x: float) -> float:
    """``f(x)`` as a float; a NaN raises, as in scipy's wrapper."""
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = _XTOL,
    rtol: float = _RTOL,
    maxiter: int = _MAXITER,
) -> float:
    """A root of ``f`` in the sign-changing bracket ``[a, b]``.

    Converges once the bracket half-width falls below
    ``(xtol + rtol·|x|) / 2``.  Raises :class:`ValueError` for ``xtol <= 0``,
    ``rtol < 4·eps``, ``maxiter < 0``, a NaN function value, or ``f(a)`` and
    ``f(b)`` of the same sign bit; :class:`RuntimeError` when ``maxiter``
    iterations do not converge.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(maxiter):
        # Once both are non-zero (and no value is NaN), ``< 0`` is the sign bit.
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # Flat function values make den 0.  C's x/0 is then ±inf or
                # NaN, which fails the short-step test below: the step bisects.
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            # C's MIN(a, b) is ``a < b ? a : b``; spelled out so NaNs pick as in C.
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
