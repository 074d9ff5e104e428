"""Scalar special functions shared across the package.

This module provides the handful of classical quantities the lattice and
analysis layers need: the Riemann zeta function on the real axis right of
the pole and the Hurwitz zeta function vectorised over its shift,
Bernoulli numbers and polynomials in exact rational arithmetic, and small
helpers from elementary number theory (trial-division primality,
primitive roots modulo a prime).

Everything here is deterministic and depends only on the Python standard
library plus NumPy for vectorised polynomial evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "zeta",
    "hurwitz_zeta",
    "bernoulli_number",
    "bernoulli_poly_coefficients",
    "bernoulli_poly",
    "is_prime",
    "prime_factors",
    "primitive_root",
]

# Bernoulli numbers B_2, B_4, ..., B_16 used by the Euler-Maclaurin tail.
_EM_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)

_EM_CUTOFF = 24


def zeta(s: float) -> float:
    """Riemann zeta function for real ``s > 1``.

    Uses an Euler-Maclaurin expansion: the first ``N - 1`` terms of the
    Dirichlet series are summed directly and the tail is replaced by

    .. math::

        \\frac{N^{1-s}}{s-1} + \\frac{N^{-s}}{2}
        + \\sum_{k \\ge 1} \\frac{B_{2k}}{(2k)!}\\,
          s (s+1) \\cdots (s+2k-2)\\, N^{-s-2k+1}

    truncated after ``B_16``.  With ``N = 24`` the truncation error is far
    below double-precision roundoff for every ``s > 1``.

    Parameters
    ----------
    s : float
        Argument, strictly greater than 1.

    Returns
    -------
    float
        ``zeta(s)`` accurate to close to machine precision (relative
        error around 1e-15 away from the pole).

    Examples
    --------
    >>> import math
    >>> abs(zeta(2.0) - math.pi ** 2 / 6) < 1e-14
    True
    """
    s = float(s)
    if not math.isfinite(s) or s <= 1.0:
        raise ValueError(f"zeta requires s > 1, got {s!r}")
    n = _EM_CUTOFF
    total = 0.0
    for i in range(1, n):
        total += float(i) ** (-s)
    total += float(n) ** (1.0 - s) / (s - 1.0)
    total += 0.5 * float(n) ** (-s)
    for k, b in enumerate(_EM_BERNOULLI, start=1):
        rising = 1.0
        for i in range(2 * k - 1):
            rising *= s + i
        tail = float(n) ** (-s - 2.0 * k + 1.0)
        if tail == 0.0:
            break
        total += (float(b) / math.factorial(2 * k)) * rising * tail
    return total


def hurwitz_zeta(s: float, a):
    """Hurwitz zeta function ``sum_{i >= 0} (a + i)^(-s)`` for real ``s > 1``.

    The Euler-Maclaurin expansion of :func:`zeta`, shifted by ``a``: the
    first ``N`` terms are summed directly and the tail starts at
    ``x = a + N``,

    .. math::

        \\frac{x^{1-s}}{s-1} + \\frac{x^{-s}}{2}
        + \\sum_{k \\ge 1} \\frac{B_{2k}}{(2k)!}\\,
          s (s+1) \\cdots (s+2k-2)\\, x^{-s-2k+1},

    with the same cutoff ``N = 24`` and the same Bernoulli numbers up to
    ``B_16``.  Since ``x >= 24`` for every ``a > 0``, the truncation error
    is as far below roundoff as it is for ``zeta``.  The sum runs from
    the tail to the largest term, one array pass per term.

    Parameters
    ----------
    s : float
        Argument, strictly greater than 1.
    a : float or ndarray
        Shift(s), each strictly positive.

    Returns
    -------
    float or ndarray
        ``zeta(s, a)`` with relative error near 1e-15, shaped like ``a``.

    Examples
    --------
    >>> abs(hurwitz_zeta(2.0, 1.0) - zeta(2.0)) < 1e-15
    True
    """
    s = float(s)
    if not math.isfinite(s) or s <= 1.0:
        raise ValueError(f"hurwitz_zeta requires s > 1, got {s!r}")
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(arr > 0.0):
        raise ValueError("hurwitz_zeta requires every shift a > 0")
    n = _EM_CUTOFF
    x = arr + float(n)
    power = x ** (-s)
    total = x * power / (s - 1.0) + 0.5 * power
    term = power / x  # x^(-s-2k+1) at k = 1, then times x^-2 per k
    step = 1.0 / (x * x)
    rising = s
    for k, b in enumerate(_EM_BERNOULLI, start=1):
        total += (float(b) / math.factorial(2 * k)) * rising * term
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        term = term * step
    for i in range(n - 1, -1, -1):
        total += (arr + float(i)) ** (-s)
    if np.isscalar(a) or (isinstance(a, np.ndarray) and a.ndim == 0):
        return float(total)
    return total


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number ``B_n`` as an exact :class:`~fractions.Fraction`.

    The convention ``B_1 = -1/2`` is used, matching the expansion of the
    Bernoulli polynomials below.  Computed from the defining recurrence

    .. math:: \\sum_{j=0}^{m} \\binom{m+1}{j} B_j = 0 \\quad (m \\ge 1)

    with memoisation, so repeated calls are cheap.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"Bernoulli index must be nonnegative, got {n}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def bernoulli_poly_coefficients(n: int) -> tuple[Fraction, ...]:
    """Exact ascending coefficients of the Bernoulli polynomial ``B_n(x)``.

    Built from the binomial expansion ``B_n(x) = sum_k C(n, k) B_{n-k} x^k``
    on :func:`bernoulli_number`.

    Returns
    -------
    tuple of Fraction
        Coefficients ``(c_0, c_1, ..., c_n)`` with ``B_n(x) = sum c_k x^k``.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {n}")
    return tuple(
        math.comb(n, k) * bernoulli_number(n - k) for k in range(n + 1)
    )


@lru_cache(maxsize=None)
def _poly_descending_float(n: int) -> tuple[float, ...]:
    coeffs = bernoulli_poly_coefficients(n)
    return tuple(float(c) for c in reversed(coeffs))


def bernoulli_poly(n: int, x):
    """Evaluate the Bernoulli polynomial ``B_n`` at ``x``.

    Parameters
    ----------
    n : int
        Degree of the polynomial.
    x : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray
        ``B_n(x)`` evaluated in double precision (Horner's scheme on the
        exact coefficients rounded once to float).

    Examples
    --------
    >>> bernoulli_poly(2, 0.0)
    0.16666666666666666
    """
    coeffs = np.asarray(_poly_descending_float(int(n)))
    arr = np.asarray(x, dtype=np.float64)
    out = np.polyval(coeffs, arr)
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(out)
    return out


def is_prime(n: int) -> bool:
    """Trial-division primality test, exact for any machine integer."""
    n = int(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n >= 2`` in increasing order."""
    n = int(n)
    if n < 2:
        raise ValueError(f"prime_factors requires n >= 2, got {n}")
    out: list[int] = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest primitive root modulo a prime ``p``.

    A generator of the multiplicative group ``(Z/pZ)^*``; candidates are
    tested by checking ``g^((p-1)/q) != 1 (mod p)`` for every prime factor
    ``q`` of ``p - 1``.
    """
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"primitive_root requires a prime modulus, got {p}")
    if p == 2:
        return 1
    order = p - 1
    factors = prime_factors(order)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise RuntimeError(f"no primitive root found modulo {p}")
