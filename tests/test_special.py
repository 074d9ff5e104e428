"""Number-theory helpers: zeta, Hurwitz zeta, Bernoulli data, primes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcompress.special import (
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_coefficients,
    hurwitz_zeta,
    is_prime,
    prime_factors,
    primitive_root,
    zeta,
)

# Frozen reference values, mpmath.zeta at 30 digits.
ZETA_REFERENCE = (
    (1.001, 1000.5772884760116),
    (1.06, 17.248233766955963),
    (1.12, 8.91921655749934),
    (1.24, 4.761074636126193),
    (1.5, 2.612375348685488),
    (2.0, 1.6449340668482264),
    (2.48, 1.3493520909884928),
    (3.0, 1.2020569031595942),
    (4.0, 1.0823232337111381),
    (6.5, 1.0120058998885249),
    (10.0, 1.000994575127818),
    (25.0, 1.0000000298035034),
)


@pytest.mark.parametrize("s, expected", ZETA_REFERENCE)
def test_zeta_matches_reference(s: float, expected: float) -> None:
    assert zeta(s) == pytest.approx(expected, rel=1e-13)


def test_zeta_closed_forms() -> None:
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-14)
    assert zeta(6.0) == pytest.approx(math.pi**6 / 945, rel=1e-14)


def test_zeta_domain() -> None:
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)


@given(st.floats(min_value=1.01, max_value=40.0))
@settings(max_examples=60, deadline=None)
def test_zeta_vs_partial_sums(s: float) -> None:
    # The tail after n terms is sandwiched by integral bounds, so any
    # partial sum plus those bounds brackets the true value.
    n = 400
    partial = float(np.sum(np.arange(1, n + 1, dtype=float) ** (-s)))
    lo = partial + (n + 1) ** (1 - s) / (s - 1)
    hi = partial + n ** (1 - s) / (s - 1)
    assert lo - 1e-12 <= zeta(s) <= hi + 1e-12


# Frozen reference values, mpmath.zeta(s, a) at 30 digits: shifts near
# 0, arguments near 1, and the table's shifts r / L.
HURWITZ_REFERENCE = (
    (1.001, 0.5, 1001.9648639703559),
    (1.02, 0.001, 1198.7306336665274),
    (1.02, 0.999, 50.58033038104016),
    (1.04, 0.25, 29.45443566628444),
    (1.24, 1e-06, 27542291.79445448),
    (1.24, 1 / 509, 2276.348042462533),
    (1.5, 1.0, 2.612375348685488),
    (2.0, 0.1, 101.43329915079275),
    (2.62, 0.5, 6.685988329364712),
    (3.0, 1 / 3, 27.56106119970081),
    (5.2, 0.75, 4.524785687917135),
    (12.0, 0.9, 3.5411608854531016),
)


@pytest.mark.parametrize("s, a, expected", HURWITZ_REFERENCE)
def test_hurwitz_matches_reference(s: float, a: float, expected: float) -> None:
    assert hurwitz_zeta(s, a) == pytest.approx(expected, rel=1e-14)


def test_hurwitz_vectorised() -> None:
    # One array call gives the scalar values; a = 1 is Riemann zeta and
    # the shift recurrence zeta(s, a) = a^-s + zeta(s, a + 1) holds.
    s = 1.24
    a = np.array([1e-3, 0.2, 0.5, 1.0])
    vals = hurwitz_zeta(s, a)
    assert isinstance(vals, np.ndarray) and vals.shape == a.shape
    for ai, v in zip(a, vals):
        assert v == hurwitz_zeta(s, float(ai))
    assert vals[3] == pytest.approx(zeta(s), rel=1e-15)
    np.testing.assert_allclose(
        vals, a ** -s + hurwitz_zeta(s, a + 1.0), rtol=1e-14
    )


def test_hurwitz_domain() -> None:
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, np.array([0.5, 0.0]))


BERNOULLI_EXACT = (
    (0, Fraction(1)),
    (1, Fraction(-1, 2)),
    (2, Fraction(1, 6)),
    (3, Fraction(0)),
    (4, Fraction(-1, 30)),
    (6, Fraction(1, 42)),
    (8, Fraction(-1, 30)),
    (10, Fraction(5, 66)),
    (12, Fraction(-691, 2730)),
    (14, Fraction(7, 6)),
    (16, Fraction(-3617, 510)),
)


@pytest.mark.parametrize("n, expected", BERNOULLI_EXACT)
def test_bernoulli_numbers(n: int, expected: Fraction) -> None:
    assert bernoulli_number(n) == expected


def test_bernoulli_poly_constant_term() -> None:
    # B_n(0) is the nth Bernoulli number.
    for n in range(2, 14, 2):
        coeffs = bernoulli_poly_coefficients(n)
        assert coeffs[0] == bernoulli_number(n)


# Ascending coefficients (constant term first) of the even-degree
# Bernoulli polynomials the periodic kernel uses most, as tabulated.
_KNOWN_POLY = {
    2: (Fraction(1, 6), Fraction(-1), Fraction(1)),
    4: (Fraction(-1, 30), Fraction(0), Fraction(1), Fraction(-2), Fraction(1)),
    6: (
        Fraction(1, 42), Fraction(0), Fraction(-1, 2), Fraction(0),
        Fraction(5, 2), Fraction(-3), Fraction(1),
    ),
    8: (
        Fraction(-1, 30), Fraction(0), Fraction(2, 3), Fraction(0),
        Fraction(-7, 3), Fraction(0), Fraction(14, 3), Fraction(-4),
        Fraction(1),
    ),
}


def test_bernoulli_poly_hardcoded_matches_recurrence() -> None:
    # The binomial expansion must reproduce the tabulated coefficients
    # exactly, so the float kernels built on them cannot move.
    for n, expected in _KNOWN_POLY.items():
        assert bernoulli_poly_coefficients(n) == expected


def test_bernoulli_poly_values() -> None:
    # B_2(x) = x^2 - x + 1/6
    assert bernoulli_poly(2, 0.0) == pytest.approx(1 / 6, abs=1e-15)
    assert bernoulli_poly(2, 0.5) == pytest.approx(-1 / 12, abs=1e-15)
    assert bernoulli_poly(2, 1.0) == pytest.approx(1 / 6, abs=1e-15)
    # B_4(1/2) = 7/240
    assert bernoulli_poly(4, 0.5) == pytest.approx(7 / 240, rel=1e-14)


def test_bernoulli_poly_vectorized() -> None:
    x = np.linspace(0.0, 1.0, 11)
    vals = bernoulli_poly(2, x)
    assert isinstance(vals, np.ndarray)
    assert vals.shape == x.shape
    assert vals[0] == pytest.approx(vals[-1], abs=1e-15)


@given(st.integers(min_value=2, max_value=20), st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_bernoulli_poly_symmetry(n: int, x: float) -> None:
    # B_n(1-x) = (-1)^n B_n(x)
    left = bernoulli_poly(n, 1.0 - x)
    right = (-1.0) ** n * bernoulli_poly(n, x)
    assert left == pytest.approx(right, abs=1e-10 * (1 + abs(right)))


def test_is_prime_small() -> None:
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 61, 127, 251, 509}
    for n in range(2, 512):
        assert is_prime(n) == (n in primes or _trial_division(n))
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(math.isqrt(n)) + 1))


def test_prime_factors() -> None:
    assert prime_factors(2) == [2]
    assert prime_factors(12) == [2, 3]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(509) == [509]
    with pytest.raises(ValueError):
        prime_factors(1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31, 61, 127, 251, 509])
def test_primitive_root(p: int) -> None:
    g = primitive_root(p)
    powers = set()
    acc = 1
    for _ in range(p - 1):
        powers.add(acc)
        acc = acc * g % p
    assert powers == set(range(1, p))
