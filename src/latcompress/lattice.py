"""Rank-1 lattice rules and their worst-case integration error.

A rank-1 lattice rule is the node set

.. math:: z_\\ell = \\left(\\frac{\\ell g_1 \\bmod L}{L}, \\ldots,
          \\frac{\\ell g_d \\bmod L}{L}\\right), \\qquad \\ell = 0, \\ldots, L-1,

determined by a modulus ``L`` and a generating vector ``g``.  For the
weighted Korobov space with smoothness ``alpha`` and product weights
``gamma`` the squared worst-case error of the corresponding equal-weight
rule has the closed form

.. math:: e(Z) = -1 + \\frac{1}{L} \\sum_{\\ell=0}^{L-1}
          \\prod_{j=1}^{d} \\bigl(1 + \\gamma_j\\,
          \\varphi_\\alpha(\\{\\ell g_j / L\\})\\bigr),

where ``phi_alpha`` is the even periodic kernel
``phi_alpha(x) = sum_{h != 0} exp(2 pi i h x) / |h|^{2 alpha}``.  This
module evaluates that quantity exactly as displayed, constructs good
generating vectors component by component (plain quadratic scan and an
FFT-accelerated scan that returns bitwise-identical vectors), and exposes
the standard upper bound constant for the error decay.

Both read one cached table of ``phi_alpha(r / L)``: a Bernoulli
polynomial for integer ``alpha``, otherwise Hurwitz zeta values and one
length-L FFT.  The scalar :func:`phi_alpha` evaluates non-integer
``alpha`` with mpmath and is kept as the reference the table is tested
against; nothing on the CBC or worst-case-error path calls it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .special import (
    bernoulli_poly,
    hurwitz_zeta,
    is_prime,
    primitive_root,
    zeta,
)

__all__ = [
    "ProductWeights",
    "LatticeRule",
    "generate_points",
    "phi_alpha",
    "worst_case_error",
    "cbc_construct",
    "bound_constant_C",
]

_TWO_PI = 2.0 * math.pi

# Relative half-width of the score window re-checked exactly in the fast
# CBC scan.  FFT roundoff is around 1e-13 of the score scale, so 1e-9
# leaves orders of magnitude of slack while keeping the window tiny.
_CBC_WINDOW = 1e-9


@dataclass(frozen=True)
class ProductWeights:
    """Nonincreasing product weights ``1 >= gamma_1 >= ... >= gamma_d > 0``.

    Parameters
    ----------
    gamma : tuple of float
        One weight per coordinate.  An empty tuple is the valid weight
        sequence for dimension zero.

    Examples
    --------
    >>> ProductWeights.polynomial(2.0, 3).gamma
    (1.0, 0.25, 0.1111111111111111)
    """

    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", tuple(float(v) for v in self.gamma))
        prev = 1.0
        for j, v in enumerate(self.gamma):
            if not math.isfinite(v) or v <= 0.0 or v > 1.0:
                raise ValueError(
                    f"weight gamma_{j + 1} = {v!r} outside (0, 1]"
                )
            if v > prev:
                raise ValueError(
                    f"weights must be nonincreasing, gamma_{j + 1} = {v!r} "
                    f"exceeds gamma_{j} = {prev!r}"
                )
            prev = v

    @property
    def d(self) -> int:
        return len(self.gamma)

    def __len__(self) -> int:
        return len(self.gamma)

    def __iter__(self):
        return iter(self.gamma)

    def __getitem__(self, j: int) -> float:
        return self.gamma[j]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.gamma, dtype=np.float64)

    @classmethod
    def ones(cls, d: int) -> "ProductWeights":
        """Unit weights ``gamma_j = 1``."""
        return cls((1.0,) * int(d))

    @classmethod
    def geometric(cls, ratio: float, d: int) -> "ProductWeights":
        """Geometric decay ``gamma_j = ratio^j`` for ``j = 1, ..., d``."""
        ratio = float(ratio)
        return cls(tuple(ratio ** j for j in range(1, int(d) + 1)))

    @classmethod
    def polynomial(cls, power: float, d: int) -> "ProductWeights":
        """Polynomial decay ``gamma_j = j^{-power}``."""
        power = float(power)
        return cls(tuple(float(j) ** (-power) for j in range(1, int(d) + 1)))

    def truncated(self, d: int) -> "ProductWeights":
        """First ``d`` weights as a new sequence."""
        if d > len(self.gamma):
            raise ValueError(
                f"cannot truncate {len(self.gamma)} weights to length {d}"
            )
        return ProductWeights(self.gamma[: int(d)])


@dataclass(frozen=True)
class LatticeRule:
    """A rank-1 lattice rule ``(L, g)``.

    Parameters
    ----------
    L : int
        Number of points, at least 1.
    g : tuple of int
        Generating vector with entries in ``{1, ..., L - 1}`` when
        ``L >= 2``.  For the single-point rule ``L = 1`` every generating
        vector yields the origin, so any integer entries are accepted.

    Examples
    --------
    >>> LatticeRule(5, (1, 2)).d
    2
    """

    L: int
    g: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", int(self.L))
        object.__setattr__(self, "g", tuple(int(v) for v in self.g))
        if self.L < 1:
            raise ValueError(f"lattice size must be positive, got {self.L}")
        if len(self.g) == 0:
            raise ValueError("generating vector must have at least one entry")
        if self.L >= 2:
            for j, v in enumerate(self.g):
                if not 1 <= v <= self.L - 1:
                    raise ValueError(
                        f"generator entry g_{j + 1} = {v} outside "
                        f"[1, {self.L - 1}]"
                    )

    @property
    def d(self) -> int:
        return len(self.g)

    def to_json(self) -> dict:
        return {"L": self.L, "g": list(self.g)}

    @classmethod
    def from_json(cls, obj: dict) -> "LatticeRule":
        return cls(int(obj["L"]), tuple(int(v) for v in obj["g"]))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "LatticeRule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def generate_points(rule: LatticeRule) -> np.ndarray:
    """All node coordinates of a lattice rule.

    Parameters
    ----------
    rule : LatticeRule
        Rule to expand.

    Returns
    -------
    ndarray of shape (L, d)
        Row ``ell`` holds ``(ell * g mod L) / L``; every entry lies in
        ``[0, 1)`` and row zero is the origin.

    Examples
    --------
    >>> generate_points(LatticeRule(5, (1, 2)))[1]
    array([0.2, 0.4])
    """
    ell = np.arange(rule.L, dtype=np.int64)
    idx = np.outer(ell, np.asarray(rule.g, dtype=np.int64)) % rule.L
    return idx.astype(np.float64) / float(rule.L)


def _integer_order(alpha: float) -> int | None:
    r = round(alpha)
    if r >= 1 and abs(alpha - r) <= 1e-12:
        return int(r)
    return None


def phi_alpha(alpha: float, x: float) -> float:
    """Periodic kernel ``sum_{h != 0} exp(2 pi i h x) / |h|^{2 alpha}``.

    For integer ``alpha`` the sum collapses to a Bernoulli polynomial,

    .. math:: \\varphi_\\alpha(x) = \\frac{(-1)^{\\alpha + 1}
              (2\\pi)^{2\\alpha}}{(2\\alpha)!}\\, B_{2\\alpha}(\\{x\\}),

    which is evaluated directly.  For non-integer ``alpha`` the sum is a
    Clausen-type cosine series evaluated in high precision with mpmath
    and rounded once to float; this is the reference for the table that
    the lattice functions read (:func:`_phi_table`).

    Parameters
    ----------
    alpha : float
        Smoothness parameter, strictly greater than 1/2 (the series does
        not converge absolutely otherwise).
    x : float
        Evaluation point; only its fractional part matters.

    Returns
    -------
    float
        Kernel value; even about 1/2 and maximal at integer ``x``.

    Examples
    --------
    >>> abs(phi_alpha(1.0, 0.0) - math.pi ** 2 / 3) < 1e-14
    True
    >>> abs(phi_alpha(1.0, 0.5) + math.pi ** 2 / 6) < 1e-14
    True
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.5:
        raise ValueError(f"kernel requires alpha > 1/2, got {alpha!r}")
    xm = float(x) % 1.0
    n = _integer_order(alpha)
    if n is not None:
        sign = -1.0 if n % 2 == 0 else 1.0
        scale = sign * _TWO_PI ** (2 * n) / math.factorial(2 * n)
        return scale * bernoulli_poly(2 * n, xm)
    import mpmath

    return 2.0 * float(mpmath.clcos(2.0 * alpha, 2.0 * xm, pi=True))


@lru_cache(maxsize=64)
def _phi_table(alpha: float, L: int) -> np.ndarray:
    """Kernel values ``phi_alpha(r / L)`` for ``r = 0, ..., L - 1``.

    For integer ``alpha`` the Bernoulli polynomial of :func:`phi_alpha`
    is evaluated at every ``r / L``.  Otherwise the frequencies ``h`` are
    grouped by their residue ``s = h mod L``; each group sums to a pair
    of Hurwitz zeta values,

    .. math:: c_0 = 2 L^{-2\\alpha} \\zeta(2\\alpha), \\qquad
              c_s = L^{-2\\alpha} \\bigl[\\zeta(2\\alpha, s/L)
              + \\zeta(2\\alpha, 1 - s/L)\\bigr],

    and the table is the real part of one length-L FFT of ``c``, at a cost
    of ``O(L log L)`` with no call into mpmath (Nuyens and Cools, Math.
    Comp. 2006).  For ``alpha`` from 0.51 to 2.6 and ``L`` up to 1021 it
    agrees with the scalar reference to within ``2e-15 phi_alpha(0)``.

    Stored symmetrically: the value at ``r`` is computed once for
    ``min(r, L - r)`` and mirrored, so ``tbl[r]`` and ``tbl[L - r]`` are
    the same float.  The worst-case error and both CBC scans share this
    table, which keeps their arithmetic bitwise consistent.
    """
    half = L // 2
    vals = np.empty(L, dtype=np.float64)
    n = _integer_order(alpha)
    if n is not None:
        sign = -1.0 if n % 2 == 0 else 1.0
        scale = sign * _TWO_PI ** (2 * n) / math.factorial(2 * n)
        xs = np.arange(half + 1, dtype=np.float64) / float(L)
        vals[: half + 1] = scale * bernoulli_poly(2 * n, xs)
    else:
        s = 2.0 * alpha
        hz = hurwitz_zeta(s, np.arange(1, L, dtype=np.float64) / float(L))
        c = np.empty(L, dtype=np.float64)
        c[0] = 2.0 * zeta(s)
        c[1:] = hz + hz[::-1]
        c *= float(L) ** (-s)
        vals[: half + 1] = np.fft.fft(c).real[: half + 1]
    vals[half + 1:] = vals[L - half - 1:0:-1]
    vals.flags.writeable = False
    return vals


def _check_space(alpha: float, gamma: ProductWeights, d: int) -> None:
    if not math.isfinite(alpha) or alpha <= 0.5:
        raise ValueError(f"smoothness must exceed 1/2, got {alpha!r}")
    if gamma.d != d:
        raise ValueError(
            f"{gamma.d} weights supplied for dimension {d}"
        )


def worst_case_error(
    rule: LatticeRule, alpha: float, gamma: ProductWeights
) -> float:
    """Closed-form worst-case error of ``rule`` in the weighted space.

    Parameters
    ----------
    rule : LatticeRule
        Rule whose nodes are tested.
    alpha : float
        Smoothness parameter, greater than 1/2.
    gamma : ProductWeights
        Product weights; length must match ``rule.d``.

    Returns
    -------
    float
        ``-1 + (1/L) sum_ell prod_j (1 + gamma_j phi_alpha(ell g_j / L))``.

    Examples
    --------
    >>> rule = LatticeRule(2, (1,))
    >>> abs(worst_case_error(rule, 1.0, ProductWeights.ones(1))
    ...     - math.pi ** 2 / 12) < 1e-13
    True
    """
    alpha = float(alpha)
    _check_space(alpha, gamma, rule.d)
    tbl = _phi_table(alpha, rule.L)
    idx = np.outer(
        np.arange(rule.L, dtype=np.int64), np.asarray(rule.g, dtype=np.int64)
    ) % rule.L
    factors = 1.0 + gamma.as_array()[None, :] * tbl[idx]
    return float(factors.prod(axis=1).mean() - 1.0)


def bound_constant_C(alpha: float, tau: float, gamma: ProductWeights) -> float:
    """Constant in the worst-case error bound ``C * L^(tau - alpha)``.

    .. math:: C_{\\gamma,d}(\\alpha, \\tau) = 2^{\\alpha-\\tau} \\prod_{j=1}^d
              \\Bigl(1 + 2 \\gamma_j^{1/(2(\\alpha-\\tau))}\\,
              \\zeta\\bigl(\\tfrac{\\alpha}{\\alpha-\\tau}\\bigr)
              \\Bigr)^{\\alpha-\\tau}

    Parameters
    ----------
    alpha : float
        Smoothness parameter, greater than 1/2.
    tau : float
        Rate slack in ``(0, alpha - 1/2]``.
    gamma : ProductWeights
        Product weights; an empty sequence gives the dimension-zero value
        ``2 ** (alpha - tau)``.
    """
    alpha = float(alpha)
    tau = float(tau)
    if not math.isfinite(alpha) or alpha <= 0.5:
        raise ValueError(f"smoothness must exceed 1/2, got {alpha!r}")
    if not 0.0 < tau <= alpha - 0.5 + 1e-12:
        raise ValueError(
            f"tau = {tau!r} outside (0, alpha - 1/2] for alpha = {alpha!r}"
        )
    a = alpha - tau
    z = zeta(alpha / a)
    out = 2.0 ** a
    for gj in gamma:
        out *= (1.0 + 2.0 * gj ** (1.0 / (2.0 * a)) * z) ** a
    return out


def _candidate_score(p: np.ndarray, tbl: np.ndarray, z: int, L: int) -> float:
    """Exact CBC score ``sum_ell p_ell * tbl[(ell z) mod L]``.

    Both the plain and the FFT-accelerated scans settle every selection
    with this dot product, which is what makes their outputs bitwise
    identical.
    """
    idx = (np.arange(L, dtype=np.int64) * z) % L
    return float(np.dot(p, tbl[idx]))


def _scan_standard(p: np.ndarray, tbl: np.ndarray, L: int) -> int:
    best_z = 1
    best = _candidate_score(p, tbl, 1, L)
    for z in range(2, L):
        s = _candidate_score(p, tbl, z, L)
        if s < best:
            best = s
            best_z = z
    return best_z


def _root_powers(L: int) -> np.ndarray:
    """``rho^c mod L`` for c = 0, ..., L - 2, with rho the primitive root
    of the prime L: every nonzero residue once.  Built by doubling, each
    step the known powers times ``rho^m`` for the m already made; the
    products stay below ``L^2``, exact in int64 while ``L^2 < 2^63``."""
    n = L - 1
    pows = np.empty(n, dtype=np.int64)
    pows[0] = 1
    step, m = primitive_root(L), 1
    while m < n:
        k = min(m, n - m)
        pows[m:m + k] = pows[:k] * step % L
        step, m = step * step % L, m + k
    return pows


class _RootOrder(NamedTuple):
    """What the fast scan reads from L and the kernel table alone, made
    once per construction: the primitive root's powers ``pows``, the
    gather ``back`` of the scores' multipliers ``p`` in the convolution's
    order (``pows`` at ``-c mod (L - 1)``) and the real FFT ``psi_hat``
    of ``psi = tbl[pows]``."""

    pows: np.ndarray
    back: np.ndarray
    psi_hat: np.ndarray


def _root_order(tbl: np.ndarray, L: int) -> _RootOrder:
    pows = _root_powers(L)
    n = L - 1
    return _RootOrder(
        pows, pows[(-np.arange(n)) % n], np.fft.rfft(tbl[pows])
    )


def _scan_fast(
    p: np.ndarray, tbl: np.ndarray, L: int, order: _RootOrder
) -> int:
    # Reorder the score map by powers of a primitive root; the scores then
    # form a circular convolution of length L - 1 of two real sequences,
    # evaluated with one real FFT each way (Nuyens & Cools, Math. Comp.
    # 75, 2006).
    conv = np.fft.irfft(np.fft.rfft(p[order.back]) * order.psi_hat, L - 1)
    approx = p[0] * tbl[0] + conv
    scale = float(np.sum(np.abs(p)) * np.max(np.abs(tbl)))
    window = _CBC_WINDOW * (1.0 + scale)
    cutoff = float(approx.min()) + window
    candidates = np.sort(order.pows[approx <= cutoff])
    best_z = int(candidates[0])
    best = _candidate_score(p, tbl, best_z, L)
    for z in candidates[1:]:
        s = _candidate_score(p, tbl, int(z), L)
        if s < best:
            best = s
            best_z = int(z)
    return best_z


def cbc_construct(
    L: int,
    d: int,
    alpha: float,
    gamma: ProductWeights,
    fast: bool = True,
) -> LatticeRule:
    """Component-by-component construction of a generating vector.

    The first component is fixed to 1.  Each further component is chosen
    from ``{1, ..., L - 1}`` to minimise the closed-form worst-case error
    with all earlier components held fixed, as scored in floating point
    from the kernel table.  Of candidates with bitwise-equal scores the
    smallest wins, but exact ties are not settled by size: at the second
    component ``z``, ``-z``, ``z^-1`` and ``-z^-1`` (mod L) score the same
    in exact arithmetic, and rounding picks among them.  The twins give
    the same lattice up to a swap or a sign of coordinates, so the same
    worst-case error; at ``L = 509``, ``alpha = 0.62`` they include
    ``(1, 209)`` and ``(1, 151)``, since ``209 * 151 = 1 (mod 509)``.  The
    plain scan costs ``O(L^2)`` per component.  The fast scan reorders
    the residues by the powers of a primitive root, made once per
    construction with the real FFT of the reordered kernel table, and
    then costs ``O(L log L)`` per component: one real FFT each way.  Both
    return the same vector bit for bit: the FFT pass only shortlists
    candidates inside a tiny score window, and everything in the window
    is re-scored, smallest first, with the exact dot product the plain
    scan uses.

    Parameters
    ----------
    L : int
        Prime number of points, at least 2.
    d : int
        Number of components to construct, at least 1.
    alpha : float
        Smoothness parameter of the target space, greater than 1/2.
    gamma : ProductWeights
        Product weights; length must match ``d``.
    fast : bool
        Select the FFT-accelerated scan (default) or the plain scan.

    Returns
    -------
    LatticeRule
        Constructed rule; ``d = 1`` always yields the generator ``(1,)``.
    """
    L = int(L)
    d = int(d)
    alpha = float(alpha)
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    if L < 2:
        raise ValueError(f"construction needs L >= 2, got {L}")
    if not is_prime(L):
        raise ValueError(f"construction requires a prime modulus, got {L}")
    _check_space(alpha, gamma, d)
    tbl = _phi_table(alpha, L)
    ell = np.arange(L, dtype=np.int64)
    g = [1]
    p = 1.0 + gamma[0] * tbl
    order = _root_order(tbl, L) if fast and d > 1 else None
    for j in range(1, d):
        if fast:
            z = _scan_fast(p, tbl, L, order)
        else:
            z = _scan_standard(p, tbl, L)
        g.append(z)
        p = p * (1.0 + gamma[j] * tbl[(ell * z) % L])
    return LatticeRule(L, tuple(g))
