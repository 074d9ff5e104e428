"""Output checks computed apart from the program, with plain numpy.

Every function here works from the mathematical definitions: it
enumerates frequency sets from their defining inequalities, sums
exponentials directly and evaluates losses term by term.  None of it
calls into latcompress, so a fault in the program cannot hide by
appearing on both sides of a comparison.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import SET_SLACK

REL_TOL = 1e-9

_BLOCK = 1 << 21  # entries per phase block


class Checker:
    """Counts checked operations and the ones whose output missed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(f"{name}: {detail}")

    def record_each(self, name: str, oks: np.ndarray) -> None:
        """One operation per entry of a boolean array."""
        oks = np.asarray(oks, dtype=bool)
        self.attempted += oks.size
        bad = int(oks.size - np.count_nonzero(oks))
        if bad:
            self.failed += bad
            self.misses.append(f"{name}: {bad} of {oks.size} missed")


def _levels(factor: np.ndarray) -> np.ndarray:
    """Smallest t >= 0 with factor <= 2^t, under the set slack."""
    t = np.maximum(np.ceil(np.log2(factor / SET_SLACK)), 0.0)
    t += factor > 2.0 ** t * SET_SLACK
    lower = np.maximum(t - 1.0, 0.0)
    t = np.where((t > 0) & (factor <= 2.0 ** lower * SET_SLACK), lower, t)
    return t.astype(np.int64)


def enumerate_set(family: str, alpha: float, gamma, param) -> np.ndarray:
    """Rows of a cross or step cross, straight from the definition.

    cross: prod_j max(|k_j|^(2 alpha) / gamma_j, 1) <= nu;
    step cross: sum_j t_j(k_j) <= m, with t_j the smallest dyadic level
    2^t holding the coordinate's profile.  Built one coordinate at a
    time, keeping only prefixes that still fit the budget.
    """
    two_alpha = 2.0 * alpha
    rows = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1) if family == "step-cross" else np.ones(1)
    budget = 2.0 ** param if family == "step-cross" else float(param)
    for gj in gamma:
        reach = int(math.floor((gj * budget * SET_SLACK) ** (1.0 / two_alpha))) + 1
        ks = np.arange(-reach, reach + 1)
        factor = np.maximum(np.abs(ks).astype(np.float64) ** two_alpha / gj, 1.0)
        if family == "step-cross":
            grown = used[:, None] + _levels(factor)[None, :]
            keep = grown <= param
        else:
            grown = used[:, None] * factor[None, :]
            keep = grown <= budget * SET_SLACK
        pi, ki = np.nonzero(keep)
        rows = np.concatenate([rows[pi], ks[ki, None]], axis=1)
        used = grown[pi, ki]
    return rows


def nodes(L: int, g) -> np.ndarray:
    """Lattice nodes (ell * g mod L) / L."""
    ell = np.arange(L, dtype=np.int64)[:, None]
    return (ell * np.asarray(g, dtype=np.int64)[None, :] % L) / float(L)


def fourier_data(X: np.ndarray, coef: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """(1/N) sum_n c_n exp(2 pi i k . x_n) for each row k, by direct sums.

    ``coef`` is (N, p); the result is (M, p).
    """
    ft = freq.T.astype(np.float64)
    out = np.zeros((freq.shape[0], coef.shape[1]), dtype=np.complex128)
    step = max(1, _BLOCK // max(1, freq.shape[0]))
    for s in range(0, X.shape[0], step):
        out += np.exp(2j * np.pi * (X[s:s + step] @ ft)).T @ coef[s:s + step]
    return out / X.shape[0]


def model_values(freq: np.ndarray, thetas: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_k theta_k exp(2 pi i k . x) at every point, for each model.

    ``thetas`` is (S, M); the result is (P, S).  A two-dimensional
    support that fills its bounding grid is summed as two matrix
    products, one coordinate at a time; anything else term by term.
    """
    u0, i0 = np.unique(freq[:, 0], return_inverse=True)
    if freq.shape[1] == 2:
        u1, i1 = np.unique(freq[:, 1], return_inverse=True)
        if len(u0) * len(u1) == len(freq):
            e0 = np.exp(2j * np.pi * np.outer(pts[:, 0], u0))
            e1 = np.exp(2j * np.pi * np.outer(pts[:, 1], u1))
            out = np.empty((pts.shape[0], thetas.shape[0]), dtype=np.complex128)
            for s, theta in enumerate(thetas):
                grid = np.zeros((len(u0), len(u1)), dtype=np.complex128)
                grid[i0, i1] = theta
                out[:, s] = np.sum((e0 @ grid) * e1, axis=1)
            return out
    ft = freq.T.astype(np.float64)
    out = np.empty((pts.shape[0], thetas.shape[0]), dtype=np.complex128)
    step = max(1, _BLOCK // max(1, freq.shape[0]))
    for s in range(0, pts.shape[0], step):
        out[s:s + step] = np.exp(2j * np.pi * (pts[s:s + step] @ ft)) @ thetas.T
    return out


def penalty(theta: np.ndarray, reg: str, mix) -> float:
    """Regulariser value from its definition."""
    l1 = float(np.sum(np.abs(theta)))
    l2 = float(np.sum(np.abs(theta) ** 2))
    if reg == "elastic":
        return mix * l1 + (1.0 - mix) * l2
    return {"none": 0.0, "lasso": l1, "ridge": l2}[reg]


def loss_terms(f: np.ndarray, w1, w2, mean_y2: float, pen: float, lam: float):
    """(value, scale) of a loss from real model values and two weightings.

    With unit weights over N samples this is the exact loss; with node
    weights over L nodes the compressed one.  ``scale`` sums the sizes
    of the terms, the yardstick of a relative comparison.
    """
    quad = float(np.mean(f * f * w1))
    cross = float(np.mean(f * w2))
    value = quad - 2.0 * cross + mean_y2 + lam * pen
    return value, abs(quad) + 2.0 * abs(cross) + mean_y2 + lam * pen


def close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * scale


def weights_miss(w: np.ndarray, phi: np.ndarray, freq: np.ndarray, L: int, g,
                 picked: np.ndarray, chars: np.ndarray) -> str:
    """Why ``w`` is not the weight vector of Fourier data ``phi``, or ''.

    W_l = sum_k phi_k exp(-2 pi i k . z_l).  Compared directly at the
    ``picked`` nodes, and through the projections
    sum_l W_l e^{2 pi i l s / L} = L sum_{k . g = s mod L} phi_k
    at the residues ``chars``, which a fault at any node disturbs.
    """
    z = nodes(L, g)[picked]
    ref = np.exp(-2j * np.pi * (z @ freq.T.astype(np.float64))) @ phi
    size = max(float(np.max(np.abs(ref))), 1e-300)
    err = float(np.max(np.abs(w[picked] - ref))) / size
    if not err <= REL_TOL:
        return f"node values off by {err:.2e} relative"
    ell = np.arange(L, dtype=np.int64)
    lhs = np.exp(2j * np.pi * (np.outer(chars, ell) % L) / L) @ w
    residues = (freq @ np.asarray(g, dtype=np.int64)) % L
    rhs = np.array([L * phi[residues == s].sum() for s in chars])
    err = float(np.max(np.abs(lhs - rhs))) / max(float(np.sum(np.abs(w))), 1e-300)
    if not err <= REL_TOL:
        return f"node projections off by {err:.2e} relative"
    return ""


def alias_free(freq: np.ndarray, L: int, g) -> bool:
    """No nonzero row aliases to the origin, and the origin is a row."""
    residues = (freq @ np.asarray(g, dtype=np.int64)) % L
    nonzero = np.any(freq != 0, axis=1)
    return bool(np.any(~nonzero)) and not bool(np.any((residues == 0) & nonzero))


def close_arrays(a: np.ndarray, b: np.ndarray) -> bool:
    """Entrywise agreement to REL_TOL of the largest entry of ``b``."""
    return bool(np.max(np.abs(a - b)) <= REL_TOL * np.max(np.abs(b)))
