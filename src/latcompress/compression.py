r"""Compressing a dataset onto lattice nodes.

Given data ``(x_n, y_n)`` in the unit cube, a rank-1 lattice ``Z`` and a
finite frequency set ``K``, the two weight vectors

.. math:: W_\ell = \frac{1}{N} \sum_{k \in K} \sum_{n=1}^{N}
          c_n\, e^{2 \pi i\, k \cdot (x_n - z_\ell)}

with coefficients ``c = 1`` and ``c = y`` carry everything a quadratic
loss needs from the data: evaluating a model on the ``L`` nodes and
taking two weighted dot products replaces the sweep over all ``N``
samples.

Every route folds the set's Fourier data of the samples onto the
residues of ``k . g`` modulo L and finishes with one length-L FFT.  The
routes sit in one table, ``_ROUTES``, with one calling convention:
``(data, rule, index_set, cvecs, threads, cap)`` in, one weight vector
per coefficient vector out.  ``naive`` sums directly and is the
reference; ``general-fft`` serves any set by sum factorisation over a
head/tail split of the coordinates, one matrix product per bucket of
heads (:func:`_split_plan`), the plan ``eval_model`` runs the other way
round.  Both sum only over the representatives ``r >=_lex 0`` of the
rows (``r = k`` or ``-k``, :func:`_fold`), since the phases of r and -r
are conjugates.  ``rectangle`` and ``step-cross`` run one
Dirichlet-kernel DP over the set's run tables, grouping prefix products
by accumulated cost, and never enumerate the set.  ``compress`` takes the route
:func:`choose_route` predicts to be cheapest, pricing each route from
the plan it runs.  The ``weights_*`` functions are one-vector entries
into the table; :func:`weights_lattice_data` specialises to data on a
rank-1 lattice.
"""

from __future__ import annotations

import base64
import json
import math
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
import numpy.fft  # loaded here, not on the first call of a hot path

from .index_sets import (
    DEFAULT_CAP,
    CapExceeded,
    IndexSet,
    _cost_groups,
    _last_run,
)
from .lattice import LatticeRule, generate_points

__all__ = [
    "Dataset",
    "WeightSet",
    "dirichlet_kernel",
    "weights_naive",
    "weights_general_fft",
    "weights_rectangle",
    "weights_step_cross",
    "weights_step_cross_pair",
    "weights_lattice_data",
    "choose_route",
    "compress",
]

_TWO_PI = 2.0 * math.pi

# Direct-summation guard: |K| * N * L beyond this is refused.
NAIVE_CAP = 400_000_000

# Imaginary parts below this are discarded for symmetric families.
_IMAG_TOL = 1e-9

_WEIGHT_MAGIC = b"LCW1"


@dataclass(eq=False)
class Dataset:
    """Supervised samples ``(X, Y)`` with points in the unit cube.

    Attributes:
        X: array (N, d) with every entry in [0, 1).
        Y: array (N,) of finite responses.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {X.shape}")
        if Y.ndim != 1:
            raise ValueError(f"Y must be 1-d, got shape {Y.shape}")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(
                f"{X.shape[0]} points but {Y.shape[0]} responses"
            )
        if X.shape[0] == 0:
            raise ValueError("dataset must hold at least one sample")
        if not np.all(np.isfinite(X)):
            i, j = map(int, np.argwhere(~np.isfinite(X))[0])
            raise ValueError(
                f"row {i}, coordinate {j + 1}: value {X[i, j]!r} not finite"
            )
        bad = (X < 0.0) | (X >= 1.0)
        if np.any(bad):
            i, j = map(int, np.argwhere(bad)[0])
            raise ValueError(
                f"row {i}, coordinate {j + 1}: value {X[i, j]!r} "
                f"outside [0, 1)"
            )
        if not np.all(np.isfinite(Y)):
            i = int(np.argwhere(~np.isfinite(Y))[0][0])
            raise ValueError(f"row {i}: response {Y[i]!r} not finite")
        X.flags.writeable = False
        Y.flags.writeable = False
        self.X = X
        self.Y = Y
        self._mean_y2 = float(np.mean(Y * Y))

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def mean_y2(self) -> float:
        """Mean squared response, the constant term of the loss."""
        return self._mean_y2


def _coefficients(data: Dataset, c: Union[str, Sequence[float]]) -> np.ndarray:
    """Resolve the coefficient vector: 'ones', 'responses', or explicit."""
    if isinstance(c, str):
        if c == "ones":
            return np.ones(data.N, dtype=np.float64)
        if c == "responses":
            return np.asarray(data.Y, dtype=np.float64)
        raise ValueError(
            f"coefficient choice must be 'ones', 'responses' or a vector, "
            f"got {c!r}"
        )
    arr = np.asarray(c, dtype=np.float64)
    if arr.shape != (data.N,):
        raise ValueError(
            f"coefficient vector has shape {arr.shape}, expected ({data.N},)"
        )
    return arr


def dirichlet_kernel(n: int, x):
    """Dirichlet kernel ``D_n(x) = sum_{|k| <= n} exp(2 pi i k x)``.

    Evaluated through the closed form ``sin(2 pi (n + 1/2) x) /
    sin(pi x)`` with the limit value ``2 n + 1`` substituted whenever x
    is within 1e-8 of an integer.

    Args:
        n: kernel order, nonnegative; order 0 is identically 1.
        x: scalar or array argument.

    Returns:
        Kernel values, same shape as ``x``.

    Examples:
        >>> dirichlet_kernel(1, 0.5)
        -1.0
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"kernel order must be nonnegative, got {n}")
    arr = np.asarray(x, dtype=np.float64)
    near = np.abs(arr - np.round(arr)) < 1e-8
    safe = np.where(near, 0.5, arr)
    out = np.sin(_TWO_PI * (n + 0.5) * safe) / np.sin(np.pi * safe)
    out = np.where(near, float(2 * n + 1), out)
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(out)
    return out


def _check_dims(data_d: int, rule: LatticeRule, index_set: IndexSet) -> None:
    if rule.d != data_d or index_set.d != data_d:
        raise ValueError(
            f"dimension mismatch: data d={data_d}, rule d={rule.d}, "
            f"index set d={index_set.d}"
        )


# Head and tail phases general-FFT and eval_model build per block of
# samples (4 MiB, which keeps a block in a core's cache), the elements
# of the temporaries that multiply gathered phase columns in (256 KiB),
# the elements of each phase block of the naive route, and the most
# samples in a block of the kernel route.  The last is fixed, never
# derived from the thread count, so the blocks and hence the bits of the
# output are the same for any thread count; at 2,048 rows a 10,000-sample
# run has five blocks for a pool to share, and one thread runs as fast
# as with one block (1.9 s either way for a d = 6 step cross at L = 127).
_FFT_BLOCK = 1 << 18
_GATHER = 1 << 14
_NAIVE_BLOCK = 1 << 20
_SWEEP_ROWS = 2048


def _sum_blocks(n_rows: int, block: int, fn, threads: int) -> list:
    """Sum ``fn(s, e)`` over consecutive row blocks ``[s, e)``.

    ``fn`` returns a list of arrays; the result is their elementwise sums
    over all blocks.  Each block's partials are added into the
    accumulators in block order as soon as that block is done, and at
    most ``threads`` blocks are in flight, so peak memory is that of
    ``threads`` blocks plus the accumulators, whatever the row count.
    Block boundaries depend only on the problem size and the additions
    happen in a fixed order, so the output is bitwise independent of the
    thread count.
    """
    starts = range(0, n_rows, block)
    acc: list = []

    def add(parts) -> None:
        if not acc:
            acc.extend(np.zeros_like(p) for p in parts)
        for a, p in zip(acc, parts):
            a += p

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            pending: deque = deque()
            for s in starts:
                if len(pending) == threads:
                    add(pending.popleft().result())
                pending.append(pool.submit(fn, s, min(s + block, n_rows)))
            while pending:
                add(pending.popleft().result())
    else:
        for s in starts:
            add(fn(s, min(s + block, n_rows)))
    return acc


def _phase_axes(freq: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per coordinate, the distinct values of the frequency column and
    the gather that maps them back onto the rows."""
    return [
        np.unique(freq[:, j], return_inverse=True)
        for j in range(freq.shape[1])
    ]


def _phase_matrix(X: np.ndarray, axes) -> np.ndarray:
    """Phases ``exp(2 pi i k . x)``, one row per point of X and one
    column per frequency row described by :func:`_phase_axes`; rows of
    width 0 (no axes) are the single frequency whose phase is 1.

    Built per coordinate from the distinct frequency values
    (:func:`_unit_phases`), so the cosines and sines are at most ``rows *
    sum_j |unique(k_j)|`` rather than ``rows * |K| * d``, and about
    ``rows * sum_j 2 sqrt(span_j)`` on wide ranges; the rest is gathers
    and elementwise products.
    """
    if not axes:
        return np.ones((X.shape[0], 1), dtype=np.complex128)
    (u, inv), *rest = axes
    # a column of distinct values (a side of one coordinate) needs no
    # gather: its phases are made in row order
    if len(u) == len(inv):
        ph = _unit_phases(X[:, 0], u[inv])
    else:
        ph = _unit_phases(X[:, 0], u)[:, inv]
    for j, (u, inv) in enumerate(rest, 1):
        _times_columns(ph, _unit_phases(X[:, j], u), inv)
    return ph


def _times_columns(out: np.ndarray, a: np.ndarray, cols: np.ndarray) -> None:
    """``out *= a[:, cols]``, gathered a few columns at a time: no
    temporary exceeds ``_GATHER`` elements."""
    step = max(1, _GATHER // max(len(out), 1))
    for s in range(0, len(cols), step):
        out[:, s:s + step] *= a[:, cols[s:s + step]]


# |v| below which _turn_phases reduces the angles x v exactly, and the
# bound on |u| up to which _unit_phases does so by splitting u once.
_EXACT_TURNS = 1 << 21
_PHASE_BOUND = 1 << 42


def _unit_phases(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``exp(2 pi i x u)`` for every x and every value of the distinct
    integers u.

    With ``B = ceil(sqrt(span))`` over the span of u, each value is
    ``min(u) + B q + r`` with ``0 <= r < B``, and its phase is the giant
    step's phase times the baby step's: one complex product per pair
    from ``B + Q`` directly computed columns instead of ``|u|``, each
    factor within an ulp or two, so the product is within a few ulp at
    any |u|.  Taken only when it needs fewer columns than u has values.

    :func:`_turn_phases` reduces angles exactly for |u| < 2^21.  Beyond
    that, u splits as ``uh 2^21 + ul`` with ``0 <= ul < 2^21``, and the
    phase is that of ``ul`` at x times that of ``uh`` at ``y = frac(x
    2^21)`` (exact: x 2^21 is a power-of-two scaling and loses only whole
    turns), again within a few ulp.  Up to ``_PHASE_BOUND`` one split
    suffices; larger values raise ``ValueError``.
    """
    if not len(u):
        return _turn_phases(x, u)
    lo, hi = int(u.min()), int(u.max())
    if max(-lo, hi) >= _EXACT_TURNS:
        if max(-lo, hi) >= _PHASE_BOUND:
            raise ValueError(
                f"frequency {hi if hi >= -lo else lo} beyond the phase "
                f"bound 2^42: its phases would lose precision"
            )
        uh, ul = np.divmod(u, _EXACT_TURNS)
        y = x * float(_EXACT_TURNS)
        y -= np.floor(y)
        out = _unit_phases(y, uh)
        out *= _unit_phases(x, ul)
        return out
    # two factors take at least two columns, so up to two values are
    # computed directly
    low = lo if len(u) > 2 else 0
    span = hi - low + 1 if len(u) > 2 else 1
    step = math.isqrt(span - 1) + 1
    giants = -(-span // step)
    if step + giants >= len(u):
        return _turn_phases(x, u)
    q, r = np.divmod(u - low, step)
    out = _turn_phases(x, low + step * np.arange(giants))[:, q]
    _times_columns(out, _turn_phases(x, np.arange(step)), r)
    return out


def _turn_phases(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``exp(2 pi i x v)`` for every x and integer v, by a cosine and a
    sine (cheaper than a complex ``exp``) of the angle reduced by whole
    turns.  The reduction is exact: x splits as ``xh + xl`` with xh on a
    grid of 2^-32, so ``xh v`` is exact for |v| < 2^21 and loses its
    whole turns without rounding, and the small ``xl v`` is added
    after.  Larger values go through :func:`_unit_phases`."""
    xh = np.round(x * 2.0**32) * 2.0**-32
    t = np.outer(xh, v)
    t -= np.round(t)
    t += np.outer(x - xh, v)
    t *= _TWO_PI
    out = np.empty(t.shape, dtype=np.complex128)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``a`` in lexicographic order, and the index
    of each row of ``a`` among them; one lexsort, skipped when the rows
    are in order already, where ``np.unique(axis=0)`` would import
    ``numpy.ma`` on its first call.  Rows of width 0 are all one row."""
    if a.shape[1] == 0:
        return a[:1], np.zeros(len(a), dtype=np.intp)
    order, srt = None, a
    step = np.diff(a, axis=0)
    if _below_zero(step).any():
        order = np.lexsort(a.T[::-1])
        srt = a[order]
        step = np.diff(srt, axis=0)
    new = np.ones(len(a), dtype=bool)
    new[1:] = step.any(axis=1)
    inv = np.cumsum(new) - 1
    if order is not None:
        inv[order] = inv.copy()
    return srt[new], inv


def _buckets(tails_per_head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The heads in bucket order and where each bucket starts in it.

    A head with t tails goes to bucket b, the least b with ``t <= 2^b``.
    (A plain ``np.unique`` would import ``numpy.ma`` on its first call.)
    """
    b = np.frexp(np.asarray(tails_per_head, dtype=np.float64) - 1.0)[1]
    order = np.argsort(b, kind="stable")
    return order, np.flatnonzero(np.diff(b[order], prepend=-1))


class _Fold(NamedTuple):
    """The rows of a frequency set K folded onto their representatives
    ``r >=_lex 0``: each row k is r = k or r = -k, whichever has a
    positive first nonzero coordinate (the zero row is its own).
    ``reps`` holds the distinct representatives, the zero row first when
    present (in lexicographic order when the rows were); ``rep[i]`` is the
    representative of row i and ``flip[i]`` tells whether row i is
    ``-reps[rep[i]]``.
    """

    reps: np.ndarray
    rep: np.ndarray
    flip: np.ndarray


def _below_zero(rows: np.ndarray) -> np.ndarray:
    """Whether each row is ``<_lex 0``: its first nonzero coordinate is
    negative."""
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=bool)
    lead = (rows != 0).argmax(axis=1)
    return rows[np.arange(len(rows)), lead] < 0


def _fold(freq: np.ndarray) -> _Fold:
    """Fold the rows of ``freq``, in any order and not necessarily closed
    under negation, onto their representatives."""
    flip = _below_zero(freq)
    n, half = len(freq), len(freq) // 2
    i = np.arange(n)
    if np.array_equal(flip, i < half) and np.array_equal(freq, -freq[::-1]):
        # row i is the negation of row n - 1 - i, the rows <_lex 0 first
        # (so sorted rows closed under negation): the second half are the
        # representatives, and no sort is needed
        return _Fold(freq[half:], np.where(flip, n - 1 - i, i) - half, flip)
    key = freq.copy()
    np.negative(key, out=key, where=flip[:, None])
    reps, rep = _distinct_rows(key)
    return _Fold(reps, rep, flip)


class _SplitPlan(NamedTuple):
    """Sum factorisation of a folded frequency set over a head/tail split.

    Each representative is ``r = (a, b)``: its first h coordinates (the
    head) and the rest (the tail).  ``heads`` holds the distinct heads,
    ordered by bucket, and ``tails`` the distinct tails.  Heads are
    bucketed by the number of tails they pair with, in powers of two;
    ``buckets`` holds per bucket ``(a0, a1, tb, ii, jj, rows)``: its
    heads are ``heads[a0:a1]``, ``tb`` indexes the union of their tails
    (a slice when they form a range), and representative
    ``rows[r]`` is cell ``(ii[r], jj[r])`` of the bucket's ``(a1 - a0) x
    |tb|`` block.  ``work`` is the cells of all blocks, the multiply-adds
    per sample and vector, and ``fold`` maps the set's rows onto the
    representatives.
    """

    heads: np.ndarray
    tails: np.ndarray
    buckets: tuple
    work: int
    fold: _Fold


def _split_plan(fold: _Fold, h: int) -> _SplitPlan:
    """The split of the representatives of ``fold`` after coordinate
    ``h``."""
    freq = fold.reps
    heads, head_of = _distinct_rows(freq[:, :h])
    tails, tail_of = _distinct_rows(freq[:, h:])
    # Tails by sign, then by how many heads they pair with: the negative
    # ones rising, the others falling.  In a set closed under negation,
    # where a head takes the tails up to some cost and the zero head the
    # nonnegative ones among them, each bucket's tails then form a range,
    # and its phases a view rather than a copy.
    uses = np.bincount(tail_of, minlength=len(tails))
    below = _below_zero(tails)
    seq = np.lexsort((np.where(below, uses, -uses), ~below))
    rank = np.empty(len(tails), dtype=np.intp)
    rank[seq] = np.arange(len(tails))
    tails, tail_of = tails[seq], rank[tail_of]
    # Heads in bucket order, so a bucket is a slice of them.
    order, starts = _buckets(np.bincount(head_of, minlength=len(heads)))
    col = np.empty(len(heads), dtype=np.intp)
    col[order] = np.arange(len(heads))
    row_col = col[head_of]
    # One sort of the rows by bucket, then tail: each bucket is a slice,
    # and its distinct tails are where the tail changes within it.
    bucket = np.searchsorted(starts, row_col, side="right") - 1
    by = np.argsort(bucket * len(tails) + tail_of, kind="stable")
    t, b = tail_of[by], bucket[by]
    new = np.ones(len(by), dtype=bool)
    new[1:] = (t[1:] != t[:-1]) | (b[1:] != b[:-1])
    slot = np.cumsum(new) - 1
    ends = np.searchsorted(b, np.arange(1, len(starts) + 1)).tolist()
    bounds = starts.tolist() + [len(heads)]
    buckets, work, s = [], 0, 0
    for a0, a1, e in zip(bounds, bounds[1:], ends):
        rows = by[s:e]
        tb = t[s:e][new[s:e]]
        work += (a1 - a0) * len(tb)
        if len(tb) and tb[-1] - tb[0] == len(tb) - 1:
            tb = slice(int(tb[0]), int(tb[-1]) + 1)
        buckets.append((a0, a1, tb, row_col[rows] - a0, slot[s:e] - slot[s],
                        rows))
        s = e
    return _SplitPlan(heads[order], tails, tuple(buckets), work, fold)


def _split_price(phases: float, work: float) -> float:
    """Predicted seconds per sample of a split with ``work`` cells and
    head and tail phases of ``phases`` coordinates in all: each
    coordinate of a phase is a gather and a product."""
    return work * _GEMM_S + phases * _PHASE_S


def _plan_price(p: _SplitPlan) -> float:
    return _split_price(p.heads.size + p.tails.size, p.work)


def _family_sizes(runs, h: int) -> tuple[float, float]:
    """The phase coordinates and the cells of a named family's folded
    split after coordinate h, from its run tables without enumerating
    the set.

    The heads are the prefixes over the first h tables, grouped by
    accumulated cost; the tails are the walk over the other tables from
    the identity, i.e. at the full budget.  Membership depends on |k_j|
    only, so the set is closed under negation and folds onto its rows
    ``>=_lex 0``: the heads ``>_lex 0`` with every tail, and the zero
    head with the tails ``>=_lex 0``.  A head of cost ``a`` pairs with
    the tails whose cost its remaining budget admits, a prefix of their
    sorted costs, so tail sets nest as ``a`` grows.  A cost group of n
    heads holds ``(n - [0 in group]) / 2`` positive heads.  The zero head
    has the least cost and ``(t + 1) / 2`` of the t tails it admits (the
    zero tail is its own negation); in a bucket whose positive heads
    reach t' tails, it adds half of the ``t - t'`` beyond them.  So the
    sizes are those :func:`_split_plan` finds on the materialised rows.
    """
    d = len(runs.ups)
    acc, heads = _cost_groups(runs, range(h))
    cost, tails = _cost_groups(runs, range(h, d))
    # an empty run leaves cost groups of no prefix; they bucket nothing
    acc, heads = acc[heads > 0], heads[heads > 0]
    if not len(acc):
        return 0.0, 0.0
    origin = float(runs.combine.identity)
    for j in range(h):
        origin = runs.combine(origin, runs.costs[j][0])
    zero = acc == origin
    reach = np.cumsum(tails.astype(np.float64))[_last_run(runs, acc, cost)]
    pos = (heads.astype(np.float64) - zero) / 2.0
    full = float(reach[zero][0])
    # per head: its tails, the zero head last with (t + 1) / 2 of its t
    per_head = np.append(reach[pos > 0], (full + 1.0) / 2.0)
    count = np.append(pos[pos > 0], 1.0)
    order, starts = _buckets(per_head)
    # a bucket's union: the most tails of its positive heads (1, the zero
    # tail, for none), and in the zero head's bucket half of the zero
    # head's other tails besides
    most = np.append(reach[pos > 0], 1.0)
    union = np.maximum.reduceat(most[order], starts)
    b = np.searchsorted(starts, np.argmax(order == len(order) - 1),
                        side="right") - 1
    union[b] = (union[b] + full) / 2.0
    work = np.add.reduceat(count[order], starts) @ union
    n_tails = (most.max() + full) / 2.0
    return float(count.sum() * h + n_tails * (d - h)), float(work)


def _family_split(runs) -> tuple[int, float]:
    """The cheapest split point of a named family and its price per
    sample."""
    prices = [
        _split_price(*_family_sizes(runs, h))
        for h in range(1, len(runs.ups) + 1)
    ]
    h = int(np.argmin(prices))
    return h + 1, prices[h]


def _split_rows(freq: np.ndarray, runs=None) -> _SplitPlan:
    """The cheapest split plan of the rows of ``freq``, folded onto their
    representatives: priced from the run tables of their named family
    when given, else from each candidate plan."""
    fold = _fold(freq)
    if runs is not None:
        return _split_plan(fold, _family_split(runs)[0])
    plans = (_split_plan(fold, h) for h in range(1, freq.shape[1] + 1))
    return min(plans, key=_plan_price)


def _split_phases(plan: _SplitPlan):
    """How a plan's phases are made per block: the rows of a block, about
    ``_FFT_BLOCK`` head and tail phases, and a function from points to
    their head and tail phases."""
    h = plan.heads.shape[1]
    axes = _phase_axes(plan.heads), _phase_axes(plan.tails)
    block = max(1, _FFT_BLOCK // max(len(plan.heads) + len(plan.tails), 1))

    def phases(Xb: np.ndarray):
        return _phase_matrix(Xb[:, :h], axes[0]), _phase_matrix(
            Xb[:, h:], axes[1]
        )

    return block, phases


def _split_adjoint(
    X: np.ndarray, plan: _SplitPlan, cvecs: list, threads: int
) -> list[np.ndarray]:
    """``S(r) = sum_n c_n exp(2 pi i r . x_n)`` for every representative
    r of the plan's fold, one vector per real coefficient vector c; the
    sums of the other rows are ``S(-r) = conj S(r)``
    (:func:`_folded_fft`).

    Per block of samples and per bucket, one matrix product: the heads'
    phases scaled by c, transposed, times the tails' phases give every
    (head, tail) cell.  The cells are summed over the blocks, and each
    bucket's representatives are gathered from them once at the end.
    """
    block, phases = _split_phases(plan)

    def one(s: int, e: int) -> list[np.ndarray]:
        A, B = phases(X[s:e])
        cells = []
        for cv in cvecs:
            c = cv[s:e, None]
            for a0, a1, tb, *_ in plan.buckets:
                Ab, Bb = A[:, a0:a1], B[:, tb]
                # c scales the narrower side
                if a1 - a0 <= Bb.shape[1]:
                    cells.append((Ab * c).T @ Bb)
                else:
                    cells.append(Ab.T @ (Bb * c))
        return cells

    cells = _sum_blocks(len(X), block, one, threads)
    sums = []
    for v in range(len(cvecs)):
        out = np.empty(len(plan.fold.reps), dtype=np.complex128)
        for (*_, ii, jj, rows), g in zip(
            plan.buckets, cells[v * len(plan.buckets):]
        ):
            out[rows] = g[ii, jj]
        sums.append(out)
    return sums


def _split_forward(
    X: np.ndarray, plan: _SplitPlan, theta: np.ndarray
) -> np.ndarray:
    """``f(x) = sum_k theta_k exp(2 pi i k . x)`` at every point x of X,
    summed over the representatives r of the plan's fold.

    With ``e_r = exp(2 pi i r . x)`` and ``e_{-r} = conj e_r``, the pair
    r, -r gives ``Re(P_r e_r) + i Im(Q_r e_r)`` with ``P_r = theta_r +
    conj theta_{-r}`` and ``Q_r = theta_r - conj theta_{-r}`` (a missing
    row counts as 0); the zero row, its own negation, enters once, its
    real part in P and its imaginary part in Q.  So ``f = Re sum P_r e_r
    + i Im sum Q_r e_r``.  The coefficients form a matrix with p = 1
    column (P) when Q is zero, i.e. the model is real, and else p = 2
    (P and Q), run through the same products.  Per block and bucket, the
    tails' phases times the bucket's coefficient block give p columns per
    head, and each point sums them against its head phases, or the other
    way round when the bucket has fewer tails than heads.
    """
    coef = _folded_coefficients(plan.fold, theta)
    p = coef.shape[1]
    mats = []
    for a0, a1, tb, ii, jj, rows in plan.buckets:
        c = np.zeros((int(jj.max()) + 1, p, a1 - a0), dtype=np.complex128)
        c[jj, :, ii] = coef[rows]
        # the product keeps the narrower side's columns
        by_heads = c.shape[0] < c.shape[2]
        if by_heads:
            c = c.transpose(2, 1, 0)
        mats.append((by_heads, c.reshape(len(c), -1)))
    out = np.empty(len(X), dtype=np.complex128)
    block, phases = _split_phases(plan)
    for s in range(0, len(X), block):
        A, B = phases(X[s:s + block])
        f = np.zeros((len(A), p), dtype=np.complex128)
        for (a0, a1, tb, *_), (by_heads, m) in zip(plan.buckets, mats):
            Ab, Bb = A[:, a0:a1], B[:, tb]
            left, right = (Ab, Bb) if by_heads else (Bb, Ab)
            f += np.einsum(
                "ipj,ij->ip", (left @ m).reshape(len(A), p, -1), right
            )
        out.real[s:s + block] = f[:, 0].real
        out.imag[s:s + block] = f[:, 1].imag if p == 2 else 0.0
    return out


def _folded_coefficients(fold: _Fold, theta: np.ndarray) -> np.ndarray:
    """The coefficients of :func:`_split_forward` over the representatives:
    the column P alone when Q is zero (a real model), else P and Q."""
    P = np.zeros(len(fold.reps), dtype=np.complex128)
    keep = ~fold.flip
    P[fold.rep[keep]] = theta[keep]
    Q = P.copy()
    if len(fold.reps) and not fold.reps[0].any():
        Q[0] = 1j * Q[0].imag
    conj = theta[fold.flip].conj()
    P[fold.rep[fold.flip]] += conj
    Q[fold.rep[fold.flip]] -= conj
    return np.column_stack((P, Q)) if Q.any() else P[:, None]


def _residues(freq: np.ndarray, rule: LatticeRule) -> np.ndarray:
    """``k . g mod L`` for every row k of ``freq``."""
    return (freq @ np.asarray(rule.g, dtype=np.int64)) % rule.L


def _bucketed(residues: np.ndarray, coef: np.ndarray, L: int) -> np.ndarray:
    """The sums of the coefficients at each residue 0, ..., L - 1."""
    b_re = np.bincount(residues, weights=coef.real, minlength=L)
    b_im = np.bincount(residues, weights=coef.imag, minlength=L)
    return b_re + 1j * b_im


def _residue_fft(residues: np.ndarray, coef: np.ndarray, L: int) -> np.ndarray:
    """``sum_k coef_k exp(2 pi i r_k l / L)`` for l = 0, ..., L - 1: the
    coefficients bucketed by residue, then one length-L inverse FFT."""
    return L * np.fft.ifft(_bucketed(residues, coef, L))


def _lattice_fft(
    freq: np.ndarray, coef: np.ndarray, rule: LatticeRule
) -> np.ndarray:
    """``sum_k coef_k exp(2 pi i k . z_l)`` at every node ``z_l``.

    Coefficients sharing a residue ``k . g mod L`` alias to the same
    one-dimensional frequency along the lattice, so they are bucketed
    first and one length-L inverse FFT finishes; cost O(d |K| + L log L).
    """
    return _residue_fft(_residues(freq, rule), coef, rule.L)


def _folded_fft(fold: _Fold, sums: np.ndarray, rule: LatticeRule) -> np.ndarray:
    """``sum_k S(k) exp(-2 pi i k . z_l)`` at every node, over the rows k
    of a folded set, from the sums ``S(r)`` of its representatives with
    ``S(-r) = conj S(r)``: S(r) goes to the residue of -r when r is a row,
    and conj S(r) to the residue of r when -r is a row, then one length-L
    inverse FFT.  Nothing of the set's length is built."""
    L = rule.L
    pos = np.zeros(len(fold.reps), dtype=bool)
    neg = pos.copy()
    pos[fold.rep[~fold.flip]] = True
    neg[fold.rep[fold.flip]] = True
    rho = _residues(fold.reps, rule)
    b = _bucketed(-rho[pos] % L, sums[pos], L)
    b += _bucketed(rho[neg], sums[neg].conj(), L)
    return L * np.fft.ifft(b)


# The weight routes: (data, rule, index_set, cvecs, threads, cap) in, one
# vector per coefficient vector out; ``cap`` bounds any enumeration.


def _naive_route(
    data: Dataset,
    rule: LatticeRule,
    index_set: IndexSet,
    cvecs: list[np.ndarray],
    threads: int,
    cap: int,
    work_cap: int = NAIVE_CAP,
) -> list[np.ndarray]:
    """Direct summation, refused when ``L N |K|`` exceeds ``work_cap``.

    The double sum factors as (L x |K| node phases) . ((|K| x N sample
    phases) . c): the sample sums ``sum_n c_n exp(2 pi i k . x_n)`` come
    first, then ``W_l = (1/N) sum_k exp(-2 pi i k . z_l)`` times them.
    Still a direct sum with one complex exponential per entry and no
    FFT, at a cost of ``O((L + N) |K|)``; each phase block holds about
    ``_NAIVE_BLOCK`` entries.  The reference the other routes are tested
    against, so it shares none of their helpers; it runs on one thread
    whatever ``threads`` says."""
    freq = index_set.materialized(cap).frequencies
    work = rule.L * data.N * len(freq)
    if work > work_cap:
        raise CapExceeded(work, work_cap)
    ft = freq.T.astype(np.float64)
    step = max(1, _NAIVE_BLOCK // max(len(freq), 1))
    sums = [np.zeros(len(freq), dtype=np.complex128) for _ in cvecs]
    for s in range(0, data.N, step):
        ph = np.exp(2j * np.pi * (data.X[s:s + step] @ ft))
        for acc, cvec in zip(sums, cvecs):
            acc += cvec[s:s + step] @ ph
    nodes = generate_points(rule)
    out = np.empty((len(cvecs), rule.L), dtype=np.complex128)
    for s in range(0, rule.L, step):
        ph = np.exp(-2j * np.pi * (nodes[s:s + step] @ ft))
        for i, acc in enumerate(sums):
            out[i, s:s + step] = ph @ acc
    return list(out / data.N)


def _general_fft_route(
    data: Dataset,
    rule: LatticeRule,
    index_set: IndexSet,
    cvecs: list[np.ndarray],
    threads: int,
    cap: int,
) -> list[np.ndarray]:
    """One adjoint transform pass shared by every coefficient vector.

    phi_hat_k = (1/N) sum_n c_n exp(2 pi i k . x_n) by the cheapest
    head/tail split of the set (:func:`_split_adjoint`), blocked over n.
    The coefficients are real, so phi_hat_{-k} = conj phi_hat_k: the pass
    sums only the representatives ``r >=_lex 0`` of the rows, about half
    of them, and the lattice fold of the frequencies -k takes each
    representative's sum for r and its conjugate for -r
    (:func:`_folded_fft`).
    """
    freq = index_set.materialized(cap).frequencies
    runs = None if index_set.family == "custom" else index_set._runs
    plan = _split_rows(freq, runs)
    sums = _split_adjoint(data.X, plan, cvecs, threads)
    return [_folded_fft(plan.fold, acc / data.N, rule) for acc in sums]


class _SweepPlan(NamedTuple):
    """The Dirichlet-kernel sum of a rectangle or a step cross: a DP over
    the accumulated cost of the set's run tables.

    ``coords`` holds per coordinate, in order, ``(orders, factors,
    sums)``: the kernel orders it builds; its factors ``(up, low)``, the
    kernel of order ``up`` less that of order ``low`` unless it is None;
    and for each cost group of the prefixes through it, the ``(group,
    factor)`` products summed into that group, where ``group`` indexes
    the groups of the coordinate before (coordinate 0 has one, the empty
    prefix).  The last coordinate sums into a single group.  ``kernels``
    lists the ``(coordinate, order)`` kernels, ``passes`` counts the
    full-size array passes of a two-vector run and ``held`` bounds the
    full-size arrays a block holds at once (its memory is ``8 rows L
    held`` bytes).
    """

    coords: tuple
    kernels: tuple
    passes: int
    held: int


def _sweep_plan(index_set: IndexSet) -> _SweepPlan:
    """The DP of a rectangle (one run of cost 0, budget 0) or a step cross.

    A run ``r`` of coordinate j sums ``exp(2 pi i k_j x)`` over its
    annulus ``ups[r - 1] < |k_j| <= ups[r]``: the kernel of order
    ``ups[r]`` less that of ``ups[r - 1]`` (run 0: the full kernel).  An
    empty run contributes exactly zero and is skipped.  Each prefix group
    takes the runs its accumulated cost admits; on the last coordinate
    those form a prefix of the table, whose annuli add up to the full
    kernel of the last one.
    """
    runs = index_set._runs
    d = len(runs.ups)
    acc = np.full(1, float(runs.combine.identity))
    coords, kernels = [], []
    passes, held, groups = d + 2, 0, 0
    for j, (ups, costs) in enumerate(zip(runs.ups, runs.costs)):
        ups = ups.tolist()
        terms = []
        for g, (a, last) in enumerate(zip(acc, _last_run(runs, acc, costs))):
            if j == d - 1:
                terms.append((g, (ups[last], None), 0.0))
                continue
            for r in range(last + 1):
                if r == 0 or ups[r] > ups[r - 1]:
                    low = ups[r - 1] if r else None
                    terms.append((g, (ups[r], low), runs.combine(a, costs[r])))
        acc = np.array(sorted({c for *_, c in terms}))
        sums = tuple(
            tuple((g, f) for g, f, c in terms if c == cost) for cost in acc
        )
        factors = tuple(dict.fromkeys(f for _, f, _ in terms))
        orders = tuple(
            dict.fromkeys(n for f in factors for n in f if n is not None)
        )
        annuli = sum(low is not None for _, low in factors)
        coords.append((orders, factors, sums))
        kernels.extend((j, n) for n in orders)
        # passes: besides the coordinate differences and the two dot
        # products, the annulus differences, the products (the empty
        # prefix needs none) and the additions into each group; held: the
        # groups in and out, the kernels, the annuli, the coordinate
        # difference and three temporaries of a kernel or a product
        passes += annuli + (len(terms) if j else 0) + len(terms) - len(sums)
        held = max(held, groups + len(sums) + len(orders) + annuli + 4)
        groups = len(sums)
    return _SweepPlan(tuple(coords), tuple(kernels), passes, held)


def _sweep_step(acc: list, diff: np.ndarray, orders, factors, sums) -> list:
    """One coordinate of the DP: its kernels of ``diff``, its factors, and
    the products of ``acc``'s prefix groups with them, summed per group.
    A group that is None is the empty prefix, whose product is 1."""
    kernels = {n: dirichlet_kernel(n, diff) for n in orders}
    fac = {
        (up, low): kernels[up] if low is None else kernels[up] - kernels[low]
        for up, low in factors
    }
    del kernels
    out = []
    for terms in sums:
        tot = None
        for g, f in terms:
            # Only the empty prefix's terms alias a factor, and each factor
            # appears once among them, so adding in place is safe.
            term = fac[f] if acc[g] is None else acc[g] * fac[f]
            if tot is None:
                tot = term
            else:
                tot += term
        out.append(tot)
    return out


def _sweep_route(
    data: Dataset,
    rule: LatticeRule,
    index_set: IndexSet,
    cvecs: list[np.ndarray],
    threads: int,
    cap: int,
) -> list[np.ndarray]:
    """Kernel route of a rectangle or a step cross, run from its DP plan;
    the set is never enumerated, so ``cap`` does not apply.

    Per block of samples, one coordinate at a time: the kernels of that
    coordinate's differences to the nodes, its factors, then the prefix
    products grouped by accumulated cost.
    """
    plan = _sweep_plan(index_set)
    nodes = generate_points(rule)
    block = max(1, min(_SWEEP_ROWS, (1 << 28) // (8 * rule.L * plan.held)))

    def one(s: int, e: int) -> list[np.ndarray]:
        acc = [None]
        for j, coord in enumerate(plan.coords):
            diff = data.X[s:e, j][:, None] - nodes[None, :, j]
            acc = _sweep_step(acc, diff, *coord)
        return [cv[s:e] @ acc[0] for cv in cvecs]

    return [o / data.N for o in _sum_blocks(data.N, block, one, threads)]


_ROUTES = {
    "naive": _naive_route,
    "general-fft": _general_fft_route,
    "rectangle": _sweep_route,
    "step-cross": _sweep_route,
}


def _run(
    algorithm: str,
    data: Dataset,
    cs: list,
    rule: LatticeRule,
    index_set: IndexSet,
    threads: int = 1,
    cap: int = DEFAULT_CAP,
    **extra,
) -> list[np.ndarray]:
    """One weight vector per coefficient choice in ``cs``, by the table
    route ``algorithm``, which must be able to serve the set."""
    _check_dims(data.d, rule, index_set)
    route = _ROUTES.get(algorithm)
    if route is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected auto, naive, "
            f"general-fft, rectangle or step-cross"
        )
    if route is _sweep_route and index_set.family != algorithm:
        raise ValueError(
            f"algorithm {algorithm!r} cannot serve family "
            f"{index_set.family!r}"
        )
    cvecs = [_coefficients(data, c) for c in cs]
    return route(data, rule, index_set, cvecs, threads, cap, **extra)


def weights_naive(
    data: Dataset,
    c: Union[str, Sequence[float]],
    rule: LatticeRule,
    index_set: IndexSet,
    cap: int = NAIVE_CAP,
) -> np.ndarray:
    """Reference weights by direct summation over nodes, samples and
    frequencies.  Cost O(L N |K|); refuses work above ``cap``.

    Every fast algorithm is tested against this one.
    """
    return _run("naive", data, [c], rule, index_set, work_cap=cap)[0]


def weights_general_fft(
    data: Dataset,
    c: Union[str, Sequence[float]],
    rule: LatticeRule,
    index_set: IndexSet,
    threads: int = 1,
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Weights for an arbitrary frequency set.

    One adjoint nonequispaced transform gives the set's Fourier data;
    folding it onto the residues of ``k . g`` modulo L and a single
    length-L inverse FFT finish the job.  The transform splits each
    frequency into a head and a tail and runs as matrix products, so the
    cost is O(N (cells + h |heads| + (d - h) |tails|) + d |K| + L log L)
    at the cheapest split point h.  The coefficients are real, so only
    the rows ``r >=_lex 0`` are summed and their negations take the
    conjugates: about |K| / 2 cells on crosses and step crosses.
    """
    return _run("general-fft", data, [c], rule, index_set, threads, cap)[0]


def weights_rectangle(
    data: Dataset,
    c: Union[str, Sequence[float]],
    rule: LatticeRule,
    index_set: IndexSet,
    threads: int = 1,
) -> np.ndarray:
    """Weights for a rectangle set via products of Dirichlet kernels.

    The frequency sum factorises per coordinate, so the set is never
    enumerated: d kernels and d - 1 products per sample and node.  Cost
    O(L N d), independent of the cardinality.
    """
    return _run("rectangle", data, [c], rule, index_set, threads)[0]


def weights_step_cross(
    data: Dataset,
    c: Union[str, Sequence[float]],
    rule: LatticeRule,
    index_set: IndexSet,
    threads: int = 1,
) -> np.ndarray:
    """Weights for a step cross without enumerating it.

    Each coordinate's frequencies split into dyadic runs, whose sums are
    Dirichlet-kernel annuli.  A DP over the coordinates multiplies the
    prefix sums, grouped by their accumulated level, with the annuli the
    remaining budget admits; the last coordinate takes one full kernel
    per group.  Cost O(L N d (m + 1)^2) at most for order m, with at most
    d (m + 1) kernels.
    """
    return _run("step-cross", data, [c], rule, index_set, threads)[0]


def weights_step_cross_pair(
    data: Dataset,
    rule: LatticeRule,
    index_set: IndexSet,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Both weight vectors of a step cross in one shared kernel pass."""
    cs = ["ones", "responses"]
    return tuple(_run("step-cross", data, cs, rule, index_set, threads))


# Predicted single-thread seconds per element of each route's work,
# calibrated on a 2-vCPU x86-64 virtual machine:
#   general-FFT, per sample: _GEMM_S per bucket cell (both coefficient
#   vectors) and _PHASE_S per coordinate of each head and tail phase,
#   fitted by least squares in relative error to the split pass of
#   cross-4d, stepcross-6d and a d=8, m=6 step cross at every split
#   point (9 cases, predictions 0.76-1.33 times the measured seconds;
#   BENCH_split_gemm.json);
#   kernel routes, per sample and node, where a pass is one DP product or
#   sum over a block: stepcross-6d took 1.66 s (traced, median of seeds
#   1-3) for N L = 10,000 x 127 with 113 array passes and 29 Dirichlet
#   kernels; compress(algorithm="step-cross") on paper-2d's data 5.48 s
#   (median of seeds 1-6) for 20,000 x 509 with 23 passes and 12 kernels;
#   a d=8, m=6 step cross 1.19 s (median of 3) for 5,000 x 127 with 161
#   passes and 39 kernels; least squares in relative error gives 0.9 ns
#   per pass and 43 ns per kernel, every case within 3 %.
# Every price is a per-sample cost times N, so a subsample takes the
# route of the full data.
_GEMM_S = 5.2e-10
_PHASE_S = 5.0e-9
_PASS_S = 9.0e-10
_DIRICHLET_S = 4.3e-8


def choose_route(
    n_samples: int,
    rule: LatticeRule,
    index_set: IndexSet,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Predict the cost of every route that can serve a set; pick the least.

    ``general-fft`` serves any set at its cheapest head/tail split of
    the rows ``>=_lex 0``, about half the set: per sample, the bucket
    cells of the split's matrix products and the coordinates of its head
    and tail phases; a lazy set above ``cap`` rows is no candidate.  A named family is sized from its run tables
    and a custom set from its rows, so a lazy set and its materialised
    copy get the same price.  The kernel route of a rectangle or a step
    cross costs about ``N L`` times the full-size array passes (DP
    products and sums) and Dirichlet kernels of the plan it runs.  Every
    cost is exactly proportional to N, so a subsample takes the route
    the full data would.  The set is sized by
    :meth:`IndexSet.cardinality`, which caches the count on it, and a
    named family is never enumerated.

    Returns:
        ``{"route": name, "costs": {route: predicted seconds}}`` over the
        candidate routes.

    Raises:
        CapExceeded: when no route is left, i.e. a lazy set that only
            general-FFT can serve holds more than ``cap`` rows.
    """
    count = index_set.cardinality()
    costs = {}
    if index_set.family == "custom":
        costs["general-fft"] = n_samples * _plan_price(
            _split_rows(index_set.frequencies)
        )
    elif not (index_set.frequencies is None and count > cap):
        costs["general-fft"] = n_samples * _family_split(index_set._runs)[1]
    if index_set.family in _ROUTES:
        plan = _sweep_plan(index_set)
        costs[index_set.family] = n_samples * rule.L * (
            plan.passes * _PASS_S + len(plan.kernels) * _DIRICHLET_S
        )
    if not costs:
        raise CapExceeded(count, cap)
    return {"route": min(costs, key=costs.get), "costs": costs}


def _points_on_rule(rule: LatticeRule, X: np.ndarray) -> bool:
    pts = generate_points(rule)
    return X.shape == pts.shape and bool(np.max(np.abs(X - pts)) <= 1e-12)


def weights_lattice_data(
    data_rule: LatticeRule,
    responses: Optional[Sequence[float]],
    rule: LatticeRule,
    index_set: IndexSet,
    dataset: Optional[Dataset] = None,
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Weights when the data sites are themselves a rank-1 lattice.

    With unit coefficients (``responses=None``) the Fourier data of the
    set is the dual-lattice indicator, free of charge; with responses it
    is one length-N FFT plus a gather.  Cost O(d |K| + L log L), plus
    O(N log N) when responses are used.  When the node lattice is
    contained in the data lattice, the unit-coefficient weights come out
    as the constant ``|K intersect dual(X)|``, up to rounding.

    Args:
        data_rule: rule generating the data sites.
        responses: response values in node order, or None for unit
            coefficients.
        rule: node lattice of the compression.
        index_set: frequency set (materialised on demand).
        dataset: optional cross-check that the dataset really consists
            of the data lattice in canonical order.
    """
    if data_rule.d != rule.d:
        raise ValueError(
            f"data lattice d={data_rule.d}, node lattice d={rule.d}"
        )
    if index_set.d != rule.d:
        raise ValueError(
            f"index set d={index_set.d} does not match lattice d={rule.d}"
        )
    freq = index_set.materialized(cap).frequencies
    N = data_rule.L
    if dataset is not None:
        if dataset.N != N or not _points_on_rule(data_rule, dataset.X):
            raise ValueError(
                "dataset points are not the nodes of the stated data rule"
            )
    kh = _residues(freq, data_rule)
    if responses is None:
        phihat = (kh == 0).astype(np.complex128)
    else:
        resp = np.asarray(responses, dtype=np.float64)
        if resp.shape != (N,):
            raise ValueError(
                f"expected {N} responses in node order, got {resp.shape}"
            )
        phihat = np.fft.ifft(resp)[kh]
    return _lattice_fft(-freq, phihat, rule)


@dataclass(eq=False)
class WeightSet:
    """The compressed form of a dataset on a lattice.

    Attributes:
        w_xz: weights of the quadratic term (coefficients all one).
        w_xyz: weights of the cross term (coefficients the responses).
        mean_y2: mean squared response of the source data.
        rule: node lattice the weights refer to.
        index_set: descriptor of the frequency set used.
        algorithm: name of the algorithm that produced the vectors.
    """

    w_xz: np.ndarray
    w_xyz: np.ndarray
    mean_y2: float
    rule: LatticeRule
    index_set: IndexSet
    algorithm: str
    _spectra: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # Own copies, so that no caller's array is frozen by _node_spectra.
        self.w_xz = np.array(self.w_xz)
        self.w_xyz = np.array(self.w_xyz)
        for name, arr in (("w_xz", self.w_xz), ("w_xyz", self.w_xyz)):
            if arr.shape != (self.rule.L,):
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected ({self.rule.L},)"
                )
            if arr.dtype not in (np.float64, np.complex128):
                raise ValueError(
                    f"{name} must be float64 or complex128, got {arr.dtype}"
                )
        self.mean_y2 = float(self.mean_y2)

    @property
    def L(self) -> int:
        return self.rule.L

    @property
    def is_real(self) -> bool:
        return (
            self.w_xz.dtype == np.float64 and self.w_xyz.dtype == np.float64
        )

    def _node_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """``S[m] = sum_l w_l exp(2 pi i m l / L)``, m = 0, ..., L - 1, of
        the real vectors ``w_xz`` and ``w_xyz``: one rfft each on the
        first call, cached after.

        The vectors are made read-only then, so a cached spectrum cannot
        go stale; a vector later assigned to the attribute is told apart
        by its identity.
        """
        c = self._spectra
        if c is None or c[0] is not self.w_xz or c[1] is not self.w_xyz:
            spectra = []
            for w in (self.w_xz, self.w_xyz):
                w.flags.writeable = False
                R = np.fft.rfft(w)
                S = np.empty(len(w), dtype=np.complex128)
                # S[m] = conj(R[m]), and S[L - m] = R[m] for a real w
                S[: len(R)] = R.conj()
                S[len(R):] = R[len(w) - len(R):0:-1]
                spectra.append(S)
            c = self._spectra = (self.w_xz, self.w_xyz, *spectra)
        return c[2], c[3]

    def to_json(self) -> dict:
        if not self.is_real:
            raise ValueError(
                "complex weight vectors have no serialised form; "
                "symmetric families always produce real weights"
            )
        return {
            "format": "weight-set",
            "version": 1,
            "rule": self.rule.to_json(),
            "index_set": self.index_set.to_json(),
            "algorithm": self.algorithm,
            "mean_y2": self.mean_y2,
            "weights": {
                "encoding": "base64",
                "w_xz": base64.b64encode(
                    self.w_xz.astype("<f8").tobytes()
                ).decode("ascii"),
                "w_xyz": base64.b64encode(
                    self.w_xyz.astype("<f8").tobytes()
                ).decode("ascii"),
            },
        }

    def save(self, path: str, sidecar: bool = False) -> None:
        """Write the JSON envelope, optionally with a binary sidecar.

        The sidecar holds the two vectors as little-endian float64 after
        an 8-byte header (magic ``LCW1`` and the node count); it sits
        next to the envelope with an extra ``.w64`` suffix.
        """
        obj = self.to_json()
        if sidecar:
            data_path = path + ".w64"
            with open(data_path, "wb") as fh:
                fh.write(struct.pack("<4sI", _WEIGHT_MAGIC, self.rule.L))
                fh.write(self.w_xz.astype("<f8").tobytes())
                fh.write(self.w_xyz.astype("<f8").tobytes())
            obj["weights"] = {
                "encoding": "w64",
                "path": os.path.basename(data_path),
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "WeightSet":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if obj.get("format") != "weight-set":
            raise ValueError(f"{path} is not a weight-set file")
        rule = LatticeRule.from_json(obj["rule"])
        index_set = IndexSet.from_json(obj["index_set"], materialize=False)
        enc = obj["weights"]["encoding"]
        if enc == "base64":
            w1 = np.frombuffer(
                base64.b64decode(obj["weights"]["w_xz"]), dtype="<f8"
            ).astype(np.float64)
            w2 = np.frombuffer(
                base64.b64decode(obj["weights"]["w_xyz"]), dtype="<f8"
            ).astype(np.float64)
        elif enc == "w64":
            data_path = os.path.join(
                os.path.dirname(os.path.abspath(path)),
                obj["weights"]["path"],
            )
            with open(data_path, "rb") as fh:
                magic, L = struct.unpack("<4sI", fh.read(8))
                if magic != _WEIGHT_MAGIC:
                    raise ValueError(
                        f"{data_path}: bad magic {magic!r}, "
                        f"expected {_WEIGHT_MAGIC!r}"
                    )
                if L != rule.L:
                    raise ValueError(
                        f"{data_path}: header says {L} nodes, "
                        f"envelope says {rule.L}"
                    )
                body = fh.read(2 * 8 * L)
                if len(body) != 2 * 8 * L:
                    raise ValueError(f"{data_path}: truncated payload")
            both = np.frombuffer(body, dtype="<f8").astype(np.float64)
            w1, w2 = both[:L], both[L:]
        else:
            raise ValueError(f"unknown weight encoding {enc!r}")
        return cls(
            w1, w2, float(obj["mean_y2"]), rule, index_set, obj["algorithm"]
        )


def compress(
    data: Dataset,
    rule: LatticeRule,
    index_set: IndexSet,
    algorithm: str = "auto",
    threads: int = 1,
    cap: int = DEFAULT_CAP,
) -> WeightSet:
    """Build both weight vectors of a dataset in one call.

    Args:
        data: samples to compress.
        rule: node lattice.
        index_set: frequency set; named families may arrive lazy.
        algorithm: "auto" takes the route :func:`choose_route` predicts
            to be cheapest; explicit choices are "naive", "general-fft",
            "rectangle", "step-cross".
        threads: worker threads for the blocked passes; the result is
            bitwise identical for any value.
        cap: cardinality cap applied when the set must be enumerated.

    Returns:
        WeightSet with real vectors for the named symmetric families.
        Custom sets keep complex vectors when their symmetrisation does
        not cancel the imaginary parts.
    """
    _check_dims(data.d, rule, index_set)
    if index_set.frequencies is None:
        # A copy of the lazy set: sizing it below caches the count here,
        # not on the caller's object, and the result's descriptor reuses it.
        index_set = index_set.descriptor()
    if algorithm == "auto":
        algorithm = choose_route(data.N, rule, index_set, cap)["route"]
    w1, w2 = _run(
        algorithm, data, ["ones", "responses"], rule, index_set, threads, cap
    )
    if np.iscomplexobj(w1):
        worst = max(float(np.max(np.abs(w.imag))) for w in (w1, w2))
        if worst <= _IMAG_TOL:
            w1 = np.ascontiguousarray(w1.real)
            w2 = np.ascontiguousarray(w2.real)
        elif index_set.family != "custom":
            raise ValueError(
                f"family {index_set.family!r}: weights came out complex "
                f"(largest imaginary part {worst:.3e}); symmetric "
                f"families must produce real vectors"
            )
    spec = index_set.descriptor()
    spec.cardinality()
    return WeightSet(w1, w2, data.mean_y2, rule, spec, algorithm)
