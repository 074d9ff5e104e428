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
residues of ``k . g`` modulo L and finishes with one length-L FFT, as
every sum over the nodes does: :func:`_classes` groups the rows by
residue and :func:`_lattice_sum` sums each residue's run, then runs the
FFT.  The routes sit in one table, ``_ROUTES``, with one calling
convention: ``(data, rule, index_set, cvecs, threads, cap)`` in, one
weight vector per coefficient vector out.  ``naive`` sums directly and
is the reference; ``general-fft`` serves any set by sum factorisation
over a head/tail split of the coordinates, one real matrix product per
bucket of heads and block of samples for every coefficient vector.  Both
it and ``eval_model``, which runs the plan the other way round, sum only
over the representatives ``r >=_lex 0`` of the rows (``r = k`` or
``-k``), since the phases of r and -r are conjugates, and one pair cell
serves a head's tails ``+-tau`` from the tail's cosines and sines; a
side's phases are multiplied once per distinct prefix of its
coordinates (:func:`_side`).  A named family's plan is read from its
run tables (:func:`_table_plan`), priced and run as one object, and
its set is never enumerated; a custom set and a model's support fold
their rows (:func:`_fold`, :func:`_split_plan`), the oracle of the table
plan in the tests.  Once the rule is known, a named family's plan sums
its tails by lattice residue where that is priced cheaper
(:func:`_collapse`): one cell per head and residue serves every tail of
that residue, of both signs, and the pass yields the class sums the
weights need (on stepcross-6d's set 4,496 cells for 12,737 pair cells).
Every plan finishes in one lattice finisher (:func:`_finish`), one
complex FFT for both weight vectors where the set is closed under
negation; a pair-cell plan first sums its representatives per residue
class (:func:`_node_weights`), n entries for n representatives.
``rectangle`` and ``step-cross`` run one Dirichlet-kernel DP laid out
by the links of the walk that counts the set (``IndexSet._groups``),
which also size every split general-FFT is priced by, and never
enumerate the set.  ``compress`` takes the route
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
import threading
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
    _last_group,
    _rows,
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


# Real elements general-FFT and eval_model hold per block of samples:
# the cosine and sine rows of its head and tail phases (made complex in
# the same memory first) and of its widest scaled or product operand
# (4 MiB, which keeps a block in a core's cache), the elements of the
# temporaries that gather, multiply and split phase rows (256 KiB) and
# of the three angle buffers of _turn_phases where rows are shorter,
# the elements of each phase block of the naive route, and the most
# samples in a block of the kernel route.  The last is fixed, never
# derived from the thread count, so the blocks and hence the bits of the
# output are the same for any thread count; at 2,048 rows a 10,000-sample
# run has five blocks for a pool to share, and one thread runs as fast
# as with one block (1.9 s either way for a d = 6 step cross at L = 127).
_FFT_BLOCK = 1 << 19
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


class _Level(NamedTuple):
    """One level of a side's prefixes (:func:`_side`): per distinct prefix
    over the side's coordinates 0, ..., j, its prefix over 0, ..., j - 1
    in the level before (None on level 0) and the row of its coordinate
    j's value in axis j's phase table."""

    parent: Optional[np.ndarray]
    row: np.ndarray


class _Side(NamedTuple):
    """How the phases of one side of a split, its heads or its tails, are
    made per block, none of it depending on the points: the recipe of
    each of its phase tables (:func:`_recipe`) and, for a side of two
    coordinates or more, its prefix levels (:class:`_Level`), level j
    holding the distinct prefixes over coordinates 0, ..., j and the last
    level the side's rows.  A side of one coordinate has the one recipe
    of its column, a side of width 0 none."""

    recipes: tuple
    levels: Optional[tuple] = None


def _side(rows: np.ndarray) -> _Side:
    """The table recipes and prefix levels of a side's rows."""
    if rows.shape[1] < 2:
        return _Side(tuple(_recipe(col) for col in rows.T))
    axes = [np.unique(col, return_inverse=True) for col in rows.T]
    recipes = tuple(_recipe(u) for u, _ in axes)
    # of: each row's prefix in the level before
    levels, of = [_Level(None, recipes[0].index)], axes[0][1]
    for (u, inv), recipe in zip(axes[1:-1], recipes[1:-1]):
        pairs, of = np.unique(of * len(u) + inv, return_inverse=True)
        parent, value = np.divmod(pairs, len(u))
        levels.append(_Level(parent, recipe.index[value]))
    levels.append(_Level(of, recipes[-1].index[axes[-1][1]]))
    return _Side(recipes, tuple(levels))


class _Sides:
    """The head and the tail side of a plan (:func:`_side`), each made on
    its first use and kept, so a plan is priced without them and a plan
    that runs makes them once, however many blocks and passes run it."""

    def __init__(self, heads: np.ndarray, tails: np.ndarray) -> None:
        self.rows = heads, tails
        self.made = [None, None]

    def __getitem__(self, i: int) -> _Side:
        if self.made[i] is None:
            self.made[i] = _side(self.rows[i])
        return self.made[i]


def _phase_matrix(X: np.ndarray, side: _Side, out: np.ndarray) -> np.ndarray:
    """Phases ``exp(2 pi i k . x)``, value-major: one row per row of the
    side (:func:`_side`), holding that row's phase at every point of X;
    with no coordinates (width 0) the single row, whose phase is 1.  Made
    in ``out`` and returned as its planes (:func:`_split_planes`), in the
    same memory.

    Built per coordinate from the distinct frequency values, so the
    cosines and sines are at most ``rows * sum_j |unique(|k_j|)|`` rather
    than ``rows * |K| * d``, and about ``rows * sum_j log2(span_j)`` on
    ranges.  A side of one coordinate gathers its rows from its table
    (:func:`_value_phases`), or makes the table in ``out`` when it is the
    rows' phases in order.  A wider side is made level by level over its
    prefixes: each middle level is the rows of the level before times
    axis j's rows, and the side's rows, the last level, are its parents'
    rows times the last axis' rows, multiplied in as they are split.
    Rows that share their first coordinates share those factors, so each
    distinct prefix is multiplied once; every phase is the product of the
    same factors in the same order as row by row.
    """
    if not side.recipes:
        out[:] = 1.0
        return _split_planes(out)
    if side.levels is None:
        _value_phases(X[:, 0], side.recipes[0], out)
        return _split_planes(out)
    # each axis' table is made when its level is
    tables = (_phase_table(X[:, j], r)[0] for j, r in enumerate(side.recipes))
    prev, (first, *middle, last) = next(tables), side.levels
    # level 0's prefixes are rows of axis 0's table
    parents = first.row.take(side.levels[1].parent)
    for level, after in zip(middle, middle[1:] + [last]):
        rows = np.empty((len(level.row), len(X)), dtype=np.complex128)
        prev.take(parents, axis=0, out=rows, mode="clip")
        _times_rows(rows, next(tables), level.row)
        prev, parents = rows, after.parent
    prev.take(parents, axis=0, out=out, mode="clip")
    return _split_planes(out, next(tables), last.row)


def _times_rows(out: np.ndarray, a: np.ndarray, rows: np.ndarray) -> None:
    """``out *= a[rows]`` for value-major tables, gathered a few rows at
    a time: no temporary exceeds ``_GATHER`` elements."""
    step = max(1, _GATHER // max(a.shape[1], 1))
    for s in range(0, len(out), step):
        out[s:s + step] *= a.take(rows[s:s + step], axis=0)


# |v| below which _turn_phases reduces the angles x v exactly, and the
# bound on |u| up to which _phase_table does so by splitting u once.
_EXACT_TURNS = 1 << 21
_PHASE_BOUND = 1 << 42


class _Recipe(NamedTuple):
    """How :func:`_phase_table` makes the phases of the integers u, none
    of it depending on the points: the magnitudes it tables (``vals``,
    every one up to the largest when the babies are the table), the k of
    its baby steps ``2^k`` or -1 to compute them directly
    (:func:`_factoring`), whether the babies are the table, whether some
    value is negative (the table then holds the magnitudes' conjugates
    first), the row of each value in the table, and whether the table is
    u's phases in order.  Past 2^21 u splits, and ``split`` holds the
    recipes of its high and low parts."""

    vals: np.ndarray
    k: int
    babies: bool
    signed: bool
    index: np.ndarray
    ordered: bool
    split: Optional[tuple] = None


def _recipe(u: np.ndarray) -> _Recipe:
    """The recipe of the phase table of the integers u; ``ValueError``
    past ``_PHASE_BOUND``."""
    if not len(u):
        return _Recipe(u, -1, False, False, np.arange(0), True)
    lo, hi = int(u.min()), int(u.max())
    if max(-lo, hi) >= _EXACT_TURNS:
        if max(-lo, hi) >= _PHASE_BOUND:
            raise ValueError(
                f"frequency {hi if hi >= -lo else lo} beyond the phase "
                f"bound 2^42: its phases would lose precision"
            )
        uh, ul = np.divmod(u, _EXACT_TURNS)
        return _Recipe(u, -1, False, False, np.arange(len(u)), True,
                       (_recipe(uh), _recipe(ul)))
    mag = np.abs(u)
    vals = _distinct(mag)
    k = _factoring(int(vals[0]), int(vals[-1]), len(vals))[0]
    babies = bool(k >= 0 and vals[-1] < 1 << k)
    if babies:
        # the babies are the phases of every magnitude up to the largest
        vals = np.arange(int(vals[-1]) + 1)
    index = np.searchsorted(vals, mag)
    if lo < 0:
        index += (u >= 0) * len(vals)
    rows = 2 * len(vals) if lo < 0 else len(vals)
    return _Recipe(vals, k, babies, lo < 0, index,
                   np.array_equal(index, np.arange(rows)))


def _value_phases(
    x: np.ndarray, u, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``exp(2 pi i x u)``, value-major: one row per value of the integers
    u (or of a :class:`_Recipe`'s) and one column per x, into ``out``
    when given; made by :func:`_phase_table`."""
    recipe = u if isinstance(u, _Recipe) else _recipe(u)
    table, index = _phase_table(x, recipe, out)
    if table is out:
        return out
    if out is not None:
        return table.take(index, axis=0, out=out, mode="clip")
    if recipe.ordered:
        return table
    return table.take(index, axis=0)


def _phase_table(
    x: np.ndarray, recipe: _Recipe, out: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """A value-major table of phases at every x and the row of each value
    of the integers u in it, made as u's recipe says (:func:`_recipe`):
    ``exp(2 pi i x u) = table[index]``, one contiguous row of the points'
    phases per tabled value, so doubling, giant times baby steps and
    conjugates are products and copies of whole rows.  When the table is
    u's phases in order and has no conjugates, it is made in ``out``, if
    given.

    A value's phase is the conjugate of its magnitude's, so only the
    distinct magnitudes ``|u|`` are made.  Directly, each costs a row of
    cosines and a row of sines (:func:`_turn_phases`, from one row of
    half-angle tangents); with baby and giant steps (:func:`_factoring`),
    a magnitude ``B q + r`` with ``B = 2^k`` and ``0 <= r < B`` is the
    giant step ``B q``'s phase, computed directly, times the baby step
    r's, and the babies come from the k directly computed phases of
    ``2^j`` by doubling: ``e(2^j + r) = e(r) e(2^j)``.  Each computed
    phase is within a few ulp of its exactly reduced angle's (3.1 ulp of
    1 at worst against mpmath near half turns, where the tangent meets
    its pole) and a baby is a product of at most k of them, so every
    phase is within a few tens of ulp at any |u|.

    :func:`_turn_phases` reduces angles exactly for |u| < 2^21.  Beyond
    that, u splits as ``uh 2^21 + ul`` with ``0 <= ul < 2^21``, and the
    phase is that of ``ul`` at x times that of ``uh`` at ``y = frac(x
    2^21)`` (exact: x 2^21 is a power-of-two scaling and loses only whole
    turns), again within a few tens of ulp.  Up to ``_PHASE_BOUND`` one
    split suffices; the recipe refuses larger values.
    """
    if recipe.split is not None:
        high, low = recipe.split
        y = x * float(_EXACT_TURNS)
        y -= np.floor(y)
        out = _value_phases(y, high, out)
        out *= _value_phases(x, low)
        return out, recipe.index
    vals, k, n = recipe.vals, recipe.k, len(recipe.vals)
    # the table of the magnitudes' phases, after their conjugates when
    # some values are negative, made in place when it is u's phases
    if recipe.signed:
        table = np.empty((2 * n, len(x)), dtype=np.complex128)
    elif out is not None and recipe.ordered:
        table = out
    else:
        table = np.empty((n, len(x)), dtype=np.complex128)
    half = table[len(table) - n:]
    if recipe.babies:
        _baby_table(x, n, half)
    elif k < 0:
        _turn_phases(x, vals, half)
    else:
        q, r = np.divmod(vals, 1 << k)
        giants = _turn_phases(x, np.arange(q[0], q[-1] + 1) << k)
        giants.take(q - q[0], axis=0, out=half, mode="clip")
        _times_rows(half, _baby_table(x, 1 << k), r)
    if recipe.signed:
        np.conjugate(half, out=table[:n])
    return table, recipe.index


def _distinct(v: np.ndarray) -> np.ndarray:
    """The distinct values of v, sorted (a plain ``np.unique`` would
    import ``numpy.ma`` on its first call)."""
    v = np.sort(v)
    return v[np.diff(v, prepend=v[:1] - 1) != 0]


# The most doublings a baby step is made by.
_DOUBLINGS = 10


def _factoring(low: int, m: int, n: int) -> tuple[int, int, int]:
    """How :func:`_phase_table` makes n distinct magnitudes in [low, m]
    (below 2^21, where no value splits): the k of its baby steps ``2^k``,
    or -1 to compute them directly, with the cosine and sine columns it
    then computes and the products of phase columns it makes of them.

    With baby steps, the babies up to m (all of them when m reaches 2^k)
    take at most k doublings, and when m reaches 2^k the giant steps
    from ``low`` to m take a column each and every magnitude a product.
    The choice is the least cost, a cosine and sine column counting
    ``_TRIG_PRODUCTS`` products.
    """
    best = (-1, n, 0)
    for k in range(1, _DOUBLINGS + 1):
        if m < 1 << k:
            trig, values = m.bit_length(), m + 1
        else:
            trig, values = k + (m >> k) - (low >> k) + 1, (1 << k) + n
        if (_TRIG_PRODUCTS * (trig - best[1]) + values - best[2]) < 0:
            best = (k, trig, values)
    return best


def _baby_table(
    x: np.ndarray, size: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``exp(2 pi i x r)`` for r = 0, ..., size - 1, value-major, into
    ``out`` when given, by doubling whole rows from the directly computed
    phases of the powers of two below size."""
    k = (size - 1).bit_length()
    powers = _turn_phases(x, 1 << np.arange(k))
    if out is None:
        out = np.empty((size, len(x)), dtype=np.complex128)
    out[0] = 1.0
    for j in range(k):
        s = 1 << j
        e = min(2 * s, size)
        np.multiply(out[:e - s], powers[j], out=out[s:e])
    return out


def _turn_phases(
    x: np.ndarray, v: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``exp(2 pi i x v)`` for every integer v and x, value-major, into
    ``out`` when given, from one tangent of the half angle: with the
    angle reduced to t turns and ``tau = tan(pi t)``, ``cos 2 pi t = (1 -
    tau^2) / (1 + tau^2)`` and ``sin 2 pi t = 2 tau / (1 + tau^2)``.
    numpy's float64 tangent is vectorised where its cosine and sine may
    run an element at a time, so one tangent and a few products cost
    less than a cosine and a sine, which cost less than a complex
    ``exp``.

    The reduction is exact: ``x v`` itself is exact when every v is a
    power of two (a scaling), and otherwise x splits as ``xh + xl`` with
    xh on a grid of 2^-32, so ``xh v`` is exact for |v| < 2^21 and loses
    its whole turns without rounding, and the small ``xl v`` (below
    2^-12 turns) is added after.  So |t| <= 1/2 + 2^-12: tau is finite
    (about 1.6e16 at the float nearest pi/2) and may cross the pole at a
    half turn, where the identities still hold and keep their absolute
    error; each phase is within a few ulp of the exactly reduced angle's.
    Larger values go through :func:`_phase_table`.

    Made a row at a time, or as many short rows as ``_GATHER`` elements
    hold, in three buffers reused across the rows, so every pass runs in
    cache."""
    n = len(x)
    if out is None:
        out = np.empty((len(v), n), dtype=np.complex128)
    scaled = len(v) and v.min() > 0 and not np.any(v & (v - 1))
    if not scaled:
        xh = np.round(x * 2.0**32) * 2.0**-32
        xl = x - xh
    step = max(1, _GATHER // max(n, 1))
    buf = np.empty((3, min(step, len(v)), n))
    for i in range(0, len(v), step):
        vi = v[i:i + step]
        t, s, d = buf[:, :len(vi)]
        np.multiply.outer(vi, x if scaled else xh, out=t)
        t -= np.rint(t, out=s)
        if not scaled:
            t += np.multiply.outer(vi, xl, out=s)
        t *= np.pi
        np.tan(t, out=t)
        np.multiply(t, t, out=s)
        np.add(s, 1.0, out=d)
        np.subtract(1.0, s, out=s)
        rows = out[i:i + step]
        np.divide(s, d, out=rows.real)
        t += t
        np.divide(t, d, out=rows.imag)
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

    A head with t tails goes to bucket b, the least b with ``t <= 2^b``,
    and the buckets run from the most tails to the fewest (so the heads
    of one coordinate whose tails shrink as |a| grows come in order).
    (A plain ``np.unique`` would import ``numpy.ma`` on its first call.)
    """
    b = np.frexp(np.asarray(tails_per_head, dtype=np.float64) - 1.0)[1]
    order = np.argsort(-b, kind="stable")
    b = b[order]
    return order, np.flatnonzero(np.diff(b, prepend=b[:1] + 1))


class _Fold(NamedTuple):
    """The rows of a frequency set K folded onto their representatives
    ``r >=_lex 0``: each row k is r = k or r = -k, whichever has a
    positive first nonzero coordinate (the zero row is its own).
    ``reps`` holds the distinct representatives, the zero row first when
    present (in lexicographic order when the rows were); ``rep[i]`` is the
    representative of row i and ``flip[i]`` tells whether row i is
    ``-reps[rep[i]]``.  ``closed``: every representative but the zero row
    comes as often as its negation, so the weights are real.  A plan read
    from run tables (:func:`_table_plan`) builds none of the rows:
    ``reps``, ``rep`` and ``flip`` are None, as every representative is
    a row, and so is its negation but for the zero row's, the first.
    """

    reps: Optional[np.ndarray]
    rep: np.ndarray
    flip: np.ndarray
    closed: bool


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
        return _Fold(freq[half:], np.where(flip, n - 1 - i, i) - half, flip,
                     True)
    key = freq.copy()
    np.negative(key, out=key, where=flip[:, None])
    reps, rep = _distinct_rows(key)
    # closed: each representative but the zero row as often as -r
    surplus = np.bincount(rep, np.where(flip, -1.0, 1.0), len(reps))
    return _Fold(reps, rep, flip, not surplus[reps.any(axis=1)].any())


class _Sizes(NamedTuple):
    """What a split plan does per sample and coefficient vector: its
    distinct heads and tails tau; the coordinates of their phases, each a
    gather and a product, together with the values each axis multiplies
    out of baby and giant steps; its pair cells; the cosine and sine
    columns its axes compute directly; and the most heads or tails on
    the narrower side of a bucket, which with the heads and tails sets
    how many samples a block holds (:func:`_block`)."""

    heads: int
    tails: int
    coords: int
    cells: int
    trig: int
    widest: int


def _sizes(
    heads: int, tails: int, h: int, mags, cells: int, widest: int
) -> _Sizes:
    """The sizes of a split after coordinate h with the given heads,
    tails, pair cells and widest narrower side, its axes' values of the
    magnitudes ``mags`` (the least, the greatest and their number per
    coordinate, heads first)."""
    trig = values = 0
    for m in mags:
        _, t, v = _factoring(*m)
        trig, values = trig + t, values + v
    coords = heads * h + tails * (len(mags) - h) + values
    return _Sizes(heads, tails, coords, cells, trig, widest)


def _block(sizes: _Sizes, stack: int) -> int:
    """The samples a block of a split pass holds: about ``_FFT_BLOCK``
    real elements over the cosine and sine rows of every head and tail
    phase and of the widest operand a product scales or yields (a
    bucket's narrower side, ``stack`` times over when the product stacks
    it once per coefficient vector)."""
    width = 2 * (sizes.heads + sizes.tails + stack * sizes.widest)
    return max(1, int(_FFT_BLOCK // max(width, 1)))


class _SplitPlan(NamedTuple):
    """Sum factorisation of a folded frequency set over a head/tail split.

    Each representative is ``r = (a, b)``: its first h coordinates (the
    head) and the rest (the tail), and each tail is ``b = tau`` or ``b =
    -tau`` with ``tau >=_lex 0``.  ``heads`` holds the distinct heads,
    ordered by bucket, and ``tails`` the distinct tails tau, those that
    pair with the most heads first.  Heads are bucketed by the number of
    tails tau they pair with, in powers of two; ``buckets`` holds per
    bucket ``(a0, a1, tb, ii, jj, flip, rows)``: its heads are
    ``heads[a0:a1]``, ``tb`` indexes the union of their tails (a slice
    ``[0, n)`` when they are a prefix of ``tails``), and representative
    ``rows[r]`` is pair cell ``(ii[r], jj[r])`` of the bucket's ``(a1 -
    a0) x |tb|`` block, with tail ``-tau`` where ``flip[r]``, else
    ``tau``.  ``sides`` holds how the phases of the heads and of the
    tails are made (:class:`_Sides`), ``sizes`` what the plan does per
    sample, and ``fold`` maps the set's rows onto the representatives,
    the indices of ``rows``; for a plan read from a named family's run
    tables (:func:`_table_plan`) the representatives are its pair cells
    in bucket order.
    """

    heads: np.ndarray
    tails: np.ndarray
    buckets: tuple
    sides: _Sides
    sizes: _Sizes
    fold: _Fold


def _split_plan(fold: _Fold, h: int) -> _SplitPlan:
    """The split of the representatives of ``fold`` after coordinate
    ``h``."""
    freq = fold.reps
    heads, head_of = _distinct_rows(freq[:, :h])
    # the tails folded by sign onto tau >=_lex 0: the one sort of rows
    flip = _below_zero(freq[:, h:])
    tails, tail_of = _distinct_rows(
        np.where(flip[:, None], -freq[:, h:], freq[:, h:])
    )

    def pairs(of: np.ndarray, n: int) -> np.ndarray:
        # A pair (a, tau) holds tau, -tau or both, so the larger count of
        # the two signs is the number of pairs, exactly so when every
        # pair with -tau holds tau too, as in the named families.
        return np.maximum(np.bincount(of[flip], minlength=n),
                          np.bincount(of[~flip], minlength=n))

    # Tails by the number of heads they pair with, most first.  Where a
    # head takes the tails up to some cost, the more heads the cheaper
    # the tail, so each bucket's tails are a prefix, and its phases a view.
    seq = np.argsort(-pairs(tail_of, len(tails)), kind="stable")
    rank = np.empty(len(tails), dtype=np.intp)
    rank[seq] = np.arange(len(tails))
    tails, tail_of = tails[seq], rank[tail_of]
    # Heads in bucket order, so a bucket is a slice of them, and the rows
    # by bucket: a radix sort of small keys.
    order, starts = _buckets(pairs(head_of, len(heads)))
    col = np.empty(len(heads), dtype=np.intp)
    col[order] = np.arange(len(heads))
    row_col = col[head_of]
    bucket = np.searchsorted(starts, row_col, side="right") - 1
    by = np.argsort(bucket.astype(np.uint8), kind="stable")
    ends = np.searchsorted(bucket[by], np.arange(1, len(starts) + 1))
    bounds = starts.tolist() + [len(heads)]
    buckets, cells, widest, s = [], 0, 0, 0
    for a0, a1, e in zip(bounds, bounds[1:], ends.tolist()):
        rows = by[s:e]
        jj = tail_of[rows]
        used = np.zeros(len(tails), dtype=bool)
        used[jj] = True
        n = int(np.count_nonzero(used))
        if used[:n].all():
            tb = slice(0, n)
        else:
            tb = np.flatnonzero(used)
            jj = (np.cumsum(used) - 1)[jj]
        cells += (a1 - a0) * n
        widest = max(widest, min(a1 - a0, n))
        buckets.append((a0, a1, tb, row_col[rows] - a0, jj, flip[rows], rows))
        s = e
    heads = heads[order]
    mags = []
    for col in list(heads.T) + list(tails.T):
        v = _distinct(np.abs(col))
        mags.append((int(v[0]), int(v[-1]), len(v)) if len(v) else (0, 0, 0))
    sizes = _sizes(len(heads), len(tails), h, mags, cells, widest)
    return _SplitPlan(heads, tails, tuple(buckets), _Sides(heads, tails),
                      sizes, fold)


def _split_price(sizes: _Sizes) -> float:
    """Predicted seconds per sample of a split pass with both coefficient
    vectors: its pair cells, whose partial sums are also written and
    added once per block of samples, the coordinates of its phases and
    the cosine and sine columns of its axes."""
    return (_cells_price(sizes, 2) + sizes.coords * _PHASE_S
            + sizes.trig * _TRIG_S)


def _cells_price(sizes: _Sizes, stack: int) -> float:
    """Predicted seconds per sample of a pass's products with both
    coefficient vectors: its cells, whose partial sums are also written
    and added once per block of samples (:func:`_block`)."""
    return sizes.cells * (_GEMM_S + _BLOCK_S / _block(sizes, stack))


class _TableSplit(NamedTuple):
    """A named family's split after coordinate h, sized from its run
    tables alone: the price of the split and the plan
    :func:`_table_plan` expands, one object.  ``steps`` is the set's
    cost-group walk (``IndexSet._groups``), whose links the plan reads,
    and ``sizes`` what the expanded plan does per sample."""

    runs: object
    h: int
    steps: list
    sizes: _Sizes


def _table_splits(index_set: IndexSet) -> list[_TableSplit]:
    """The splits of a named family after each coordinate h = 1, ..., d,
    without building a row of the set.

    Membership depends on |k_j| only, so the set is closed under
    negation and folds onto its rows ``>=_lex 0``: the heads ``>_lex 0``
    with every tail, and the zero head with the tails ``>=_lex 0``.  The
    heads are the prefixes over the first h tables, grouped by
    accumulated cost: the groups of the walk that also sizes the set
    (``IndexSet._groups``) after coordinate h.  A cost group of n heads
    holds ``(n - [0 in group]) / 2`` heads ``>_lex 0``, and the zero head
    is in the first, of the least cost.  The tails a group admits, both
    signs, follow the walk's links back from the last coordinate, where
    each group admits the one empty tail: a link from group g through a
    run of s values into a group admitting t tails gives g ``s t`` of
    them.  So the sizes are those of the expanded plan, also on a level
    line.  A head of cost a pairs with the t tails its cost admits, so
    with ``(t + 1) / 2`` tails tau (the zero tail is its own negation);
    the tail sets nest as a grows, and a bucket's union is its largest
    set.  Per coordinate the magnitudes are 0 to the reach of the last
    run it admits alone, on either side of any split (a value v > 0 is
    the row with v there and zeros elsewhere, a zero costing the identity
    in every family): the last run of its table (:class:`_Runs`).
    """
    runs, steps = index_set._runs, index_set._groups
    mags = [(0, int(ups[-1]), int(ups[-1]) + 1) for ups in runs.ups]
    reach = [np.ones(len(steps[-1][0]))]
    for j in range(len(steps) - 1, 0, -1):
        _, _, prev, run, group = steps[j]
        size = np.diff(2 * runs.ups[j] + 1, prepend=0)[run]
        reach.insert(0, np.bincount(prev, size * reach[0][group],
                                    len(steps[j - 1][0])))
    splits = []
    for h, ((_, heads, *_), reach) in enumerate(zip(steps, reach), 1):
        heads = heads.astype(np.float64)
        pos = (heads - (np.arange(len(heads)) == 0)) / 2.0
        taus = (reach + 1.0) / 2.0
        # per head its tails tau, the zero head last
        per_head = np.append(taus[pos > 0], taus[0])
        n = np.append(pos[pos > 0], 1.0)
        order, starts = _buckets(per_head)
        union = np.maximum.reduceat(per_head[order], starts)
        held = np.add.reduceat(n[order], starts)
        sizes = _sizes(float(n.sum()), float(taus[0]), h, mags,
                       float(held @ union),
                       float(np.minimum(held, union).max()))
        splits.append(_TableSplit(runs, h, steps, sizes))
    return splits


def _cheapest_split(index_set: IndexSet) -> _TableSplit:
    """The split of a named family with the least price per sample."""
    return min(_table_splits(index_set), key=lambda s: _split_price(s.sizes))


def _table_plan(split: _TableSplit) -> _SplitPlan:
    """The plan of a named family's split, read from its run tables: no
    row of the set is built, folded or sorted.

    The heads, each with its cost group, are the rows over the first h
    tables and the tails tau those over the rest, each the rows ``>=_lex
    0`` that the walk's links give (:func:`_rows`); the same links give
    each tail the last head group that admits it (:func:`_last_group`).
    Heads and tails are then ordered and bucketed as :func:`_split_plan`
    does on the rows, so the two plans agree exactly.  The
    representatives are the pair cells ``(a, tau)``, and ``(a, -tau)``
    as well where a and tau are both nonzero, in bucket order, the zero
    row first; the set's rows are the representatives and their
    negations, and its fold says so without building them (closed under
    negation).
    """
    runs, h, steps = split.runs, split.h, split.steps
    groups = len(steps[h - 1][1])
    heads, group = _rows(runs, steps, range(h))
    half = len(heads) // 2
    heads, group = heads[half:], group[half:]
    tails = _rows(runs, steps, range(h, len(steps)))[0]
    tails = tails[len(tails) // 2:]
    last = _last_group(runs, steps, tails, h)
    # tails by the heads they pair with, most first: the zero head and
    # the heads >_lex 0 of every cost group that admits them
    pos = np.bincount(group[1:], minlength=groups)
    seq = np.argsort(-np.cumsum(pos)[last], kind="stable")
    tails, last = tails[seq], last[seq]
    admitted = np.cumsum(np.bincount(last, minlength=groups)[::-1])[::-1]
    order, starts = _buckets(admitted[group])
    heads, group = heads[order], group[order]
    bounds = starts.tolist() + [len(heads)]
    nonzero_tail = tails.any(axis=1)
    buckets, s = [], 0
    for a0, a1 in zip(bounds, bounds[1:]):
        g = group[a0:a1]
        # the tails run by cumsum(pos)[last] descending, strictly rising
        # with last (a cost group past the first holds a +- pair of heads,
        # so pos >= 1 there): the tails with last >= g.min() are a prefix
        tb = slice(0, int(np.count_nonzero(last >= g.min())))
        ii, jj = np.nonzero(last[tb][None, :] >= g[:, None])
        both = np.flatnonzero(heads[a0:a1].any(axis=1)[ii]
                              & nonzero_tail[tb][jj])
        ii, jj = np.append(ii, ii[both]), np.append(jj, jj[both])
        flip = np.arange(len(ii)) >= len(ii) - len(both)
        buckets.append((a0, a1, tb, ii, jj, flip, np.arange(s, s + len(ii))))
        s += len(ii)
    # the rows: every representative, and each but the zero row negated
    return _SplitPlan(heads, tails, tuple(buckets), _Sides(heads, tails),
                      split.sizes, _Fold(None, None, None, True))


def _split_rows(freq: np.ndarray) -> _SplitPlan:
    """The split plan of the rows of ``freq``, folded onto their
    representatives, at the split point whose plan is cheapest."""
    fold = _fold(freq)
    plans = (_split_plan(fold, h) for h in range(1, freq.shape[1] + 1))
    return min(plans, key=lambda p: _split_price(p.sizes))


def _split_phases(plan: _SplitPlan, rows: int, stack: int = 1):
    """How a plan's phases are made per block of ``rows`` points: the
    rows of a block and a function from points to their head and tail
    phases, each planar, of shape (columns, 2, rows): per head or tail,
    a row of the points' cosines and a row of their sines, so that the
    phases of a side or of a bucket are one real matrix of cosine and
    sine rows (:func:`_trig`).

    A block holds at most ``rows`` points, and about ``_FFT_BLOCK`` real
    elements (:func:`_block`).  Each side is made complex and value-major
    (:func:`_phase_matrix`) in the memory of its planes and split into
    them in place (:func:`_split_planes`), in buffers each thread
    allocates once and reuses from block to block.
    """
    h = plan.heads.shape[1]
    widths = len(plan.heads), len(plan.tails)
    sides = plan.sides[0], plan.sides[1]  # made here, before any thread
    block = max(1, min(rows, _block(plan.sizes, stack)))
    local = threading.local()

    def side(i: int, X: np.ndarray) -> np.ndarray:
        # made on the thread's first use, so the first block's head
        # phases are built before its tail buffer exists
        bufs = local.__dict__.setdefault("bufs", {})
        if i not in bufs:
            bufs[i] = np.empty(2 * widths[i] * block)
        flat = bufs[i][:2 * widths[i] * len(X)]
        z = flat.view(np.complex128).reshape(widths[i], len(X))
        return _phase_matrix(X, sides[i], z)

    def phases(Xb: np.ndarray):
        return side(0, Xb[:, :h]), side(1, Xb[:, h:])

    return block, phases


def _split_planes(
    z: np.ndarray, a: Optional[np.ndarray] = None, rows=None
) -> np.ndarray:
    """The contiguous complex table z of shape (n, m), or ``z * a[rows]``
    when a table a and the rows of it are given, rewritten in z's memory
    as planes of shape (n, 2, m): the real parts of each of its n rows,
    then their imaginary parts.  A few rows at a time, so no temporary
    exceeds ``_GATHER`` elements."""
    n, m = z.shape
    planes = z.view(np.float64).reshape(n, 2, m)
    step = max(1, _GATHER // max(m, 1))
    buf = np.empty((min(step, n), m), dtype=np.complex128)
    for s in range(0, n, step):
        part = buf[:min(step, n - s)]
        if a is None:
            part[:] = z[s:s + step]
        else:
            a.take(rows[s:s + step], axis=0, out=part, mode="clip")
            part *= z[s:s + step]
        planes[s:s + step, 0] = part.real
        planes[s:s + step, 1] = part.imag
    return planes


def _width(tb) -> int:
    """The number of tails a bucket's index ``tb`` selects."""
    return tb.stop if isinstance(tb, slice) else len(tb)


def _trig(ph: np.ndarray, cols) -> np.ndarray:
    """The cosine and sine rows, in turn, of the phases ``cols`` (a slice
    or indices) of a planar phase table: a real matrix (2 len(cols),
    rows), a view of a slice, a gathered copy otherwise."""
    sub = ph[cols] if isinstance(cols, slice) else ph.take(cols, axis=0)
    return sub.reshape(-1, ph.shape[2])


def _split_adjoint(
    X: np.ndarray, plan: _SplitPlan, cvecs: list, threads: int
) -> list[np.ndarray]:
    """``S(r) = sum_n c_n exp(2 pi i r . x_n)`` for every representative
    r of the plan, one vector per real coefficient vector c, in the
    order of the buckets' ``rows``; the sums of the other rows are
    ``S(-r) = conj S(r)`` (:func:`_node_weights`).

    With ``e_a = exp(2 pi i a . x)`` and a tail tau's cosine and sine, a
    pair cell's sums ``X = sum_n c e_a cos`` and ``Y = sum_n c e_a sin``
    give ``S(a, +-tau) = X +- i Y``.  Per block of samples and per
    bucket, one real matrix product of the planar phases
    (:func:`_split_phases`) serves every vector: the narrower side's
    cosine and sine rows, stacked once per vector and scaled by its c
    (``[narrow c_1; narrow c_2]``, written in place), times the wider
    side's transposed give the four real sums of every pair
    cell for each vector, half the multiply-adds of a complex product
    over the tails of both signs.  The products are summed over the
    blocks, and each bucket's representatives are formed from them once
    at the end.
    """
    p = len(cvecs)
    block, phases = _split_phases(plan, len(X), p)
    # a vector of ones scales nothing (multiplying by 1 is exact)
    ones = [not np.any(cv != 1.0) for cv in cvecs]

    def one(s: int, e: int) -> list[np.ndarray]:
        A, B = phases(X[s:e])
        cells = []
        for a0, a1, tb, *_ in plan.buckets:
            Ab, Bb = _trig(A, slice(a0, a1)), _trig(B, tb)
            # c scales the narrower side
            by_heads = len(Ab) <= len(Bb)
            narrow = Ab if by_heads else Bb
            k = len(narrow)
            if p == 1 and ones[0]:
                stacked = narrow
            else:
                # made per bucket, so it is never held while the next
                # block's phases are built
                stacked = np.empty((p * k, e - s))
                for i, (cv, unit) in enumerate(zip(cvecs, ones)):
                    part = stacked[i * k:(i + 1) * k]
                    if unit:
                        part[:] = narrow
                    else:
                        np.multiply(narrow, cv[s:e], out=part)
            # heads down, tails across, for every vector in turn
            cells.append(stacked @ Bb.T if by_heads else Ab @ stacked.T)
        return cells

    cells = _sum_blocks(len(X), block, one, threads)
    del one, phases  # the phase buffers go before the sums are formed
    n = sum(len(b[6]) for b in plan.buckets)
    sums = [np.empty(n, dtype=np.complex128) for _ in cvecs]
    for (a0, a1, tb, ii, jj, flip, rows), prod in zip(plan.buckets, cells):
        na, nt = a1 - a0, _width(tb)
        sign = np.where(flip, -1.0, 1.0)
        for v, out in enumerate(sums):
            # the stacked side's rows of vector v
            part = (prod[2 * na * v:2 * na * (v + 1)] if na <= nt
                    else prod[:, 2 * nt * v:2 * nt * (v + 1)])
            # g[a, p, t, q]: the sum of c, the head's cosine (p = 0) or
            # sine (p = 1) and the tail's cosine (q = 0) or sine (q = 1)
            g = part.reshape(a1 - a0, 2, -1, 2)
            out.real[rows] = g[ii, 0, jj, 0] - sign * g[ii, 1, jj, 1]
            out.imag[rows] = g[ii, 1, jj, 0] + sign * g[ii, 0, jj, 1]
    return sums


class _Collapse(NamedTuple):
    """A named family's table plan with its tails summed by residue
    (:func:`_collapse`).  ``heads`` are the plan's heads, those that
    admit the longest prefix of the tails first; ``tails`` its tails by
    segment (the tails a prefix adds to the one before), and within a
    segment in the order F is summed from them.  ``res`` holds the
    residue of each row of F: per segment, the residues that first
    appear in it follow the rows of the segments before, so each
    prefix's rows are a leading slice.  ``steps`` holds per prefix,
    shortest first, ``(old, new, lo, a0, a1, r)``: its segment's tails
    add into F as ``old`` and ``new`` say (:func:`_runs`), changing rows
    ``[lo, r)``, and the heads ``[a0, a1)`` then pair with rows ``[0,
    r)``.  ``zero`` is the place of the zero tail, ``head_res`` each
    head's residue and ``reflect`` tells the heads other than zero,
    whose cells also take the tails' negations; ``sizes`` is what the
    pass does per sample, its cells those of ``(head, row)`` and its
    widest operand F (:class:`_Prefixes`)."""

    heads: np.ndarray
    tails: np.ndarray
    sides: _Sides
    sizes: _Sizes
    steps: tuple
    zero: int
    head_res: np.ndarray
    res: np.ndarray
    reflect: np.ndarray


class _Prefixes(NamedTuple):
    """How a table plan's heads pair with prefixes of its tails, read
    from the plan (:func:`_prefixes`): per head the index ``of`` of its
    prefix among ``ends``, the prefixes' lengths, shortest first, the
    heads ``held`` per prefix, each tail's residue, and what the plan
    collapsed by residue (:func:`_collapse`) does per sample: ``sizes``,
    its cells those of ``(head, residue)`` and its widest operand F, one
    row per residue, and ``adds``, its rows of samples added or scaled
    outside the products, the tails added into F and, at most, F's rows
    stacked again by c for each prefix."""

    of: np.ndarray
    ends: list
    held: np.ndarray
    tail_res: np.ndarray
    sizes: _Sizes
    adds: int


def _prefixes(plan: _SplitPlan, rule: LatticeRule) -> _Prefixes:
    """The prefixes of a named family's table plan and the sizes of its
    collapse, without laying the collapse out: a prefix's rows of F are
    the residues that first appear among its tails."""
    # a head's tails are a prefix: as many tails as it has cells (a, tau)
    admits = np.empty(len(plan.heads), dtype=np.intp)
    for a0, a1, _, ii, _, flip, _ in plan.buckets:
        admits[a0:a1] = np.bincount(ii[~flip], minlength=a1 - a0)
    ends = _distinct(admits)
    of = np.searchsorted(ends, admits)
    held = np.bincount(of, minlength=len(ends))
    tail_res = _residues(plan.tails, rule, slice(plan.heads.shape[1], None))
    order = np.argsort(tail_res, kind="stable")
    srt = tail_res[order]
    firsts = np.sort(order[np.diff(srt, prepend=srt[:1] - 1) != 0])
    rows = np.searchsorted(firsts, ends)
    sizes = plan.sizes._replace(cells=int(held @ rows), widest=int(rows[-1]))
    return _Prefixes(of, ends.tolist(), held, tail_res, sizes,
                     len(plan.tails) + int(rows.sum()))


def _runs(res: np.ndarray, row: np.ndarray) -> tuple:
    """How one segment's tails, of residues ``res``, add into F, given
    ``row``, F's row of each residue so far (-1: none), which it extends
    by the residues new here.

    A residue's tails are a run.  The runs go longest first, so the
    j-th tails of the runs longer than j are the leading runs, and the
    tails are laid out depth by depth: the first tail of every run, then
    the second of every run that has one, and so on.  F then takes each
    depth as one slice of the tails' phases, added row for row: the
    new residues' rows follow F's rows so far in the runs' order, so
    their depths add into leading slices of them (the first depth
    writes them), and the residues of F so far add into their rows.
    Returns the segment's tails in that order, as positions in ``res``,
    and for the runs of residues F has and then for the new ones, the
    lengths ``k`` of the depths (a depth's rows are ``rows[:k]``) and
    the rows."""
    order = np.argsort(res, kind="stable")
    srt = res[order]
    first = np.flatnonzero(np.diff(srt, prepend=srt[:1] - 1))
    length = np.diff(np.append(first, len(res)))
    held = row[srt[first]] >= 0
    taken, out = [], []
    for new, kind in ((False, held), (True, ~held)):
        # longest first, ties as the residues first appear
        runs = np.flatnonzero(kind)
        runs = runs[np.lexsort((order[first[runs]], -length[runs]))]
        if new:
            row[srt[first[runs]]] = row.max() + 1 + np.arange(len(runs))
        depths = [int(k) for k in
                  np.count_nonzero(length[runs][:, None]
                                   > np.arange(int(length.max(initial=0))),
                                   axis=0) if k]
        for j, k in enumerate(depths):
            taken.append(order[first[runs[:k]] + j])
        out.append((depths, row[srt[first[runs]]]))
    return np.concatenate(taken), tuple(out)


def _collapse(
    plan: _SplitPlan, rule: LatticeRule, prefixes: _Prefixes
) -> _Collapse:
    """A named family's table plan (:func:`_table_plan`) with its tails
    summed by residue: the weights need the sums ``S(k)`` only through
    their class sums over the residues ``rho(k) = k . g mod L``, and a
    pair cell's residues are ``rho(a) +- rho(tau)``.

    Each head pairs with a prefix of the tails, and per prefix and
    residue v, ``F_v = sum exp(2 pi i tau . x)`` over its tails tau of
    residue v.  With a head's ``e_a``, ``X = sum_n c e_a Re F_v`` and ``Y
    = sum_n c e_a Im F_v``, ``X + i Y`` sums ``S(a, tau)`` over those
    tails, to be added at the residue ``rho(a) + v``, and ``X - i Y``
    sums ``S(a, -tau)``, at ``rho(a) - v``: one cell ``(a, v)``, 4 real
    multiply-adds a sample and vector, serves every tail of residue v of
    both signs.  The zero tail is its own negation and enters F at half
    weight, once over both signs; the zero head's cells take no
    negations, whose sums are the conjugates the finisher adds
    (:func:`_finish`), and its cell with the zero tail, the zero row, is
    then half of it as :func:`_node_weights` has it.  The prefixes' F
    are running sums, each segment adding its tails' phases depth by
    depth (:func:`_runs`), and their rows leading slices of the
    largest, so per block of samples F is built once, one addition per
    tail.
    """
    L, h = rule.L, plan.heads.shape[1]
    ends, held = prefixes.ends, prefixes.held
    row = np.full(L, -1)
    horder = np.argsort(-prefixes.of, kind="stable")
    heads = plan.heads[horder]
    a0 = len(heads)
    order, steps, done = [], [], 0
    for t0, t1, n in zip([0] + ends[:-1], ends, held.tolist()):
        taken, (old, new) = _runs(prefixes.tail_res[t0:t1], row)
        order.append(t0 + taken)
        r = int(row.max()) + 1
        lo = int(old[1].min()) if len(old[1]) else done
        steps.append((old, new, lo, a0 - n, a0, r))
        a0, done = a0 - n, r
    tails = plan.tails[np.concatenate(order)]
    res = np.empty(r, dtype=np.int64)
    res[row[row >= 0]] = np.flatnonzero(row >= 0)
    return _Collapse(heads, tails, _Sides(heads, tails), prefixes.sizes,
                     tuple(steps), int(np.flatnonzero(~tails.any(axis=1))[0]),
                     _residues(heads, rule, slice(None, h)), res,
                     heads.any(axis=1))


def _collapse_price(prefixes: _Prefixes) -> float:
    """Predicted seconds per sample of a collapsed pass after its phases,
    with both coefficient vectors, to set against :func:`_cells_price`
    of the table plan it collapses: its cells, whose partial sums are
    written and added once per block of samples (a block also holding F
    beside F stacked by c), and its rows added or scaled outside the
    products (``adds``), a complex row of samples each, priced as a
    coordinate of a phase (a gather and a product of such a row)."""
    return _cells_price(prefixes.sizes, 3) + prefixes.adds * _PHASE_S


def _collapsed_adjoint(
    X: np.ndarray, tails: _Collapse, cvecs: list, threads: int, L: int
) -> list[np.ndarray]:
    """The class sums ``b_u = sum S(r)`` over the representatives r of
    residue u of a collapsed plan (:func:`_collapse`), one length-L
    vector per real coefficient vector c, for :func:`_finish`.

    Per block of samples, F is built one prefix at a time, its
    segment's tails added in, and stacked once per vector and scaled
    by its c in one buffer ``(rows, vector, cos | sin, samples)``, so a
    prefix's F for every vector is a leading slice; one real product of
    that slice with the cosine and sine rows of the prefix's heads gives
    the four real sums of every cell for each vector.  The products are
    summed over the blocks, and each cell's ``X +- i Y`` is added at its
    residues once at the end.
    """
    p, rows = len(cvecs), len(tails.res)
    block, phases = _split_phases(tails, len(X), p + 1)
    ones = [not np.any(cv != 1.0) for cv in cvecs]

    def one(s: int, e: int) -> list[np.ndarray]:
        A, B = phases(X[s:e])
        B[tails.zero] *= 0.5  # its phases are 1: exact
        m = e - s
        # made per block, so never held while the next block's phases
        # are built; F apart, as additions into a strided view of the
        # stack cost about half as much again
        stacked, F = np.empty((rows, p, 2, m)), np.empty((rows, 2, m))
        cells, t, done = [], 0, 0
        for (old, into), (new, _), lo, a0, a1, r in tails.steps:
            if old:
                # the runs of residues F has, summed apart, then added
                part, t = B[t:t + old[0]], t + old[0]
                if len(old) > 1:
                    part = part.copy()
                    for k in old[1:]:
                        part[:k] += B[t:t + k]
                        t += k
                F[into] += part
            for j, k in enumerate(new):
                if j:
                    F[done:done + k] += B[t:t + k]
                else:
                    F[done:done + k] = B[t:t + k]
                t += k
            done = r
            # the rows from lo on changed: stacked again
            for v, (cv, unit) in enumerate(zip(cvecs, ones)):
                if unit:
                    stacked[lo:r, v] = F[lo:r]
                else:
                    np.multiply(F[lo:r], cv[s:e], out=stacked[lo:r, v])
            cells.append(stacked[:r].reshape(-1, m)
                         @ A[a0:a1].reshape(-1, m).T)
        return cells

    cells = _sum_blocks(len(X), block, one, threads)
    del one, phases  # the phase buffers go before the sums are formed
    parts = [[np.zeros(L), np.zeros(L)] for _ in cvecs]
    for (*_, a0, a1, r), prod in zip(tails.steps, cells):
        # g[row, vector, p, head, q]: the sum of c, F's real (p = 0) or
        # imaginary (p = 1) part and the head's cosine (q = 0) or sine
        # (q = 1)
        g = prod.reshape(r, p, 2, a1 - a0, 2)
        head, res = tails.head_res[a0:a1], tails.res[:r, None]
        up, down = (head + res) % L, (head - res) % L
        keep = tails.reflect[a0:a1]
        for (re, im), gv in zip(parts, g.transpose(1, 2, 4, 0, 3)):
            (xc, xs), (yc, ys) = gv
            # X + i Y at rho(a) + v, X - i Y at rho(a) - v
            re += np.bincount(up.ravel(), (xc - ys).ravel(), L)
            im += np.bincount(up.ravel(), (xs + yc).ravel(), L)
            re += np.bincount(down[:, keep].ravel(),
                              (xc + ys)[:, keep].ravel(), L)
            im += np.bincount(down[:, keep].ravel(),
                              (xs - yc)[:, keep].ravel(), L)
    return [re + 1j * im for re, im in parts]


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
    + i Re sum (-i Q_r) e_r``: p = 1 coefficient column (P) when Q is
    zero, i.e. the model is real, and else p = 2 (P and -i Q).

    A representative is ``(a, +-tau)`` and ``e_{(a, +-tau)} = e_a (cos
    +- i sin)`` of tau, so a column's sum is ``Re sum_a e_a G_a`` with
    ``G_a = sum_tau (M_{a,tau} + M_{a,-tau}) cos + i (M_{a,tau} -
    M_{a,-tau}) sin``, M the column's coefficients.  That is a real
    bilinear form in the heads' cosines and sines and the tails'.  Per
    block and bucket, on the planar phases (:func:`_split_phases`), one
    real product ``w @ B`` of the bucket's matrix w with the wider
    side's cosine and sine rows B gives, per cosine or sine of the
    narrower side, p rows, and their row-wise products with the
    narrower side's own cosine or sine rows, summed, add the bucket's
    share of f.  The product runs once per plane (cosines, sines) of the
    narrower side, over the planes of the wider side it weighs: a model
    whose coefficients are real and equal on k and -k weighs cosines by
    cosines and sines by sines alone, so half of w is zero and skipped.
    """
    coef = _folded_coefficients(plan.fold, theta)
    p = coef.shape[1]
    if p == 2:
        coef[:, 1] *= -1j
    mats = []
    for a0, a1, tb, ii, jj, flip, rows in plan.buckets:
        m = np.zeros((2, a1 - a0, _width(tb), p), dtype=np.complex128)
        m[flip.view(np.uint8), ii, jj] = coef[rows]
        C, D = m[0] + m[1], m[0] - m[1]
        # w[a, x, t, y, col]: the weight of the head's cosine (x = 0) or
        # sine (x = 1) times the tail's cosine (y = 0) or sine (y = 1)
        w = np.empty((a1 - a0, 2, m.shape[2], 2, p))
        w[:, 0, :, 0] = C.real
        w[:, 0, :, 1] = -D.imag
        w[:, 1, :, 0] = -C.imag
        w[:, 1, :, 1] = -D.real
        # per plane x of the narrower side, its matrix: rows (col,
        # narrower side), columns (wider side, y) over the planes y of the
        # wider side it weighs
        by_heads = m.shape[2] < a1 - a0
        w = w.transpose((4, 2, 3, 0, 1) if by_heads else (4, 0, 1, 2, 3))
        sides = []
        for x in (0, 1):
            ys = [y for y in (0, 1) if w[:, :, x, :, y].any()]
            if ys:
                wx = w[:, :, x][..., ys].reshape(p * w.shape[1], -1)
                sides.append((x, ys, wx))
        mats.append((by_heads, sides))
    out = np.empty(len(X), dtype=np.complex128)
    block, phases = _split_phases(plan, len(X))
    for s in range(0, len(X), block):
        A, B = phases(X[s:s + block])
        f = np.zeros((p, A.shape[2]))
        for (a0, a1, tb, *_), (by_heads, sides) in zip(plan.buckets, mats):
            Ab, Bb = A[a0:a1], B[tb]
            wide, narrow = (Ab, Bb) if by_heads else (Bb, Ab)
            for x, ys, wx in sides:
                # one plane is a strided view, both are the whole side
                op = (wide[:, ys[0]] if len(ys) == 1
                      else wide.reshape(-1, wide.shape[2]))
                f += np.einsum(
                    "pjn,jn->pn", (wx @ op).reshape(p, len(narrow), -1),
                    narrow[:, x],
                )
        out.real[s:s + block] = f[0]
        out.imag[s:s + block] = f[1] if p == 2 else 0.0
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


def _residues(
    freq: np.ndarray, rule: LatticeRule, cols: slice = slice(None)
) -> np.ndarray:
    """``k . g mod L`` for every row k of ``freq``, exactly, over the
    coordinates ``cols`` of g (all of them by default): the rows are
    reduced mod L first when ``max |k_j| sum g`` could reach 2^63, and
    multiplied as they are otherwise (a quarter of the cost)."""
    L = rule.L
    g = np.array([v % L for v in rule.g[cols]], dtype=np.int64)
    top = max(-int(freq.min()), int(freq.max())) if freq.size else 0
    if top * int(g.sum()) >= 1 << 63:
        freq = freq % L
    return (freq @ g) % L


class _Classes(NamedTuple):
    """Rows grouped by residue modulo L: the gather ``order`` that puts
    their coefficients in stable residue order, each occupied residue's
    run ``starts`` in it and the ``occupied`` residues."""

    L: int
    order: np.ndarray
    starts: np.ndarray
    occupied: np.ndarray


def _classes(residues: np.ndarray, L: int) -> _Classes:
    """Group rows by their residues, each in ``[0, L)``."""
    # numpy sorts keys of 16 bits by radix: 0.1 ms against 1.2 ms as
    # int64 for 16,641 rows
    key = residues.astype(np.uint16) if L <= 1 << 16 else residues
    counts = np.bincount(residues, minlength=L)
    occupied = np.flatnonzero(counts)
    ends = np.cumsum(counts[occupied])
    return _Classes(
        L, np.argsort(key, kind="stable"), ends - counts[occupied], occupied
    )


def _lattice_sum(classes: _Classes, coef: np.ndarray) -> np.ndarray:
    """``sum_j coef_j exp(2 pi i r_j l / L)`` at l = 0, ..., L - 1 over
    the classed residues r_j; with ``r_j = k_j . g mod L``, the values
    ``sum_j coef_j exp(2 pi i k_j . z_l)`` at the nodes.  Each residue's
    run is summed by one ``np.add.reduceat``, then one length-L inverse
    FFT finishes; O(|coef| + L log L)."""
    b = np.zeros(classes.L, dtype=np.complex128)
    b[classes.occupied] = np.add.reduceat(
        coef.take(classes.order), classes.starts
    )
    return classes.L * np.fft.ifft(b)


def _node_weights(
    plan: _SplitPlan, sums: list[np.ndarray], rule: LatticeRule
) -> list[np.ndarray]:
    """``sum_k S(k) exp(-2 pi i k . z_l)`` at every node for each vector
    of ``sums``, over the rows k of the plan's set, from the sums
    ``S(r)`` of its representatives with ``S(-r) = conj S(r)``.

    Each representative's residue ``rho = k . g mod L``, its head's plus
    or minus its tail's, is classed once (:func:`_classes`), n entries
    for n representatives, and one classing serves every vector.  Per
    vector, one gather and one ``np.add.reduceat`` sum S per class, each
    representative weighted by the rows it stands for; :func:`_finish`
    then takes a class sum to the negated residue, where its rows r
    take S(r), and its conjugate to the residue itself, where the rows
    -r take conj S(r).  On a set closed under negation every
    representative stands for as many rows r as rows -r, so one class
    sum serves both signs: a table plan's representatives each stand
    for one of each, but the zero row, the first, which is its own
    negation and enters at half weight on both sides (S(0) is the real
    sum of the coefficients, so the halves add up to it exactly); a
    custom set's take half their count of rows.  Any other set sums its
    representatives once per sign, each weighted by its rows of that
    sign.  No array of the set's rows is built.
    """
    L, n = rule.L, len(sums[0])
    classes = _classes(_cell_residues(plan, rule), L)
    fold = plan.fold

    def class_sums(s: np.ndarray, weight) -> np.ndarray:
        b = np.zeros(L, dtype=np.complex128)
        if n:
            part = s.take(classes.order)
            if weight is None:
                # the zero row, representative 0 of residue 0, leads the
                # stable class order
                part[0] *= 0.5
            else:
                part *= weight.take(classes.order)
            b[classes.occupied] = np.add.reduceat(part, classes.starts)
        return b

    if fold.rep is None:
        weights = None
    elif fold.closed:
        weights = 0.5 * np.bincount(fold.rep, minlength=n)
    else:
        plus = np.bincount(fold.rep, ~fold.flip, n)
        minus = np.bincount(fold.rep, fold.flip, n)
        return _finish([class_sums(s, plus) for s in sums], L,
                       [class_sums(s, minus) for s in sums])
    return _finish([class_sums(s, weights) for s in sums], L)


def _cell_residues(plan: _SplitPlan, rule: LatticeRule) -> np.ndarray:
    """``r . g mod L`` for every representative r of the plan, in the
    order of the buckets' ``rows``: its head's residue plus or minus its
    tail's."""
    L, h = rule.L, plan.heads.shape[1]
    head = _residues(plan.heads, rule, slice(None, h))
    tail = _residues(plan.tails, rule, slice(h, None))
    rho = np.empty(sum(len(b[6]) for b in plan.buckets), dtype=np.int64)
    for a0, a1, tb, ii, jj, flip, rows in plan.buckets:
        t = tail[tb].take(jj)
        np.negative(t, out=t, where=flip)
        t += head[a0:a1].take(ii)
        t %= L
        rho[rows] = t
    return rho


def _finish(
    plus: list[np.ndarray], L: int, minus: Optional[list] = None
) -> list[np.ndarray]:
    """The weights ``L ifft(b)`` of class sums: per vector, ``b[-u] =
    plus[u]`` and ``b[u] += conj minus[u]`` at every residue u, the
    class sums of the rows that take S(r) and of those that take conj
    S(r) (:func:`_node_weights`); ``minus`` is ``plus`` when not given,
    a set closed under negation.

    Such a set has real weights, so two vectors run as one: with ``2^e``
    an exact power of two that brings the second vector's class sums to
    the first's magnitude, ``b_1 + i 2^e b_2`` takes one length-L
    inverse FFT; the real part is the first vector and the imaginary
    part over ``2^e`` the second, each within rounding of its own size.
    Any other set takes one FFT per vector."""
    neg = (-np.arange(L)) % L
    if minus is not None:
        out = []
        for p, m in zip(plus, minus):
            b = p.take(neg)
            b += m.conj()
            out.append(L * np.fft.ifft(b))
        return out
    out = []
    # an odd vector out pairs with zeros
    for b1, b2 in zip(plus[::2], plus[1::2] + [np.zeros(L, complex)]):
        top1, top2 = (float(np.max(np.abs(b.view(np.float64)), initial=0))
                      for b in (b1, b2))
        e = math.frexp(top1)[1] - math.frexp(top2)[1] if top1 and top2 else 0
        scale = math.ldexp(1.0, e)
        z = 1j * (scale * b2)
        b = (b1 + z).take(neg)
        b += b1.conj() - z.conj()
        w = L * np.fft.ifft(b)
        out += [np.ascontiguousarray(w.real), w.imag / scale]
    return out[:len(plus)]


# The weight routes: (data, rule, index_set, cvecs, threads, cap) in, one
# vector per coefficient vector out; ``cap`` bounds any enumeration, and
# the lazy named sets general-FFT takes without one.


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
    ``_NAIVE_BLOCK`` entries.  Each sample angle is reduced by whole
    turns (:func:`_naive_turns`), and each node angle is taken from the
    residue of k in integers.  The reference the other routes are tested
    against, so it shares none of their helpers; it runs on one thread
    whatever ``threads`` says."""
    freq = index_set.materialized(cap).frequencies
    work = rule.L * data.N * len(freq)
    if work > work_cap:
        raise CapExceeded(work, work_cap)
    step = max(1, _NAIVE_BLOCK // max(len(freq), 1))
    sums = [np.zeros(len(freq), dtype=np.complex128) for _ in cvecs]
    for s in range(0, data.N, step):
        ph = np.exp(2j * np.pi * _naive_turns(data.X[s:s + step], freq))
        for acc, cvec in zip(sums, cvecs):
            acc += cvec[s:s + step] @ ph
    # node l's phase of k turns by (l rho mod L) / L for the residue rho
    # = k . g mod L, both taken in integers below L^2: exact at any k
    L = rule.L
    rho = np.zeros(len(freq), dtype=np.int64)
    for j, gj in enumerate(rule.g):
        rho = (rho + freq[:, j] % L * (gj % L)) % L
    out = np.empty((len(cvecs), L), dtype=np.complex128)
    for s in range(0, L, step):
        turns = np.outer(np.arange(s, min(s + step, L)), rho) % L / L
        ph = np.exp(-2j * np.pi * turns)
        for i, acc in enumerate(sums):
            out[i, s:s + step] = ph @ acc
    return list(out / data.N)


def _naive_turns(X: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """``k . x`` in turns for every point x in [0, 1)^d (rows of X) and
    every frequency row k, reduced to [-1/2, 1/2].

    Per coordinate, k splits into limbs ``k = sum_i l_i 2^(21 i)`` with
    ``|l_i| < 2^21``, and ``x 2^(21 i)`` loses only whole turns when
    reduced by its floor (a power-of-two scaling is exact).  Each point
    splits as ``xh + xl`` with xh on a grid of 2^-32, so ``xh l`` is
    exact and loses its whole turns without rounding, and ``xl l``, below
    2^-12, is added after: each angle is off by a few ulp of one turn at
    any integer k.  The naive route's own reduction, sharing nothing
    with the phase tables of the fast routes.
    """
    t = np.zeros((len(X), len(freq)))
    for j in range(freq.shape[1]):
        x, k = X[:, j], freq[:, j]
        while np.any(k):
            low = np.sign(k) * (np.abs(k) % (1 << 21))
            xh = np.round(x * 2.0**32) * 2.0**-32
            p = np.outer(xh, low)
            t += p - np.round(p)
            t += np.outer(x - xh, low)
            t -= np.round(t)
            k = (k - low) >> 21
            x = x * 2.0**21
            x = x - np.floor(x)
    return t


def _general_fft_route(
    data: Dataset,
    rule: LatticeRule,
    index_set: IndexSet,
    cvecs: list[np.ndarray],
    threads: int,
    cap: int,
    split: Union[_TableSplit, _SplitPlan, None] = None,
    collapse: bool = False,
) -> list[np.ndarray]:
    """One adjoint transform pass shared by every coefficient vector,
    then one lattice finisher (:func:`_finish`), whatever the plan.

    phi_hat_k = (1/N) sum_n c_n exp(2 pi i k . x_n) by the cheapest
    head/tail split of the set (:func:`_split_adjoint`), blocked over n;
    ``split`` is that split when :func:`choose_route` has priced it (a
    :class:`_TableSplit` of a named family, the plan of a custom set).
    The coefficients are real, so phi_hat_{-k} = conj phi_hat_k: the pass
    sums only the representatives ``r >=_lex 0`` of the rows, about half
    of them, and the fold takes each one's sum for r and its conjugate
    for -r.  A named family's plan is read from its run tables
    (:func:`_table_plan`), so its rows are never built; a lazy one above
    ``cap`` rows is refused all the same, before any work.  Once the rule
    is known, its tails are collapsed by residue (:func:`_collapse`)
    where that pass is priced below the table plan's products
    (:func:`_collapse_price`, :func:`_cells_price`; the phases are the
    same), or whatever the price when ``collapse`` is set, and the pass
    sums each residue class (:func:`_collapsed_adjoint`).  A custom
    set's plan comes from its rows (:func:`_split_rows`); its pair cells
    are summed (:func:`_split_adjoint`) and folded
    (:func:`_node_weights`).
    """
    if index_set.frequencies is None and index_set.cardinality() > cap:
        raise CapExceeded(index_set.cardinality(), cap)
    if index_set.family == "custom":
        plan = split if split is not None else _split_rows(
            index_set.frequencies)
    else:
        plan = _table_plan(split if split is not None
                           else _cheapest_split(index_set))
        prefixes = _prefixes(plan, rule)
        if collapse or _collapse_price(prefixes) < _cells_price(plan.sizes, 2):
            tails = _collapse(plan, rule, prefixes)
            sums = _collapsed_adjoint(data.X, tails, cvecs, threads, rule.L)
            for b in sums:
                b /= data.N
            return _finish(sums, rule.L)
    sums = _split_adjoint(data.X, plan, cvecs, threads)
    for acc in sums:
        acc /= data.N  # in place: the undivided sums are not held beside
    return _node_weights(plan, sums, rule)


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
    """The DP of a rectangle (one run of cost 0, budget 0) or a step cross,
    laid out by the links of its cost-group walk (``IndexSet._groups``).

    A run ``r`` of coordinate j sums ``exp(2 pi i k_j x)`` over its
    annulus ``ups[r - 1] < |k_j| <= ups[r]``: the kernel of order
    ``ups[r]`` less that of ``ups[r - 1]`` (run 0: the full kernel).  An
    empty run contributes exactly zero and has no link.  Each link
    multiplies its prefix group by its run's annulus and sums the product
    into its cost group; on the last coordinate the runs a group links to
    form a prefix of the table less its empty runs, whose annuli add up to
    the full kernel of the largest, summed into a single group.
    """
    runs = index_set._runs
    d = len(runs.ups)
    coords, kernels = [], []
    passes, held, groups = d + 2, 0, 0
    for j, (_, counts, prev, run, group) in enumerate(index_set._groups):
        ups = runs.ups[j].tolist()
        links = zip(prev.tolist(), run.tolist(), group.tolist())
        if j == d - 1:
            # runs ascend within a group, so its last link holds its
            # largest run; every group sums into one
            top = {g: r for g, r, _ in links}
            terms = [(g, (ups[r], None), 0) for g, r in top.items()]
            counts = counts[:1]
        else:
            terms = [(g, (ups[r], ups[r - 1] if r else None), c)
                     for g, r, c in links]
        sums = tuple(
            tuple((g, f) for g, f, c in terms if c == k)
            for k in range(len(counts))
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
    route ``algorithm``, which must be able to serve the set, with
    ``threads`` a positive integer."""
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be a positive integer: {threads!r}")
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


def _collapsed_weights(
    data: Dataset, rule: LatticeRule, index_set: IndexSet, threads: int = 1
) -> list[np.ndarray]:
    """Both weight vectors of a named family by general-FFT at its
    cheapest split, with the tails collapsed by residue whatever the
    price (:func:`_collapse`): the collapsed pass's entry for the oracle
    checks, which ``auto`` may take only once they hold."""
    return _run("general-fft", data, ["ones", "responses"], rule, index_set,
                threads, collapse=True)


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
    frequency into a head and a tail ``+-tau`` and runs as real matrix
    products, so the cost is O(N (cells + h |heads| + (d - h) |tails| +
    trig) + d |K| + L log L) at the cheapest split point h, with trig the
    cosine and sine columns its axes compute directly (about log2 of
    each axis' span).  The coefficients are real, so only the rows ``r
    >=_lex 0`` are summed and their negations take the conjugates, and a
    pair cell ``(a, tau)``, 4 real multiply-adds a sample, gives the sums
    of both ``(a, tau)`` and ``(a, -tau)``: about |K| / 4 pair cells on
    crosses and step crosses.  The result is ``float64`` on a set closed
    under negation, as every named family is, and complex otherwise.
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
#   general-FFT, per sample: _GEMM_S per pair cell (both coefficient
#   vectors, 4 real multiply-adds each, in one stacked product), and
#   _BLOCK_S per pair cell and block sample (its partial sums, written
#   and added once per block of _block samples), _PHASE_S per coordinate
#   of each head and tail phase and per product of phase columns an axis
#   makes of baby and giant steps, and _TRIG_S per cosine and sine column
#   an axis computes directly (one half-angle tangent row and a few
#   products, _turn_phases), fitted by nonnegative least squares in
#   relative error to the split pass of paper-2d's set and its
#   16,641-row model, cross-4d, stepcross-6d and a d=8, m=6 step cross
#   (N = 1,000) at 19 split points, measured twice (38 cases, predictions
#   0.76-1.27 times the measured seconds, the same case differing by up
#   to 1.5 times between the two rounds; the three terms without
#   _BLOCK_S fit 0.63-1.33; BENCH_table_plan.json); _TRIG_S alone was
#   refit on the same 38 cases with the other three held, after the
#   cosine and sine became the tangent (predictions 0.79-1.26 times the
#   measured seconds; the parent's cosine and sine refit in the same
#   conditions gave 3.7e-8; BENCH_half_angle.json);
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
_GEMM_S = 4.2e-10
_BLOCK_S = 7.9e-9
_PHASE_S = 2.9e-9
_TRIG_S = 2.1e-8
_PASS_S = 9.0e-10
_DIRICHLET_S = 4.3e-8

# The cost of a directly computed cosine and sine column, in products of
# one phase column (7 at the fitted prices: a column of the half-angle
# tangent took 7-12 ns an element in blocks of 400 to 11,000 samples on
# that machine, a complex product of two rows 1-1.5 ns).  Derived, so a
# refit of either price moves it too.
_TRIG_PRODUCTS = round(_TRIG_S / _PHASE_S)


def choose_route(
    n_samples: int,
    rule: LatticeRule,
    index_set: IndexSet,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Predict the cost of every route that can serve a set; pick the least.

    ``general-fft`` serves any set at its cheapest head/tail split of
    the rows ``>=_lex 0``, about half the set: per sample, the pair
    cells of the split's matrix products and their partial sums per
    block, the coordinates of its head and tail phases and the cosine
    and sine columns of their axes; a lazy set above ``cap`` rows is no
    candidate.  A named family is sized from its run tables
    (:func:`_table_splits`, the very split the route then expands) and a
    custom set from its rows, so a lazy set and its materialised copy get
    the same price.  The kernel route of a
    rectangle or a step cross costs about ``N L`` times the full-size
    array passes (DP products and sums) and Dirichlet kernels of the plan
    it runs.  Every cost is exactly proportional to N, so a subsample
    takes the route the full data would.  The set is sized by
    :meth:`IndexSet.cardinality`, which caches the count on it, from the
    same walk of cost groups that sizes the splits, and a named family is
    never enumerated.

    Returns:
        ``{"route": name, "costs": {route: predicted seconds}}`` over the
        candidate routes.

    Raises:
        CapExceeded: when no route is left, i.e. a lazy set that only
            general-FFT can serve holds more than ``cap`` rows.
    """
    return _route_choice(n_samples, rule, index_set, cap)[0]


def _route_choice(
    n_samples: int, rule: LatticeRule, index_set: IndexSet, cap: int
) -> tuple[dict, Union[_TableSplit, _SplitPlan, None]]:
    """:func:`choose_route`'s result, and the split general-FFT priced
    when it is a candidate (else None), for the route to run without
    pricing it again."""
    count = index_set.cardinality()
    costs, split = {}, None
    if index_set.family == "custom":
        split = _split_rows(index_set.frequencies)
    elif not (index_set.frequencies is None and count > cap):
        split = _cheapest_split(index_set)
    if split is not None:
        costs["general-fft"] = n_samples * _split_price(split.sizes)
    if index_set.family in _ROUTES:
        plan = _sweep_plan(index_set)
        costs[index_set.family] = n_samples * rule.L * (
            plan.passes * _PASS_S + len(plan.kernels) * _DIRICHLET_S
        )
    if not costs:
        raise CapExceeded(count, cap)
    return {"route": min(costs, key=costs.get), "costs": costs}, split


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
    return _lattice_sum(_classes(_residues(-freq, rule), rule.L), phihat)


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
                if fh.read(1):
                    raise ValueError(f"{data_path}: bytes after the payload")
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
            to be cheapest, and general-FFT then runs the split it
            priced; explicit choices are "naive", "general-fft",
            "rectangle", "step-cross".
        threads: worker threads for the blocked passes; the result is
            bitwise identical for any value.
        cap: cardinality cap applied when the set must be enumerated.

    Returns:
        WeightSet with real vectors for the named families and for
        custom sets closed under negation; other custom sets keep
        complex vectors when their imaginary parts do not cancel.
    """
    return _compress(data, rule, index_set, algorithm, threads, cap)


def _compress(
    data: Dataset,
    rule: LatticeRule,
    index_set: IndexSet,
    algorithm: str,
    threads: int,
    cap: int,
    priced: Optional[tuple] = None,
) -> WeightSet:
    """:func:`compress`, given :func:`_route_choice`'s result for these
    arguments when the caller has priced the routes already: then "auto"
    takes its route and general-FFT its split, and nothing is priced
    again."""
    _check_dims(data.d, rule, index_set)
    if index_set.frequencies is None:
        # A copy of the lazy set: sizing it below caches the count and
        # its walk here, not on the caller's object, and the result's
        # descriptor reuses the count.
        index_set = index_set.descriptor()
    if algorithm == "auto" and priced is None:
        priced = _route_choice(data.N, rule, index_set, cap)
    extra = {}
    if algorithm == "auto":
        algorithm = priced[0]["route"]
    if algorithm == "general-fft" and priced is not None:
        extra["split"] = priced[1]
    w1, w2 = _run(
        algorithm, data, ["ones", "responses"], rule, index_set, threads,
        cap, **extra
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
