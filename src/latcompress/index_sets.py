r"""Finite frequency sets adapted to weighted smoothness.

The decay profile :math:`r_\alpha(\gamma, k) = \prod_j \max(|k_j|^{2\alpha}
/ \gamma_j, 1)` induces three nested families of finite index sets:

* cross: :math:`\{k : r_\alpha(\gamma, k) \le \nu\}`,
* rectangle: :math:`\{k : \max_j r_\alpha(\gamma_j, k_j) \le \nu\}`,
* step cross: a union of dyadic rectangles
  :math:`\bigcup_{\|t\|_1 = m} \{k : r_\alpha(\gamma_j, k_j) \le 2^{t_j}\}`.

Each family gives every coordinate a cost that never decreases with
|k_j|, accumulates the costs from left to right and compares the total
with a budget: the cross multiplies the profile factors against nu, the
step cross adds the smallest dyadic levels against m, and the rectangle's
costs are all zero, so only its half-widths bound it.  A family is
therefore one table of runs per coordinate (the largest |k_j| of each run
and its cost).  One walk, :func:`_cost_group_steps`, groups a set's
prefixes by accumulated cost after each coordinate, without a row, and
links each group to the nonempty runs it admits and the groups they
lead to.  It counts the set (:meth:`IndexSet.cardinality`), and its
links alone say which rows the set admits: they give the rows and a
split plan's heads and tails (:func:`_rows`), each tail's last
admitting group (:func:`_last_group`), the split prices and the kernel
route's DP.  The rows are built in one place, :func:`_capped_rows`,
only after the count has passed the cap.  Only the walk and the scalar
:meth:`IndexSet.contains` test a cost against the budget, through one
predicate with a relative slack of 1e-12, so counting, enumeration and
membership never disagree about a frequency on a level line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .lattice import ProductWeights
from .special import zeta

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "r_alpha",
    "rectangle_halfwidths",
    "enumerate_cross",
    "enumerate_rectangle",
    "enumerate_shape_vectors",
    "enumerate_step_cross",
    "cross_cardinality_constant",
    "cardinality_bound_cross",
    "IndexSet",
]

DEFAULT_CAP = 10_000_000

# Multiplicative slack applied to every budget comparison.  Large enough
# to swallow last-ulp noise in the power evaluations, small enough never
# to admit a genuinely out-of-budget frequency.
_SLACK = 1.0 + 1e-12

FAMILIES = ("cross", "rectangle", "step-cross", "custom")


class CapExceeded(RuntimeError):
    """Raised when an enumeration would produce more rows than allowed."""

    def __init__(self, predicted: int, cap: int):
        self.predicted = int(predicted)
        self.cap = int(cap)
        super().__init__(
            f"index set would hold {predicted} frequencies, "
            f"above the cap of {cap}"
        )


def _as_gamma(gamma: Union[ProductWeights, Sequence[float]]) -> ProductWeights:
    if isinstance(gamma, ProductWeights):
        return gamma
    return ProductWeights(tuple(gamma))


def _coord_power(absk, two_alpha: float):
    """|k|^(2 alpha) through one NumPy code path for scalars and arrays."""
    return np.power(np.float64(absk) if np.isscalar(absk) else absk,
                    np.float64(two_alpha))


def _coord_factor(two_alpha: float, gamma_j: float, kj: int) -> float:
    """Per-coordinate profile max(|k_j|^(2 alpha) / gamma_j, 1)."""
    powk = _coord_power(abs(int(kj)), two_alpha)
    return float(max(powk / gamma_j, 1.0))


def _within(factor: float, budget: float) -> bool:
    """The one boundary predicate every enumeration and query shares."""
    return factor <= budget * _SLACK


def _halfwidth(two_alpha: float, gamma_j: float, budget: float) -> int:
    """Largest q >= 0 with max(q^(2 alpha) / gamma_j, 1) within budget.

    Returns -1 when not even q = 0 qualifies (budget below 1).
    """
    if not _within(1.0, budget):
        return -1
    guess = (gamma_j * budget * _SLACK) ** (1.0 / two_alpha)
    q = max(0, int(math.floor(guess)))
    while not _within(_coord_factor(two_alpha, gamma_j, q), budget):
        q -= 1
    while _within(_coord_factor(two_alpha, gamma_j, q + 1), budget):
        q += 1
    return q


def r_alpha(
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    k: Sequence[int],
) -> float:
    """Decay profile ``prod_j max(|k_j|^(2 alpha) / gamma_j, 1)``.

    Args:
        alpha: smoothness parameter, any positive value.
        gamma: product weights; length must match ``k``.
        k: integer frequency vector.

    Returns:
        The profile value, always at least 1.

    Examples:
        >>> r_alpha(1.0, (0.25,), (2,))
        16.0
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"profile requires alpha > 0, got {alpha!r}")
    gamma = _as_gamma(gamma)
    if len(k) != gamma.d:
        raise ValueError(
            f"frequency has {len(k)} coordinates but {gamma.d} weights given"
        )
    two_alpha = 2.0 * alpha
    out = 1.0
    for gj, kj in zip(gamma, k):
        out = out * _coord_factor(two_alpha, gj, kj)
    return out


def _validate_geometry(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"index sets require alpha > 0, got {alpha!r}")
    return alpha


def rectangle_halfwidths(
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    nu: float,
) -> np.ndarray:
    """Per-coordinate half-widths ``k*_j`` of the rectangle at level nu.

    ``k*_j`` is the largest integer with ``max(q^(2 alpha) / gamma_j, 1)``
    within the budget ``nu``; equivalently ``floor((gamma_j nu)^(1/(2
    alpha)))`` away from exact boundary ties.

    Examples:
        >>> rectangle_halfwidths(1.0, (1.0,), 16.0).tolist()
        [4]
    """
    alpha = _validate_geometry(alpha)
    gamma = _as_gamma(gamma)
    nu = float(nu)
    if not math.isfinite(nu) or nu < 1.0:
        raise ValueError(f"rectangle level must be at least 1, got {nu!r}")
    two_alpha = 2.0 * alpha
    return np.asarray(
        [_halfwidth(two_alpha, gj, nu) for gj in gamma], dtype=np.int64
    )


class _Runs(NamedTuple):
    """The per-coordinate run tables of a named family.

    Coordinate j's values split into runs: run r holds the k_j with
    ``ups[j][r - 1] < |k_j| <= ups[j][r]`` (run 0: ``|k_j| <= ups[j][0]``),
    all at cost ``costs[j][r]``, and costs never decrease along a table.
    A frequency belongs to the set when its costs, accumulated from left
    to right by ``combine`` from the ufunc's identity, stay within
    ``budget`` after every coordinate (:func:`_admits`).  Each table
    ends at the last run its coordinate admits on its own.
    """

    ups: tuple[np.ndarray, ...]
    costs: tuple[np.ndarray, ...]
    combine: np.ufunc
    budget: float


def _family_runs(
    family: str,
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    param: float,
) -> _Runs:
    """Run tables of a cross, rectangle or step cross.

    * cross: one run per ``|k_j| = q`` up to the half-width at nu, costing
      the profile factor (bitwise the scalar ``_coord_factor``); costs
      multiply, the budget is nu.
    * rectangle: one run up to the half-width at nu, costing 0.
    * step cross: run t reaches the half-width at ``2^t`` and costs t,
      for t = 0..m; costs add, the budget is m.
    """
    alpha = _validate_geometry(alpha)
    gamma = _as_gamma(gamma)
    two_alpha = 2.0 * alpha
    if family == "rectangle":
        ups = [np.array([w]) for w in rectangle_halfwidths(alpha, gamma, param)]
        return _Runs(tuple(ups), (np.zeros(1),) * gamma.d, np.add, 0.0)
    if family == "step-cross":
        m = int(param)
        if m < 0:
            raise ValueError(f"step-cross order must be nonnegative, got {m}")
        ups = [
            np.array([_halfwidth(two_alpha, gj, 2.0 ** t) for t in range(m + 1)])
            for gj in gamma
        ]
        costs = (np.arange(m + 1, dtype=np.float64),) * gamma.d
        return _Runs(tuple(ups), costs, np.add, float(m))
    nu = float(param)
    if not math.isfinite(nu) or nu < 1.0:
        raise ValueError(f"cross level must be at least 1, got {nu!r}")
    ups = [np.arange(_halfwidth(two_alpha, gj, nu) + 1) for gj in gamma]
    costs = [
        np.maximum(_coord_power(up, two_alpha) / gj, 1.0)
        for gj, up in zip(gamma, ups)
    ]
    return _Runs(tuple(ups), tuple(costs), np.multiply, nu)


def _admits(runs: _Runs, acc, cost):
    """Whether a prefix of accumulated cost ``acc`` may take a run of
    ``cost``: the one predicate of the walk (:func:`_last_run`), whose
    links count and enumerate a set, and of :meth:`IndexSet.contains`.
    """
    return _within(runs.combine(acc, cost), runs.budget)


def _last_run(runs: _Runs, acc: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Index of the last run each accumulated cost admits, -1 for none.

    Costs never decrease, so the admitted runs form a prefix of the table;
    a binary search with the exact predicate finds where it ends.
    """
    last = np.full(len(acc), -1)
    step = 1 << len(costs).bit_length() >> 1
    while step:
        cand = last + step
        ok = cand < len(costs)
        ok[ok] = _admits(runs, acc[ok], costs[cand[ok]])
        last[ok] = cand[ok]
        step >>= 1
    return last


def _cost_group_steps(runs: _Runs, coords: range):
    """The prefixes over the coordinates ``coords``, accumulated from the
    identity and grouped by cost, after each coordinate in turn: the
    sorted costs, the exact Python-int number of prefixes at each, and
    the links ``(prev, run, group)`` into them: group ``prev[i]`` of the
    coordinate before admits its nonempty run ``run[i]`` into
    ``group[i]`` (an empty run holds no row).  No row is ever held."""
    acc = np.full(1, float(runs.combine.identity))
    out = np.ones(1, dtype=object)
    for j in coords:
        ups, costs = runs.ups[j], runs.costs[j]
        sizes = np.diff(2 * ups + 1, prepend=0).astype(object)
        n = _last_run(runs, acc, costs) + 1
        run = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        prev = np.repeat(np.arange(len(acc)), n)
        keep = sizes[run] > 0
        prev, run = prev[keep], run[keep]
        acc, group = np.unique(
            runs.combine(acc[prev], costs[run]), return_inverse=True
        )
        grouped = np.zeros(len(acc), dtype=object)
        np.add.at(grouped, group, out[prev] * sizes[run])
        out = grouped
        yield acc, out, prev, run, group


def _rows(runs: _Runs, steps: Sequence, coords: range):
    """The rows over ``coords`` that the zeros before them admit, in
    lexicographic order, and the cost group of each after its last
    coordinate, read from the links ``steps`` of the walk over every
    coordinate (:func:`_cost_group_steps`).  The zeros, costing the
    identity in every family, sit in the first group.  A row in group g
    takes ``-h..h``, h the reach of the last run g links to, and moves
    to the group its run links to.  The rows are closed under negation,
    so those ``>=_lex 0`` are the second half, the zero row first."""
    out = np.zeros((1, 0), dtype=np.int64)
    at = np.zeros(1, dtype=np.intp)
    for j in coords:
        ups, (_, _, prev, run, group) = runs.ups[j], steps[j]
        # the links run by group, then by run: a sorted key, whose last
        # link of each group holds its last run
        h = ups[run[np.flatnonzero(np.diff(prev, append=-1))]][at]
        n = 2 * h + 1
        kj = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n + h, n)
        out = np.column_stack((np.repeat(out, n, axis=0), kj))
        key = np.repeat(at, n) * len(ups) + np.searchsorted(ups, np.abs(kj))
        at = group[np.searchsorted(prev * len(ups) + run, key)]
    return out, at


def _last_group(runs: _Runs, steps: Sequence, tails: np.ndarray, h: int):
    """The last cost group after coordinate h - 1 that admits each of the
    ``tails`` (rows over the coordinates from h on), -1 for none: a
    backward pass over the walk's links ``steps``.  Every last group
    admits the empty tail.  Groups ascend in cost, and through one run
    the groups a link leaves and reaches ascend together, so the last
    group admitting ``(k_j, rest)`` is the last whose link through k_j's
    run reaches a group no later than the last admitting ``rest``."""
    last = np.full(len(tails), len(steps[-1][1]) - 1)
    for j in range(len(steps) - 1, h - 1, -1):
        _, counts, prev, run, group = steps[j]
        key = run * len(counts) + group
        by = np.argsort(key, kind="stable")
        key, prev, run = key[by], prev[by], run[by]
        r = np.searchsorted(runs.ups[j], np.abs(tails[:, j - h]))
        at = np.searchsorted(key, r * len(counts) + last, side="right") - 1
        last = np.where((at >= 0) & (run[at] == r), prev[at], -1)
    return last


def _capped_rows(spec: IndexSet, cap: int) -> np.ndarray:
    """The (M, d) rows of a named family in lexicographic order
    (:func:`_rows` over every coordinate), refused above ``cap`` before
    any row is built: the one row build of a named family."""
    count = spec.cardinality()
    if count > cap:
        raise CapExceeded(count, cap)
    return _rows(spec._runs, spec._groups, range(spec.d))[0]


def _enumerate(
    family: str,
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    param: float,
    cap: int,
) -> np.ndarray:
    """Rows of a named family, counted first so the cap binds before any
    row is built."""
    return _capped_rows(IndexSet(family, alpha, gamma, param), cap)


def enumerate_cross(
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    nu: float,
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """All frequencies with profile ``r_alpha(gamma, k) <= nu``.

    Args:
        alpha: smoothness parameter, positive.
        gamma: product weights, one per coordinate.
        nu: level of the cross, at least 1 (below 1 the set is empty of
            even the origin, which is rejected).
        cap: maximum cardinality; the exact count is taken first, without
            building rows, and :class:`CapExceeded` carries it when the
            cap is breached.

    Returns:
        Array of shape (M, d) in lexicographic row order.

    Examples:
        >>> enumerate_cross(1.0, (1.0,), 1.0).ravel().tolist()
        [-1, 0, 1]
    """
    return _enumerate("cross", alpha, gamma, nu, cap)


def enumerate_rectangle(
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    nu: float,
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """All frequencies in the rectangle at level nu, lexicographically."""
    return _enumerate("rectangle", alpha, gamma, nu, cap)


def enumerate_shape_vectors(m: int, d: int) -> np.ndarray:
    """All nonnegative integer vectors of length d summing to m.

    Rows come out in lexicographic order; there are
    ``comb(d - 1 + m, d - 1)`` of them.

    Examples:
        >>> enumerate_shape_vectors(2, 2).tolist()
        [[0, 2], [1, 1], [2, 0]]
    """
    m = int(m)
    d = int(d)
    if m < 0 or d < 1:
        raise ValueError(f"need m >= 0 and d >= 1, got m={m}, d={d}")
    rows: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, coords_left: int) -> None:
        if coords_left == 1:
            rows.append(tuple(prefix) + (remaining,))
            return
        for t in range(remaining + 1):
            prefix.append(t)
            rec(prefix, remaining - t, coords_left - 1)
            prefix.pop()

    rec([], m, d)
    return np.asarray(rows, dtype=np.int64)


def enumerate_step_cross(
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    m: int,
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Union of dyadic rectangles over all shapes ``||t||_1 = m``.

    A frequency belongs when the smallest dyadic levels holding its
    coordinates sum to at most m.  The run tables give the rows in
    lexicographic order directly; the cap check uses the exact
    cardinality (:meth:`IndexSet.cardinality`), counted from the same
    tables before any row is built.

    Examples:
        >>> enumerate_step_cross(1.0, (1.0,), 2).ravel().tolist()
        [-2, -1, 0, 1, 2]
    """
    return _enumerate("step-cross", alpha, gamma, m, cap)


def cross_cardinality_constant(
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    eps: float,
) -> float:
    """Weight-dependent constant in the cross cardinality bound."""
    alpha = _validate_geometry(alpha)
    gamma = _as_gamma(gamma)
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    z = zeta(1.0 + 2.0 * alpha * eps)
    expo = 1.0 / (2.0 * alpha) + eps
    out = 1.0
    for gj in gamma:
        out *= 1.0 + 2.0 * z * gj ** expo
    return out


def cardinality_bound_cross(
    alpha: float,
    gamma: Union[ProductWeights, Sequence[float]],
    nu: float,
    eps: float,
) -> float:
    """Upper bound ``nu^(1/(2 alpha) + eps) * C(alpha, eps, gamma)`` on
    the cross cardinality, valid for every nu >= 1 and eps > 0."""
    nu = float(nu)
    if not math.isfinite(nu) or nu < 1.0:
        raise ValueError(f"level must be at least 1, got {nu!r}")
    alpha = _validate_geometry(alpha)
    expo = 1.0 / (2.0 * alpha) + float(eps)
    return nu ** expo * cross_cardinality_constant(alpha, gamma, eps)


def _strictly_increasing(freq: np.ndarray) -> bool:
    """Whether the rows are in strict lexicographic order: each row's first
    nonzero difference from the row before is positive."""
    step = freq[1:] - freq[:-1]
    first = np.argmax(step != 0, axis=1)[:, None]
    return bool(np.all(np.take_along_axis(step, first, axis=1) > 0))


@dataclass(eq=False)
class IndexSet:
    """A finite frequency set with its generating metadata.

    Attributes:
        family: one of "cross", "rectangle", "step-cross", "custom".
        alpha: smoothness parameter the set was built for.
        gamma: product weights the set was built for.
        param: family parameter (level nu, or order m for step crosses);
            None for custom sets.
        frequencies: materialised rows (M, d) in lexicographic order, or
            None for a named family kept as a lazy descriptor.
        count: cardinality when known without materialising.
    """

    family: str
    alpha: float
    gamma: ProductWeights
    param: Optional[float] = None
    frequencies: Optional[np.ndarray] = None
    count: Optional[int] = field(default=None)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        self.alpha = _validate_geometry(self.alpha)
        self.gamma = _as_gamma(self.gamma)
        if self.family == "custom":
            if self.frequencies is None:
                raise ValueError("custom sets must supply frequencies")
            if self.param is not None:
                raise ValueError("custom sets take no family parameter")
        elif self.param is None:
            raise ValueError(f"family {self.family!r} needs a parameter")
        if self.frequencies is not None:
            freq = np.array(self.frequencies, dtype=np.int64)
            if freq.ndim != 2 or freq.shape[1] != self.gamma.d:
                raise ValueError(
                    f"frequencies must be (M, {self.gamma.d}), "
                    f"got shape {freq.shape}"
                )
            if not _strictly_increasing(freq):
                freq = freq[np.lexsort(freq.T[::-1])]
                keep = np.ones(len(freq), dtype=bool)
                keep[1:] = np.any(freq[1:] != freq[:-1], axis=1)
                if not keep.all():
                    if self.family != "custom":
                        raise ValueError("duplicate frequency rows")
                    freq = freq[keep]
            freq.flags.writeable = False
            self.frequencies = freq
            if self.count is not None and self.count != len(freq):
                raise ValueError(
                    f"stored count {self.count} disagrees with "
                    f"{len(freq)} materialised rows"
                )
            self.count = len(freq)

    # -- constructors -------------------------------------------------

    @classmethod
    def cross(
        cls,
        alpha: float,
        gamma: Union[ProductWeights, Sequence[float]],
        nu: float,
        materialize: bool = True,
        cap: int = DEFAULT_CAP,
    ) -> "IndexSet":
        out = cls("cross", float(alpha), _as_gamma(gamma), float(nu))
        return out.materialized(cap) if materialize else out

    @classmethod
    def rectangle(
        cls,
        alpha: float,
        gamma: Union[ProductWeights, Sequence[float]],
        nu: float,
        materialize: bool = True,
        cap: int = DEFAULT_CAP,
    ) -> "IndexSet":
        out = cls("rectangle", float(alpha), _as_gamma(gamma), float(nu))
        return out.materialized(cap) if materialize else out

    @classmethod
    def step_cross(
        cls,
        alpha: float,
        gamma: Union[ProductWeights, Sequence[float]],
        m: int,
        materialize: bool = True,
        cap: int = DEFAULT_CAP,
    ) -> "IndexSet":
        out = cls("step-cross", float(alpha), _as_gamma(gamma), int(m))
        return out.materialized(cap) if materialize else out

    @classmethod
    def custom(
        cls,
        frequencies: Iterable[Sequence[int]],
        alpha: float,
        gamma: Union[ProductWeights, Sequence[float]],
    ) -> "IndexSet":
        freq = np.asarray(list(frequencies) if not isinstance(
            frequencies, np.ndarray) else frequencies, dtype=np.int64)
        if freq.ndim != 2:
            raise ValueError("custom frequencies must be a 2-d array")
        return cls("custom", float(alpha), _as_gamma(gamma), None, freq)

    # -- basic queries -------------------------------------------------

    @property
    def d(self) -> int:
        return self.gamma.d

    def descriptor(self) -> "IndexSet":
        """Metadata-only copy (frequencies dropped for named families)."""
        if self.family == "custom":
            return self
        return IndexSet(
            self.family, self.alpha, self.gamma, self.param, None, self.count
        )

    def materialized(self, cap: int = DEFAULT_CAP) -> "IndexSet":
        """This set with frequencies enumerated (no-op when present)."""
        if self.frequencies is not None:
            return self
        freq = _capped_rows(self, cap)
        return IndexSet(
            self.family, self.alpha, self.gamma, self.param, freq, self.count
        )

    def cardinality(self) -> int:
        """Exact cardinality, counted without materialising if needed:
        the prefixes over every coordinate, grouped by cost (the last
        step of :attr:`_groups`).  The one count of a named family: the
        ``enumerate_*`` functions and :meth:`materialized` check the cap
        against it before :func:`_capped_rows` builds a row."""
        if self.count is None:
            self.count = int(self._groups[-1][1].sum())
        return self.count

    @cached_property
    def _runs(self) -> _Runs:
        return _family_runs(self.family, self.alpha, self.gamma, self.param)

    @cached_property
    def _groups(self) -> list[tuple[np.ndarray, ...]]:
        """The walk's cost groups after each coordinate in turn and the
        links into them (:func:`_cost_group_steps`): the one walk that
        sizes a named family, gives its rows and the heads and tails of
        general-FFT's plan, prices every split of it and lays out the
        kernel route's DP."""
        return list(_cost_group_steps(self._runs, range(self.d)))

    @cached_property
    def _row_set(self) -> frozenset:
        if self.frequencies is None:
            raise ValueError("custom membership needs materialised rows")
        return frozenset(map(tuple, self.frequencies.tolist()))

    def contains(self, k: Sequence[int]) -> bool:
        """Membership test from the family's run tables, O(d log runs).

        Custom sets fall back to a hashed lookup of the stored rows.
        """
        if len(k) != self.d:
            raise ValueError(
                f"frequency has {len(k)} coordinates, set has {self.d}"
            )
        if self.family == "custom":
            return tuple(int(v) for v in k) in self._row_set
        runs = self._runs
        acc = float(runs.combine.identity)
        for ups, costs, kj in zip(runs.ups, runs.costs, k):
            run = int(np.searchsorted(ups, abs(int(kj))))
            if run == len(ups) or not _admits(runs, acc, costs[run]):
                return False
            acc = runs.combine(acc, costs[run])
        return True

    def require_space(
        self, alpha: float, gamma: Union[ProductWeights, Sequence[float]]
    ) -> None:
        """Guard against mixing a set with a different smoothness setup."""
        gamma = _as_gamma(gamma)
        if float(alpha) != self.alpha or tuple(gamma) != tuple(self.gamma):
            raise ValueError(
                f"index set was built for alpha={self.alpha}, "
                f"gamma={tuple(self.gamma)}; asked to serve "
                f"alpha={float(alpha)}, gamma={tuple(gamma)}"
            )

    # -- serialisation -------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {
            "family": self.family,
            "alpha": self.alpha,
            "gamma": list(self.gamma),
            "param": self.param,
            "count": self.count,
        }
        if self.family == "custom":
            obj["frequencies"] = self.frequencies.tolist()
        return obj

    @classmethod
    def from_json(
        cls,
        obj: dict,
        materialize: bool = True,
        cap: int = DEFAULT_CAP,
    ) -> "IndexSet":
        family = obj["family"]
        gamma = ProductWeights(tuple(float(v) for v in obj["gamma"]))
        if family == "custom":
            return cls(
                family, float(obj["alpha"]), gamma, None,
                np.asarray(obj["frequencies"], dtype=np.int64),
            )
        param = obj["param"]
        param = int(param) if family == "step-cross" else float(param)
        out = cls(family, float(obj["alpha"]), gamma, param)
        count = obj.get("count")
        if count is not None and int(count) != out.cardinality():
            raise ValueError(
                f"stored count {count} disagrees with the "
                f"{out.cardinality()} rows of its family"
            )
        return out.materialized(cap) if materialize else out

    def __eq__(self, other) -> bool:
        # ``count`` follows from the family metadata, or from the rows of
        # a custom set, so it is not compared: caching it by a call to
        # ``cardinality`` must not change equality.
        if not isinstance(other, IndexSet):
            return NotImplemented
        if (
            self.family != other.family
            or self.alpha != other.alpha
            or tuple(self.gamma) != tuple(other.gamma)
            or self.param != other.param
        ):
            return False
        a, b = self.frequencies, other.frequencies
        if (a is None) != (b is None):
            return False
        return a is None or bool(np.array_equal(a, b))
