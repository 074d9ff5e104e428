"""A side's phases built level by level over its prefixes, against the
row-by-row construction, to the bit.

The oracle (:func:`_row_phases`) builds every row of a side on its own:
axis 0's phases gathered onto the rows, each middle axis multiplied in
row by row (``_times_rows``), and the last axis multiplied in as the rows
are split into cosine and sine planes, each axis' table made on its own
(``_phase_table``).  The library makes each distinct prefix once
(``compression._phase_matrix``), from table recipes made with the plan.
The products are the same, in the same order, so the planes agree
bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

import latcompress
from latcompress import compression
from latcompress.compression import Dataset, compress
from latcompress.index_sets import IndexSet
from latcompress.lattice import LatticeRule, ProductWeights


def _row_phases(
    X: np.ndarray, rows: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The planes of a side's rows, each row made on its own from its
    phase axes: per coordinate the distinct values and the gather that
    maps them back onto the rows."""
    axes = [np.unique(col, return_inverse=True) for col in rows.T]
    if not axes:
        out[:] = 1.0
        return compression._split_planes(out)
    (u, inv), *rest = axes
    if len(u) == len(inv):
        compression._value_phases(X[:, 0], u[inv], out)
    else:
        table, index = compression._phase_table(
            X[:, 0], compression._recipe(u))
        table.take(index[inv], axis=0, out=out, mode="clip")
    if not rest:
        return compression._split_planes(out)
    for j, (u, inv) in enumerate(rest, 1):
        table = None  # the last axis' table goes before this one is made
        table, index = compression._phase_table(
            X[:, j], compression._recipe(u))
        if j < len(rest):
            compression._times_rows(out, table, index[inv])
    # the last axis' factor is multiplied in as the rows are split
    last = table.take(index[inv], axis=0)
    last *= out
    planes = out.view(np.float64).reshape(len(out), 2, -1)
    planes[:, 0], planes[:, 1] = last.real, last.imag
    return planes


def _side_rows(seed: int, n: int, spans) -> np.ndarray:
    """n rows, coordinate j drawn from ``spans[j]`` (repeats allowed)."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.choice(np.asarray(s), n) for s in spans], axis=1)


_BIG = np.array([0, 3, 5_000_000, -(2**22) - 5, 2**21])
_GIANTS = np.arange(99_000, 100_001, 3)

# one-coordinate sides and sides of width 0 have no levels
SIDES = {
    "width-0": np.zeros((1, 0), dtype=np.int64),
    "one-coordinate": np.array([[-3], [2], [2], [0], [-3], [7]]),
    "one-distinct": np.array([[5], [-1], [0]]),
    "one-ordered": np.array([[0], [1], [2], [3]]),
    "one-row": np.array([[4]]),
    "one-past-2^21": _BIG[:, None],
    "two": _side_rows(1, 40, [range(0, 5), range(-6, 7)]),
    "two-single-row": np.array([[1, -2]]),
    "three": _side_rows(2, 120, [range(0, 3), range(-4, 5), range(-9, 3)]),
    "three-repeated-rows": np.repeat(
        _side_rows(3, 8, [range(-2, 3)] * 3), 3, axis=0),
    "four": _side_rows(4, 200, [range(0, 4), range(-3, 4), [-1, 0, 1],
                                range(-20, 21)]),
    "three-single-row": np.array([[1, -2, 3]]),
    "split-past-2^21": _side_rows(5, 30, [range(-3, 4), _BIG, range(0, 6)]),
    "babies-and-giants": _side_rows(6, 50, [range(-5, 6), _GIANTS]),
}


def _value(recipe, row: int) -> int:
    """The value whose phases are row ``row`` of a recipe's table."""
    n = len(recipe.vals)
    if recipe.signed:
        return int(-recipe.vals[row]) if row < n else int(recipe.vals[row - n])
    return int(recipe.vals[row])


class TestLevels:
    @pytest.mark.parametrize("name", sorted(SIDES))
    def test_levels_are_the_prefixes(self, name) -> None:
        # level j holds the distinct prefixes over coordinates 0..j, each
        # parent indexes the level before, and the last level is the
        # side's rows in order
        rows = SIDES[name]
        side = compression._side(rows)
        assert len(side.recipes) == rows.shape[1]
        if rows.shape[1] < 2:
            assert side.levels is None
            return
        assert len(side.levels) == rows.shape[1]
        assert side.levels[0].parent is None
        prefixes = None
        for j, (level, recipe) in enumerate(zip(side.levels, side.recipes)):
            values = np.array([_value(recipe, r) for r in level.row])
            if j == 0:
                prefixes = values[:, None]
            else:
                assert level.parent.min() >= 0
                assert level.parent.max() < len(side.levels[j - 1].row)
                prefixes = np.column_stack((prefixes[level.parent], values))
            if j < rows.shape[1] - 1:
                assert len(np.unique(prefixes, axis=0)) == len(prefixes)
                np.testing.assert_array_equal(
                    np.unique(prefixes, axis=0),
                    np.unique(rows[:, :j + 1], axis=0))
        np.testing.assert_array_equal(prefixes, rows)

    def test_step_cross_levels(self) -> None:
        # a d = 6 step cross of order 6 split after 3 coordinates: 297
        # heads and tails, each made from 57 distinct pairs of first
        # coordinates
        spec = IndexSet.step_cross(1.0, ProductWeights.ones(6), 6,
                                   materialize=False)
        plan = compression._table_plan(compression._table_splits(spec)[2])
        for side in (plan.sides[0], plan.sides[1]):
            assert [len(level.row) for level in side.levels] == [9, 57, 297]


class TestAgainstRows:
    @pytest.mark.parametrize("n", [1, 387])
    @pytest.mark.parametrize("name", sorted(SIDES))
    def test_planes_bitwise(self, name, n) -> None:
        rows = SIDES[name]
        side = compression._side(rows)
        rng = np.random.default_rng(7 + n)
        X = rng.random((n, rows.shape[1]))
        # twice over, and a shorter block after, as the blocks of a pass
        # run one side
        for pts in (X, X, X[: max(1, n // 3)]):
            want = _row_phases(pts, rows,
                               np.empty((len(rows), len(pts)), complex))
            for _ in range(2):
                got = compression._phase_matrix(
                    pts, side, np.empty((len(rows), len(pts)), complex))
                assert got.shape == (len(rows), 2, len(pts))
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_compress_bitwise(self, threads, monkeypatch) -> None:
        # a pass of several blocks over a d = 6 step cross (sides of three
        # coordinates): the weights made level by level equal those made
        # row by row to the bit, at one thread and two
        rng = np.random.default_rng(11)
        data = Dataset(rng.random((500, 6)), rng.standard_normal(500))
        rule = LatticeRule(127, (1, 35, 57, 19, 44, 101))
        spec = IndexSet.step_cross(1.0, ProductWeights.ones(6), 4,
                                   materialize=False)
        monkeypatch.setattr(compression, "_FFT_BLOCK", 1 << 16)
        # each side made, with its rows; the side is kept so its id is
        # not reused
        made = {}
        side = compression._side

        def recorded(rows):
            s = side(rows)
            made[id(s)] = s, rows
            return s

        monkeypatch.setattr(compression, "_side", recorded)
        got = compress(data, rule, spec, "general-fft", threads)
        assert made

        def rows_only(X, side, out):
            return _row_phases(X, made[id(side)][1], out)

        monkeypatch.setattr(compression, "_phase_matrix", rows_only)
        want = compress(data, rule, spec, "general-fft", threads)
        np.testing.assert_array_equal(got.w_xz, want.w_xz)
        np.testing.assert_array_equal(got.w_xyz, want.w_xyz)


class TestOncePerPlan:
    """What does not depend on the points is worked out once per plan:
    each axis' recipe on the plan's first pass (a plan that is only
    priced makes none), however many blocks and passes run it."""

    def _count(self, monkeypatch) -> list:
        calls = []
        recipe = compression._recipe

        def counted(u):
            calls.append(len(u))
            return recipe(u)

        monkeypatch.setattr(compression, "_recipe", counted)
        return calls

    def test_recipes_once_per_axis(self, monkeypatch) -> None:
        spec = IndexSet.step_cross(1.0, ProductWeights.ones(6), 4,
                                   materialize=False)
        rng = np.random.default_rng(12)
        data = Dataset(rng.random((600, 6)), rng.standard_normal(600))
        monkeypatch.setattr(compression, "_FFT_BLOCK", 1 << 15)
        calls = self._count(monkeypatch)
        plan = compression._table_plan(compression._table_splits(spec)[2])
        assert not calls
        block = compression._split_phases(plan, data.N, 2)[0]
        assert data.N >= 5 * block
        assert len(calls) == 6
        for threads in (1, 2):
            compression._split_adjoint(
                data.X, plan, [np.ones(data.N), data.Y], threads)
        assert len(calls) == 6

    def test_eval_model_reuses_its_recipes(self, monkeypatch) -> None:
        spec = IndexSet.step_cross(1.0, ProductWeights.ones(6), 3)
        freq = spec.frequencies
        rng = np.random.default_rng(13)
        model = latcompress.TrigModel(freq, rng.standard_normal(len(freq)))
        X = rng.random((400, 6))
        monkeypatch.setattr(compression, "_FFT_BLOCK", 1 << 14)
        calls = self._count(monkeypatch)
        first = latcompress.eval_model(model, X)
        plan = model._cache.plan
        made = plan.heads.shape[1] + plan.tails.shape[1]
        assert len(calls) == made
        assert len(X) >= 3 * compression._split_phases(plan, len(X))[0]
        for _ in range(3):
            np.testing.assert_array_equal(
                latcompress.eval_model(model, X), first)
        assert len(calls) == made
