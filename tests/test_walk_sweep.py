"""The rows and plans a named set reads from its cost-group walk, against
a second construction from floating-point costs, on a seeded sweep.

The oracle expands a set's prefixes one coordinate at a time, combining
each row's own cost with the budget test (:func:`_prefixes`), and finds
the last head cost group admitting a tail by replaying the tail's costs
from each group's accumulated cost, by binary search
(:func:`_oracle_last_group`).  The library reads the same rows, groups
and admissions from the walk's links alone (``index_sets._rows`` and
``index_sets._last_group``).  The sweep holds crosses, rectangles and
step crosses of d = 1..4, level lines and empty runs among them.
"""

from __future__ import annotations

import numpy as np
import pytest

from latcompress import compression, index_sets
from latcompress.compression import Dataset
from latcompress.index_sets import IndexSet
from latcompress.lattice import LatticeRule
from test_compression import _cells

_FAMILIES = ("cross", "rectangle", "step-cross")


def _prefixes(runs, coords: range) -> tuple[np.ndarray, np.ndarray]:
    """The prefixes over ``coords`` from the identity, in lexicographic
    order, and the accumulated cost of each: each prefix admits
    ``|k_j| <= h``, h the reach of the last run its own cost admits."""
    acc = np.full(1, float(runs.combine.identity))
    out = np.zeros((1, 0), dtype=np.int64)
    for j in coords:
        ups, costs = runs.ups[j], runs.costs[j]
        last = index_sets._last_run(runs, acc, costs)
        h = np.where(last >= 0, ups[last], -1)
        n = 2 * h + 1
        kj = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n + h, n)
        out = np.column_stack((np.repeat(out, n, axis=0), kj))
        run = np.searchsorted(ups, np.abs(kj))
        acc = runs.combine(np.repeat(acc, n), costs[run])
    return out, acc


def _row_costs(runs, rows: np.ndarray, coords: range) -> np.ndarray:
    """The cost of each coordinate of ``rows``, whose columns are the
    coordinates ``coords``."""
    out = np.empty(rows.shape)
    for i, j in enumerate(coords):
        run = np.searchsorted(runs.ups[j], np.abs(rows[:, i]))
        out[:, i] = runs.costs[j][run]
    return out


def _oracle_last_group(runs, acc: np.ndarray, costs: np.ndarray
                       ) -> np.ndarray:
    """For each row of per-coordinate ``costs``, the last of the ascending
    accumulated costs ``acc`` that admits it at every coordinate, the
    costs combined from it left to right, -1 for none; a binary search."""
    last = np.full(len(costs), -1)
    step = 1 << len(acc).bit_length() >> 1
    while step:
        cand = last + step
        ok = cand < len(acc)
        a = acc[cand[ok]]
        fit = np.ones(len(a), dtype=bool)
        for cost in costs[ok].T:
            fit &= index_sets._admits(runs, a, cost)
            a = runs.combine(a, cost)
        ok[ok] = fit
        last[ok] = cand[ok]
        step >>= 1
    return last


def _box(alpha: float, gamma: tuple, level: float) -> float:
    """Rows of the rectangle at ``level``, which holds every family's set
    at that level: keeps the sweep small."""
    return float(np.prod([2 * np.floor((g * level) ** (0.5 / alpha)) + 1
                          for g in gamma]))


def _sweep(n: int = 600, box: float = 20_000) -> list[tuple]:
    """Seeded ``(family, alpha, gamma, param)`` cases: d and the family
    cycle, so each of the 12 pairs holds about n / 12 sets.  Half the
    crosses and rectangles sit at the left-to-right profile of a drawn
    frequency, on a level line; step crosses of large alpha repeat a
    half-width, an empty run."""
    rng = np.random.default_rng(2026)
    out, i = [], 0
    while len(out) < n:
        d, family = 1 + i % 4, _FAMILIES[(i // 4) % 3]
        i += 1
        alpha = float(rng.choice([0.5, 0.7, 1.0, 1.3, 2.0, 3.0]))
        gamma = tuple(sorted(
            (float(v) for v in rng.choice(
                [1.0, 0.85, 0.61, 0.5, 0.3, 0.25, 0.1], d)),
            reverse=True))
        if family == "step-cross":
            param = int(rng.integers(0, 9))
            level = 2.0 ** param
        elif rng.random() < 0.5:
            k = rng.integers(0, 5, d)
            level = 1.0
            for gj, kj in zip(gamma, k):
                level = level * index_sets._coord_factor(2 * alpha, gj, kj)
            param = level
        else:
            param = level = float(rng.uniform(1.0, 100.0))
        if _box(alpha, gamma, level) <= box:
            out.append((family, alpha, gamma, param))
    return out


SWEEP = _sweep()


def _empty_runs(spec: IndexSet) -> bool:
    return any((np.diff(ups) == 0).any() for ups in spec._runs.ups)


def _on_level_line(spec: IndexSet, rows: np.ndarray) -> bool:
    """Whether some row's left-to-right cost equals the budget."""
    runs = spec._runs
    acc = np.full(len(rows), float(runs.combine.identity))
    for j in range(spec.d):
        run = np.searchsorted(runs.ups[j], np.abs(rows[:, j]))
        acc = runs.combine(acc, runs.costs[j][run])
    return bool((acc == runs.budget).any())


def test_sweep_covers_every_family_level_lines_and_empty_runs() -> None:
    assert len(SWEEP) == 600
    pairs = {(f, len(g)) for f, _, g, _ in SWEEP}
    assert pairs == {(f, d) for f in _FAMILIES for d in range(1, 5)}
    specs = [IndexSet(*case) for case in SWEEP]
    assert sum(_empty_runs(s) for s in specs) >= 50
    lines = sum(_on_level_line(s, s.materialized().frequencies)
                for s in specs if s.family == "cross")
    assert lines >= 50
    assert max(s.cardinality() for s in specs) > 5_000


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rows_and_groups_match_float_oracle(family, d) -> None:
    # The rows, a split's heads with their cost groups, its tails and
    # each tail's last admitting head group, as the walk's links give
    # them and as the float costs do, bitwise.
    for case in SWEEP:
        if case[0] != family or len(case[2]) != d:
            continue
        spec = IndexSet(*case)
        runs, steps = spec._runs, spec._groups
        want = _prefixes(runs, range(d))[0]
        got = spec.materialized().frequencies
        assert got.dtype == np.int64, case
        np.testing.assert_array_equal(got, want, err_msg=str(case))
        assert spec.cardinality() == len(want), case
        for h in range(1, d + 1):
            acc = steps[h - 1][0]
            heads, group = index_sets._rows(runs, steps, range(h))
            ref, cost = _prefixes(runs, range(h))
            np.testing.assert_array_equal(heads, ref, err_msg=str(case))
            np.testing.assert_array_equal(acc[group], cost,
                                          err_msg=str(case))
            tails = index_sets._rows(runs, steps, range(h, d))[0]
            np.testing.assert_array_equal(
                tails, _prefixes(runs, range(h, d))[0], err_msg=str(case))
            last = index_sets._last_group(runs, steps, tails, h)
            ref = _oracle_last_group(runs, acc,
                                     _row_costs(runs, tails, range(h, d)))
            np.testing.assert_array_equal(last, ref, err_msg=str(case))


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_table_plan_matches_row_plan(family, d) -> None:
    # At every split point the plan read from the run tables equals the
    # folded plan of the rows: sizes and pair cells exactly, and both
    # weight vectors within 1e-12 of the largest weight.
    rng = np.random.default_rng(d)
    data = Dataset(rng.random((9, d)), rng.standard_normal(9))
    rule = LatticeRule(31, (1, 12, 7, 5)[:d])
    cvecs = [np.ones(data.N), data.Y]
    for case in SWEEP:
        if case[0] != family or len(case[2]) != d:
            continue
        spec = IndexSet(*case)
        fold = compression._fold(spec.materialized().frequencies)
        for split in compression._table_splits(spec):
            plan = compression._table_plan(split)
            rows = compression._split_plan(fold, split.h)
            assert plan.sizes == rows.sizes == split.sizes, case
            np.testing.assert_array_equal(plan.heads, rows.heads)
            np.testing.assert_array_equal(plan.tails, rows.tails)
            assert len(plan.buckets) == len(rows.buckets), case
            for ours, theirs in zip(plan.buckets, rows.buckets):
                assert ours[:2] == theirs[:2], case
                assert _cells(ours) == _cells(theirs), case
            for p, q in zip(
                compression._node_weights(
                    plan, compression._split_adjoint(data.X, plan, cvecs, 1),
                    rule),
                compression._node_weights(
                    rows, compression._split_adjoint(data.X, rows, cvecs, 1),
                    rule),
            ):
                top = float(np.max(np.abs(q)))
                assert float(np.max(np.abs(p - q))) <= 1e-12 * top, case
