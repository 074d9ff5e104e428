"""Frequency-set families: profiles, enumeration, membership, caps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcompress import index_sets
from latcompress.index_sets import (
    CapExceeded,
    IndexSet,
    _coord_factor,
    _halfwidth,
    _within,
    cardinality_bound_cross,
    cross_cardinality_constant,
    enumerate_cross,
    enumerate_rectangle,
    enumerate_shape_vectors,
    enumerate_step_cross,
    r_alpha,
    rectangle_halfwidths,
)
from latcompress.lattice import ProductWeights


def _rows(freq: np.ndarray) -> set:
    return set(map(tuple, np.asarray(freq).tolist()))


def _cartesian(axes) -> list[tuple[int, ...]]:
    rows = [()]
    for ax in axes:
        rows = [pre + (kj,) for pre in rows for kj in ax]
    return rows


def _step_cross_union(alpha, gamma, m) -> np.ndarray:
    """Oracle: the plain union of the cumulative dyadic boxes, as tuples."""
    gam = tuple(ProductWeights(tuple(gamma)))
    seen: set = set()
    for t in enumerate_shape_vectors(m, len(gam)):
        widths = [_halfwidth(2.0 * alpha, gj, 2.0 ** int(tj))
                  for gj, tj in zip(gam, t)]
        seen.update(_cartesian(range(-w, w + 1) for w in widths))
    return np.asarray(sorted(seen), dtype=np.int64).reshape(-1, len(gam))


def _dyadic_bounds(
    two_alpha: float, gamma_j: float, t: int
) -> tuple[int, int]:
    """(lower, upper) half-widths of the dyadic annulus at level t.

    Upper bound: largest q with the coordinate profile within 2^t.  Lower
    bound: same at 2^(t-1); at t = 0 the subtracted set is empty, so the
    lower half-width is -1 and the piece is the whole interval.
    """
    up = _halfwidth(two_alpha, gamma_j, 2.0 ** t)
    if t == 0:
        return -1, up
    low = _halfwidth(two_alpha, gamma_j, 2.0 ** (t - 1))
    return low, up


def _step_cross_shapes(
    two_alpha: float, gamma: tuple[float, ...], m: int
) -> tuple[list[tuple[int, ...]], list[list[tuple[int, int]]]]:
    """Oracle: shapes of the nonempty disjoint pieces, and their bounds.

    The step cross of order m is the disjoint union, over the shape
    vectors t with ``||t||_1 = m``, of the pieces whose coordinate j
    ranges over ``|k_j| <= up`` when ``j = 0`` or ``t_j = 0``, and over
    the annulus ``low < |k_j| <= up`` otherwise, with ``(low, up) =
    bounds[j][t_j]``.  Shapes come out in lexicographic order; those with
    an empty annulus are dropped.
    """
    bounds = [
        [_dyadic_bounds(two_alpha, gj, t) for t in range(m + 1)]
        for gj in gamma
    ]
    shapes = []
    for t in enumerate_shape_vectors(m, len(gamma)):
        row = tuple(int(v) for v in t)
        if all(
            tj == 0 or bounds[j][tj][1] > bounds[j][tj][0]
            for j, tj in enumerate(row) if j > 0
        ):
            shapes.append(row)
    return shapes, bounds


def _step_cross_disjoint(alpha, gamma, m) -> np.ndarray:
    """Oracle: the disjoint rectangle-difference pieces, as tuples."""
    gam = tuple(ProductWeights(tuple(gamma)))
    rows: list[tuple[int, ...]] = []
    for t in enumerate_shape_vectors(m, len(gam)):
        axes = []
        for j, (gj, tj) in enumerate(zip(gam, t)):
            low, up = _dyadic_bounds(2.0 * alpha, gj, int(tj))
            vals = range(-up, up + 1)
            axes.append([v for v in vals if j == 0 or tj == 0 or abs(v) > low])
        rows.extend(_cartesian(axes))
    assert len(rows) == len(set(rows)), "disjoint pieces overlap"
    return np.asarray(sorted(rows), dtype=np.int64).reshape(-1, len(gam))


def _step_cross_count(alpha, gamma, m) -> int:
    """Oracle: the exact count as the sum of the disjoint piece sizes."""
    gam = tuple(ProductWeights(tuple(gamma)))
    shapes, bounds = _step_cross_shapes(2.0 * alpha, gam, m)
    total = 0
    for row in shapes:
        size = 1
        for j, tj in enumerate(row):
            low, up = bounds[j][tj]
            size *= 2 * up + 1 if j == 0 or tj == 0 else 2 * (up - low)
        total += size
    return total


def _cross_recursion(alpha, gamma, nu) -> np.ndarray:
    """Oracle: the cross by depth-first recursion, one row at a time.

    The boundary is settled by the same left-to-right product of scalar
    profile factors a membership query accumulates.
    """
    two_alpha = 2.0 * alpha
    gam = tuple(ProductWeights(tuple(gamma)))
    rows: list[tuple[int, ...]] = []

    def reach(gj: float, partial: float) -> int:
        if not _within(partial, nu):
            return -1
        q = 0
        while _within(partial * _coord_factor(two_alpha, gj, q + 1), nu):
            q += 1
        return q

    def recurse(j: int, partial: float, prefix: tuple[int, ...]) -> None:
        q = reach(gam[j], partial)
        for kj in range(-q, q + 1):
            if j == len(gam) - 1:
                rows.append(prefix + (kj,))
            else:
                factor = _coord_factor(two_alpha, gam[j], kj)
                recurse(j + 1, partial * factor, prefix + (kj,))

    recurse(0, 1.0, ())
    return np.asarray(rows, dtype=np.int64).reshape(-1, len(gam))


def _brute_box(widths) -> np.ndarray:
    axes = [np.arange(-int(w), int(w) + 1, dtype=np.int64) for w in widths]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([gr.ravel() for gr in grids], axis=1)


class TestProfile:
    def test_hand_values(self) -> None:
        assert r_alpha(1.0, (0.25,), (2,)) == 16.0
        assert r_alpha(0.5, (1.0, 1.0), (6, 5)) == 30.0
        assert r_alpha(1.0, (1.0, 1.0), (0, 0)) == 1.0
        assert r_alpha(2.0, (1.0,), (0,)) == 1.0

    def test_small_entries_clamp_to_one(self) -> None:
        # |k| = 1 with gamma = 1 contributes exactly 1.
        assert r_alpha(1.5, (1.0, 1.0, 1.0), (1, 1, 1)) == 1.0

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            r_alpha(0.0, (1.0,), (1,))
        with pytest.raises(ValueError):
            r_alpha(1.0, (1.0, 1.0), (1,))


class TestRectangle:
    def test_halfwidths(self) -> None:
        assert rectangle_halfwidths(1.0, (1.0,), 16.0).tolist() == [4]
        assert rectangle_halfwidths(1.0, (1.0, 0.25), 16.0).tolist() == [4, 2]
        assert rectangle_halfwidths(1.0, (1.0,), 1.0).tolist() == [1]

    def test_enumeration_is_grid(self) -> None:
        freq = enumerate_rectangle(1.0, (1.0, 0.25), 16.0)
        assert freq.shape == (9 * 5, 2)
        assert _rows(freq) == _rows(_brute_box([4, 2]))

    def test_brute_filter_oracle(self) -> None:
        # Membership is max_j factor_j <= nu; filter a padded box.
        alpha, gamma, nu = 1.5, (1.0, 0.5), 90.0
        widths = rectangle_halfwidths(alpha, gamma, nu) + 2
        box = _brute_box(widths)
        keep = [
            all(
                max(abs(int(kj)) ** (2 * alpha) / gj, 1.0) <= nu
                for gj, kj in zip(gamma, k)
            )
            for k in box
        ]
        expected = _rows(box[np.asarray(keep)])
        assert _rows(enumerate_rectangle(alpha, gamma, nu)) == expected

    def test_level_domain(self) -> None:
        with pytest.raises(ValueError):
            rectangle_halfwidths(1.0, (1.0,), 0.5)


CROSS_CONFIGS = [
    (1.0, (1.0, 1.0), 10.3),
    (0.5, (1.0, 0.5), 17.7),
    (2.0, (1.0, 0.25), 300.0),
    (1.0, (1.0, 0.5, 0.25), 40.0),
]


class TestCross:
    def test_unit_level(self) -> None:
        for d in (1, 2, 3):
            freq = enumerate_cross(1.0, ProductWeights.ones(d), 1.0)
            assert _rows(freq) == _rows(_brute_box([1] * d))

    @pytest.mark.parametrize(
        "alpha, gamma, nu", CROSS_CONFIGS + [(1.0, (1.0,) * 8, 30.0)]
    )
    def test_recursion_oracle(self, alpha, gamma, nu) -> None:
        # The run-table walk and the row-at-a-time recursion must give the
        # same rows in the same order, and the lazy count must match.
        rows = enumerate_cross(alpha, gamma, nu)
        expected = _cross_recursion(alpha, gamma, nu)
        assert np.array_equal(rows, expected)
        lazy = IndexSet.cross(alpha, gamma, nu, materialize=False)
        assert lazy.cardinality() == len(expected)

    @pytest.mark.parametrize("alpha, gamma, nu", CROSS_CONFIGS)
    def test_brute_filter_oracle(self, alpha, gamma, nu) -> None:
        freq = enumerate_cross(alpha, gamma, nu)
        widths = rectangle_halfwidths(alpha, gamma, nu) + 2
        box = _brute_box(widths)
        keep = [r_alpha(alpha, gamma, k) <= nu for k in box]
        assert _rows(freq) == _rows(box[np.asarray(keep)])

    def test_lexicographic_order(self) -> None:
        freq = enumerate_cross(1.0, (1.0, 1.0), 6.0)
        order = np.lexsort(freq.T[::-1])
        np.testing.assert_array_equal(order, np.arange(len(freq)))

    def test_subset_of_rectangle(self) -> None:
        alpha, gamma, nu = 1.0, (1.0, 0.5), 25.0
        cross = _rows(enumerate_cross(alpha, gamma, nu))
        rect = _rows(enumerate_rectangle(alpha, gamma, nu))
        assert cross <= rect

    def test_cap(self) -> None:
        true_count = len(enumerate_cross(1.0, (1.0, 1.0), 100.0))
        with pytest.raises(CapExceeded) as exc:
            enumerate_cross(1.0, (1.0, 1.0), 100.0, cap=10)
        assert exc.value.predicted == true_count
        assert exc.value.cap == 10

    def test_cardinality_bound(self) -> None:
        eps = 0.25
        for alpha in (1.0, 1.5, 2.0):
            for nu in (16.0, 64.0, 256.0):
                for gamma in (ProductWeights.ones(2), ProductWeights.polynomial(2.0, 2)):
                    size = len(enumerate_cross(alpha, gamma, nu))
                    bound = cardinality_bound_cross(alpha, gamma, nu, eps)
                    assert size <= bound

    def test_costs_in_one_array_call(self, monkeypatch) -> None:
        # Sizing a cross calls the scalar factor only in the half-width
        # searches; the run costs come from one array expression, bitwise
        # equal to the scalar factors.
        calls = []

        def counted(two_alpha, gamma_j, kj):
            calls.append(kj)
            return _coord_factor(two_alpha, gamma_j, kj)

        monkeypatch.setattr(index_sets, "_coord_factor", counted)
        alpha, gamma, nu = 0.5, (1.0, 0.3), 2e4
        lazy = IndexSet.cross(alpha, gamma, nu, materialize=False)
        assert lazy.cardinality() > 20_000
        assert len(calls) <= 4 * len(gamma)
        for gj, up, costs in zip(gamma, lazy._runs.ups, lazy._runs.costs):
            scalar = [_coord_factor(2.0 * alpha, gj, q) for q in up.tolist()]
            assert len(up) > 5_000
            assert costs.tolist() == scalar

    def test_cardinality_constant_validation(self) -> None:
        with pytest.raises(ValueError):
            cross_cardinality_constant(1.0, (1.0,), 0.0)


class TestShapeVectors:
    def test_hand_example(self) -> None:
        assert enumerate_shape_vectors(2, 2).tolist() == [[0, 2], [1, 1], [2, 0]]

    def test_count_and_order(self) -> None:
        for m, d in ((0, 3), (4, 2), (5, 4), (7, 3)):
            shapes = enumerate_shape_vectors(m, d)
            assert len(shapes) == math.comb(d - 1 + m, d - 1)
            assert np.all(shapes.sum(axis=1) == m)
            order = np.lexsort(shapes.T[::-1])
            np.testing.assert_array_equal(order, np.arange(len(shapes)))

    def test_edges(self) -> None:
        assert enumerate_shape_vectors(3, 1).tolist() == [[3]]
        assert enumerate_shape_vectors(0, 4).tolist() == [[0, 0, 0, 0]]
        with pytest.raises(ValueError):
            enumerate_shape_vectors(-1, 2)


STEP_CONFIGS = [
    (0.5, (1.0, 0.5), 5),
    (1.001, (1.0, 1.0, 1.0), 4),
    (2.0, (1.0, 0.25), 6),
    (1.0, (1.0,), 3),
    (0.75, (1.0, 1.0), 0),
]


class TestStepCross:
    def test_one_dimension_is_a_cross(self) -> None:
        for m in range(0, 7):
            step = _rows(enumerate_step_cross(1.0, (1.0,), m))
            cross = _rows(enumerate_cross(1.0, (1.0,), 2.0**m))
            assert step == cross

    @pytest.mark.parametrize("alpha, gamma, m", STEP_CONFIGS)
    def test_dual_route(self, alpha, gamma, m) -> None:
        # The run-table walk, the union of cumulative boxes and the
        # disjoint-difference pieces must give the same rows in the same
        # order, and the count must match the piece sizes without
        # enumerating.
        rows = enumerate_step_cross(alpha, gamma, m)
        for oracle in (_step_cross_union, _step_cross_disjoint):
            np.testing.assert_array_equal(rows, oracle(alpha, gamma, m))
        lazy = IndexSet.step_cross(alpha, gamma, m, materialize=False)
        assert lazy.cardinality() == len(rows)
        assert _step_cross_count(alpha, gamma, m) == len(rows)

    def test_sandwich(self) -> None:
        for d in (1, 2, 3):
            for alpha in (0.5, 1.0, 2.0):
                for gamma in (
                    ProductWeights.ones(d),
                    ProductWeights.geometric(0.5, d),
                ):
                    for m in range(0, 7):
                        step = _rows(enumerate_step_cross(alpha, gamma, m))
                        outer = _rows(enumerate_cross(alpha, gamma, 2.0**m))
                        assert step <= outer
                        if m - d + 1 >= 0:
                            inner = _rows(
                                enumerate_cross(alpha, gamma, 2.0 ** (m - d + 1))
                            )
                            assert inner <= step

    def test_witness_frequency(self) -> None:
        # (6, 5) sits inside the cross at level 32 but outside the step
        # cross of order 5, so neither inclusion is an equality.
        gamma = ProductWeights.ones(2)
        cross = IndexSet.cross(0.5, gamma, 32.0)
        step = IndexSet.step_cross(0.5, gamma, 5)
        assert cross.contains((6, 5))
        assert not step.contains((6, 5))
        assert r_alpha(0.5, gamma, (6, 5)) == 30.0 <= 32.0

    def test_order_domain(self) -> None:
        with pytest.raises(ValueError):
            enumerate_step_cross(1.0, (1.0,), -1)

    def test_cap_uses_exact_size(self) -> None:
        size = len(enumerate_step_cross(1.0, (1.0, 1.0), 5))
        with pytest.raises(CapExceeded) as exc:
            enumerate_step_cross(1.0, (1.0, 1.0), 5, cap=size - 1)
        assert exc.value.predicted == size
        assert len(enumerate_step_cross(1.0, (1.0, 1.0), 5, cap=size)) == size


class TestExactCounts:
    def test_rectangle_beyond_int64(self) -> None:
        alpha, gamma, nu = 0.5, (1.0, 1.0, 1.0), 1e7
        expected = math.prod(
            2 * int(w) + 1 for w in rectangle_halfwidths(alpha, gamma, nu)
        )
        assert expected > 2**63
        lazy = IndexSet.rectangle(alpha, gamma, nu, materialize=False)
        assert lazy.cardinality() == expected
        with pytest.raises(CapExceeded) as exc:
            enumerate_rectangle(alpha, gamma, nu)
        assert exc.value.predicted == expected

    def test_step_cross_beyond_float_mantissa(self) -> None:
        alpha, gamma, m = 0.5, (1.0, 1.0, 1.0), 50
        expected = _step_cross_count(alpha, gamma, m)
        assert expected > 2**53
        lazy = IndexSet.step_cross(alpha, gamma, m, materialize=False)
        assert lazy.cardinality() == expected
        with pytest.raises(CapExceeded) as exc:
            enumerate_step_cross(alpha, gamma, m)
        assert exc.value.predicted == expected

    @pytest.mark.parametrize(
        "family, enumerate, param",
        [
            ("cross", enumerate_cross, 40.0),
            ("rectangle", enumerate_rectangle, 40.0),
            ("step-cross", enumerate_step_cross, 5),
        ],
    )
    def test_cap_checked_before_rows(
        self, family, enumerate, param, monkeypatch
    ) -> None:
        gamma = (1.0, 0.5)
        count = len(enumerate(1.0, gamma, param))
        rows = index_sets._rows

        def partial_only(runs, steps, coords):
            assert len(coords) < len(runs.ups), \
                "rows built before the cap check"
            return rows(runs, steps, coords)

        monkeypatch.setattr(index_sets, "_rows", partial_only)
        with pytest.raises(CapExceeded) as exc:
            enumerate(1.0, gamma, param, cap=count - 1)
        assert (exc.value.predicted, exc.value.cap) == (count, count - 1)
        lazy = IndexSet(family, 1.0, ProductWeights(gamma), param)
        with pytest.raises(CapExceeded) as exc:
            lazy.materialized(count - 1)
        assert exc.value.predicted == count


class TestIndexSet:
    def test_family_membership_matches_rows(self) -> None:
        # The O(d) predicate and the materialised rows must agree on a
        # padded box, boundary ties included (nu = 16 has |k| = 4 ties).
        sets = [
            IndexSet.cross(1.0, ProductWeights.ones(2), 16.0),
            IndexSet.rectangle(1.0, (1.0, 0.25), 16.0),
            IndexSet.step_cross(0.5, (1.0, 0.5), 4),
        ]
        for spec in sets:
            lo = spec.frequencies.min() - 2
            hi = spec.frequencies.max() + 2
            members = _rows(spec.frequencies)
            for a in range(lo, hi + 1):
                for b in range(lo, hi + 1):
                    assert spec.contains((a, b)) == ((a, b) in members)

    @given(
        st.sampled_from(["cross", "rectangle", "step-cross"]),
        st.sampled_from([0.5, 1.0, 1.7]),
        st.sampled_from([(1.0,), (1.0, 0.5), (1.0, 1.0, 0.25)]),
        st.integers(min_value=0, max_value=5),
        st.tuples(
            st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12)
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_membership_property(self, family, alpha, gamma, level, k) -> None:
        if family == "cross":
            spec = IndexSet.cross(alpha, gamma, float(2**level))
        elif family == "rectangle":
            spec = IndexSet.rectangle(alpha, gamma, float(2**level))
        else:
            spec = IndexSet.step_cross(alpha, gamma, level)
        key = tuple(k[: spec.d])
        assert spec.contains(key) == (key in _rows(spec.frequencies))

    def test_custom_membership(self) -> None:
        spec = IndexSet.custom([(0, 0), (1, 2), (-1, -2)], 1.0, (1.0, 1.0))
        assert spec.contains((1, 2))
        assert not spec.contains((2, 1))

    def test_lazy_cardinality(self) -> None:
        for family, param in (("cross", 50.0), ("rectangle", 50.0), ("step-cross", 5)):
            lazy = IndexSet(family, 1.0, ProductWeights.ones(2), param)
            assert lazy.frequencies is None
            n = lazy.cardinality()
            assert n == len(lazy.materialized().frequencies)
            assert lazy.count == n

    def test_descriptor_drops_rows(self) -> None:
        spec = IndexSet.cross(1.0, (1.0, 1.0), 10.0)
        desc = spec.descriptor()
        assert desc.frequencies is None
        assert desc.count == spec.count
        custom = IndexSet.custom([(0, 0)], 1.0, (1.0, 1.0))
        assert custom.descriptor() is custom

    def test_rows_sorted_and_frozen(self) -> None:
        spec = IndexSet.custom([(2, 0), (0, 0), (-1, 3)], 1.0, (1.0, 1.0))
        assert spec.frequencies.tolist() == [[-1, 3], [0, 0], [2, 0]]
        assert not spec.frequencies.flags.writeable
        with pytest.raises(ValueError):
            spec.frequencies[0, 0] = 5

    def test_custom_deduplicates(self) -> None:
        spec = IndexSet.custom([(1, 1), (1, 1), (0, 0)], 1.0, (1.0, 1.0))
        assert spec.count == 2

    def test_named_rows_skip_the_sort(self, monkeypatch) -> None:
        # The walk emits rows sorted and distinct, so building a named set
        # checks the order in one pass and never sorts.
        def refuse(*args, **kwargs):
            raise AssertionError("sorted rows were sorted again")

        expected = [
            enumerate_cross(1.0, (1.0, 0.5), 40.0),
            enumerate_rectangle(1.0, (1.0, 0.5), 40.0),
            enumerate_step_cross(1.0, (1.0, 0.5, 0.25), 5),
        ]
        monkeypatch.setattr(np, "lexsort", refuse)
        for rows, lazy in zip(expected, (
            IndexSet.cross(1.0, (1.0, 0.5), 40.0, materialize=False),
            IndexSet.rectangle(1.0, (1.0, 0.5), 40.0, materialize=False),
            IndexSet.step_cross(1.0, (1.0, 0.5, 0.25), 5, materialize=False),
        )):
            np.testing.assert_array_equal(lazy.materialized().frequencies, rows)

    def test_named_rejects_duplicates(self) -> None:
        with pytest.raises(ValueError):
            IndexSet(
                "cross",
                1.0,
                ProductWeights.ones(1),
                1.0,
                np.array([[0], [0], [1]]),
            )

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            IndexSet("diamond", 1.0, ProductWeights.ones(1), 1.0)
        with pytest.raises(ValueError):
            IndexSet("custom", 1.0, ProductWeights.ones(1))
        with pytest.raises(ValueError):
            IndexSet("cross", 1.0, ProductWeights.ones(1))
        with pytest.raises(ValueError):
            IndexSet.custom([(0, 0)], 1.0, (1.0,))
        with pytest.raises(ValueError):
            IndexSet(
                "cross", 1.0, ProductWeights.ones(1), 1.0,
                np.array([[-1], [0], [1]]), count=5,
            )
        with pytest.raises(ValueError):
            IndexSet.cross(1.0, (1.0,), 5.0).contains((1, 2))

    def test_require_space(self) -> None:
        spec = IndexSet.cross(1.0, (1.0, 0.5), 10.0)
        spec.require_space(1.0, (1.0, 0.5))
        with pytest.raises(ValueError):
            spec.require_space(1.5, (1.0, 0.5))
        with pytest.raises(ValueError):
            spec.require_space(1.0, (1.0, 1.0))

    def test_json_round_trip_named(self) -> None:
        spec = IndexSet.step_cross(1.0, (1.0, 0.5), 4)
        back = IndexSet.from_json(spec.to_json())
        assert back == spec
        lazy = IndexSet.from_json(spec.to_json(), materialize=False)
        assert lazy.frequencies is None
        assert lazy.count == spec.count
        assert lazy.materialized() == spec

    def test_json_stored_count_checked(self) -> None:
        # A named set's stored count is checked against its family's own
        # count, as a materialised set's is against its rows: a tampered
        # count would pass the cap for a set of 25 rows.
        obj = IndexSet.step_cross(1.0, (1.0, 0.5), 4, materialize=False
                                  ).to_json()
        obj["count"] = 3
        for materialize in (False, True):
            with pytest.raises(ValueError, match="stored count 3"):
                IndexSet.from_json(obj, materialize=materialize)
        obj["count"] = 25
        assert IndexSet.from_json(obj, materialize=False).count == 25

    def test_json_round_trip_custom(self) -> None:
        spec = IndexSet.custom([(3, -1), (0, 0)], 1.5, (1.0, 1.0))
        back = IndexSet.from_json(spec.to_json())
        assert back == spec
        np.testing.assert_array_equal(back.frequencies, spec.frequencies)

    def test_equality(self) -> None:
        a = IndexSet.cross(1.0, (1.0,), 4.0)
        b = IndexSet.cross(1.0, (1.0,), 4.0)
        c = IndexSet.cross(1.0, (1.0,), 5.0)
        assert a == b
        assert a != c
        assert a != "cross"
        # A cached count is no part of a set's identity.
        lazy = IndexSet.cross(1.0, (1.0, 1.0), 9.0, materialize=False)
        fresh = IndexSet.cross(1.0, (1.0, 1.0), 9.0, materialize=False)
        assert lazy == fresh
        lazy.cardinality()
        assert lazy == fresh and fresh == lazy
