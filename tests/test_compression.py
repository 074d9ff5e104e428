"""Weight computation: reference route, fast routes, serialisation."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import latcompress
from latcompress import compression, index_sets
from latcompress.compression import (
    Dataset,
    WeightSet,
    choose_route,
    compress,
    dirichlet_kernel,
    weights_general_fft,
    weights_lattice_data,
    weights_naive,
    weights_rectangle,
    weights_step_cross,
    weights_step_cross_pair,
)
from latcompress.index_sets import CapExceeded, IndexSet
from latcompress.lattice import LatticeRule, ProductWeights, generate_points
from latcompress.model import TrigModel, eval_model, lattice_alias_offenders
from test_index_sets import _step_cross_shapes


def _dataset(seed: int, n: int, d: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, d)), rng.standard_normal(n))


def _gap(w: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(w - ref)) / (1.0 + np.max(np.abs(ref))))


class TestDataset:
    def test_basic(self) -> None:
        data = _dataset(0, 10, 3)
        assert data.N == 10 and data.d == 3
        assert data.mean_y2 == pytest.approx(float(np.mean(data.Y**2)))
        assert not data.X.flags.writeable
        assert not data.Y.flags.writeable

    def test_validation_messages(self) -> None:
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="1-d"):
            Dataset(np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="3 points but 2"):
            Dataset(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="at least one"):
            Dataset(np.zeros((0, 1)), np.zeros(0))
        X = np.zeros((3, 2))
        X[1, 1] = 1.0
        with pytest.raises(ValueError, match=r"row 1, coordinate 2.*outside"):
            Dataset(X, np.zeros(3))
        X = np.zeros((3, 2))
        X[2, 0] = np.nan
        with pytest.raises(ValueError, match="row 2, coordinate 1"):
            Dataset(X, np.zeros(3))
        Y = np.zeros(3)
        Y[1] = np.inf
        with pytest.raises(ValueError, match="row 1: response"):
            Dataset(np.zeros((3, 2)), Y)


class TestDirichletKernel:
    def test_hand_values(self) -> None:
        assert dirichlet_kernel(1, 0.5) == -1.0
        assert dirichlet_kernel(0, 0.37) == 1.0
        assert dirichlet_kernel(2, 0.0) == 5.0
        assert dirichlet_kernel(3, 1.0) == 7.0

    def test_direct_sum_oracle(self) -> None:
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 5):
            for x in rng.random(8) * 2 - 0.5:
                direct = sum(
                    np.exp(2j * np.pi * k * x) for k in range(-n, n + 1)
                ).real
                assert dirichlet_kernel(n, float(x)) == pytest.approx(
                    direct, abs=1e-10
                )

    def test_near_integer_snaps(self) -> None:
        assert dirichlet_kernel(4, 1e-12) == 9.0
        assert dirichlet_kernel(4, 1.0 - 1e-12) == 9.0
        assert dirichlet_kernel(4, -2.0 + 1e-9) == 9.0

    def test_vectorised(self) -> None:
        x = np.array([0.0, 0.25, 0.5])
        out = dirichlet_kernel(1, x)
        np.testing.assert_allclose(out, [3.0, 1.0, -1.0], atol=1e-12)
        assert isinstance(dirichlet_kernel(1, 0.25), float)

    def test_order_domain(self) -> None:
        with pytest.raises(ValueError):
            dirichlet_kernel(-1, 0.3)


class TestHandExample:
    def test_single_point_three_modes(self) -> None:
        # One sample at the origin, nodes {0, 1/2}, modes {-1, 0, 1}:
        # the node at 0 sees all three modes add, the node at 1/2 sees
        # the two oscillating ones cancel against the constant.
        data = Dataset(np.zeros((1, 1)), np.array([2.0]))
        rule = LatticeRule(2, (1,))
        spec = IndexSet.cross(1.0, (1.0,), 1.0)
        for fn in (weights_naive, weights_general_fft):
            w1 = fn(data, "ones", rule, spec)
            w2 = fn(data, "responses", rule, spec)
            np.testing.assert_allclose(w1, [3.0, -1.0], atol=1e-12)
            np.testing.assert_allclose(w2, [6.0, -2.0], atol=1e-12)


FAST_CASES = [
    ("cross", 0, 40, 2, 13, (1, 5), 12.0),
    ("cross", 1, 25, 3, 17, (1, 4, 10), 25.0),
    ("rectangle", 2, 40, 2, 13, (1, 5), 20.0),
    ("rectangle", 3, 30, 3, 11, (1, 3, 9), 9.0),
    ("step-cross", 4, 40, 2, 13, (1, 5), 4),
    ("step-cross", 5, 30, 3, 17, (1, 4, 10), 3),
]


def _sweep_plan_oracle(spec: IndexSet) -> tuple:
    """The kernel route's DP plan built group by group, the oracle of
    ``_sweep_plan``: each prefix group searches the last run its cost
    admits (``_last_run``) and takes every nonempty run up to it, and the
    next coordinate's groups are the distinct accumulated costs, in
    ascending order; on the last coordinate a group takes the full kernel
    of its last run."""
    runs = spec._runs
    d = len(runs.ups)
    acc = np.full(1, float(runs.combine.identity))
    coords, kernels = [], []
    passes, held, groups = d + 2, 0, 0
    for j, (ups, costs) in enumerate(zip(runs.ups, runs.costs)):
        ups = ups.tolist()
        last = index_sets._last_run(runs, acc, costs)
        terms = []
        for g, (a, top) in enumerate(zip(acc, last)):
            if j == d - 1:
                terms.append((g, (ups[top], None), 0.0))
                continue
            for r in range(top + 1):
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
        passes += annuli + (len(terms) if j else 0) + len(terms) - len(sums)
        held = max(held, groups + len(sums) + len(orders) + annuli + 4)
        groups = len(sums)
    return tuple(coords), tuple(kernels), passes, held


class TestFastAgainstNaive:
    def test_naive_reduces_angles_exactly(self) -> None:
        # Frequencies past 2^21, and one past 2^42: the oracle's angles
        # lose only whole turns, against phases from exactly reduced
        # angles.
        freq = np.array([
            [2**21 + 5, 3], [-(2**30 + 7), 1], [2**40 + 1, -(2**22) - 9],
            [0, 0], [2**45 + 3, 1],
        ])
        data = _dataset(55, 9, 2)
        rule = LatticeRule(5, (1, 2))

        def phases(P):
            return (_exact_phases(P[:, 0], freq[:, 0])
                    * _exact_phases(P[:, 1], freq[:, 1]))

        want = _exact_node_phases(rule, freq).conj() @ (
            data.Y @ phases(data.X)
        ) / data.N
        spec = IndexSet.custom(freq, 1.0, (1.0, 1.0))
        got = weights_naive(data, "responses", rule, spec)
        assert _gap(got, want) < 1e-13

    def test_general_fft_matches_naive_at_large_frequencies(self) -> None:
        # k . z_l from rounded float nodes is off by about |k| 2^-53
        # turns; both routes take the node phases from exact residues.
        freq = np.array([[2**40 + 1, 3], [0, 0], [2**33 + 7, -1]])
        data = _dataset(0, 9, 2)
        rule = LatticeRule(7, (1, 3))
        spec = IndexSet.custom(freq, 1.0, (1.0, 1.0))
        naive = weights_naive(data, "responses", rule, spec)
        fast = weights_general_fft(data, "responses", rule, spec)
        assert _gap(fast, naive) < 1e-13

    def test_naive_shares_no_fast_phases(self, monkeypatch) -> None:
        # the oracle makes its own phases: with the fast routes' phase
        # builder broken it still runs, and agrees with them
        data = _dataset(8, 40, 2)
        rule = LatticeRule(31, (1, 12))
        spec = IndexSet.cross(1.0, (1.0, 0.5), 12.0)
        fast = weights_general_fft(data, "responses", rule, spec)

        def broken(*args):
            raise AssertionError("the oracle called _turn_phases")

        monkeypatch.setattr(compression, "_turn_phases", broken)
        with pytest.raises(AssertionError, match="oracle called"):
            weights_general_fft(data, "responses", rule, spec)
        ref = weights_naive(data, "responses", rule, spec)
        assert _gap(fast, ref) < 1e-12

    @pytest.mark.parametrize("family, seed, n, d, L, g, param", FAST_CASES)
    def test_families(self, family, seed, n, d, L, g, param) -> None:
        data = _dataset(seed, n, d)
        rule = LatticeRule(L, g)
        gamma = ProductWeights.geometric(0.5, d)
        alpha = 1.0
        if family == "cross":
            spec = IndexSet.cross(alpha, gamma, param)
            fast = weights_general_fft(data, "responses", rule, spec)
        elif family == "rectangle":
            spec = IndexSet.rectangle(alpha, gamma, param)
            fast = weights_rectangle(data, "responses", rule, spec)
        else:
            spec = IndexSet.step_cross(alpha, gamma, param)
            fast = weights_step_cross(data, "responses", rule, spec)
        ref = weights_naive(data, "responses", rule, spec)
        assert _gap(np.asarray(fast, dtype=np.complex128), ref) < 1e-9

    def test_custom_asymmetric_keeps_complex(self) -> None:
        data = _dataset(6, 30, 2)
        rule = LatticeRule(11, (1, 3))
        spec = IndexSet.custom([(0, 0), (1, 2), (2, -1)], 1.0, (1.0, 1.0))
        fast = weights_general_fft(data, "ones", rule, spec)
        ref = weights_naive(data, "ones", rule, spec)
        assert _gap(fast, ref) < 1e-9
        assert float(np.max(np.abs(ref.imag))) > 1e-3

    @pytest.mark.parametrize(
        "route", sorted(set(compression._ROUTES) - {"general-fft"})
    )
    def test_pair_matches_singles(self, route) -> None:
        # The two-vector pass of every route gives, to the bit, the
        # vectors of two one-vector passes; general-FFT's pair comes from
        # one complex FFT (test_pair_from_one_fft).
        data = _dataset(7, 35, 2)
        rule = LatticeRule(13, (1, 5))
        if route == "rectangle":
            spec = IndexSet.rectangle(1.0, (1.0, 0.5), 9.0)
        else:
            spec = IndexSet.step_cross(1.0, (1.0, 0.5), 4)
        run = compression._ROUTES[route]
        ones, ys = np.ones(data.N), data.Y
        pair = run(data, rule, spec, [ones, ys], 1, index_sets.DEFAULT_CAP)
        for w, c in zip(pair, (ones, ys)):
            single = run(data, rule, spec, [c], 1, index_sets.DEFAULT_CAP)
            np.testing.assert_array_equal(w, single[0])
        if route == "step-cross":
            for w, v in zip(pair, weights_step_cross_pair(data, rule, spec)):
                np.testing.assert_array_equal(w, v)

    @pytest.mark.parametrize("custom, scale", [
        pytest.param(custom, scale, id=("custom-" if custom else "")
                     + str(scale))
        for custom in (False, True) for scale in (1.0, 2.0**-60, 2.0**60)
    ])
    def test_pair_from_one_fft(self, custom, scale) -> None:
        # The two weight vectors of a set closed under negation, a named
        # family or the same rows as a custom set, come from one complex
        # FFT of S_1 + i 2^e S_2: each matches its own one-vector pass to
        # 1e-12 of its largest weight, and the direct sums to 1e-9, also
        # when the responses are 2^60 times smaller or larger than the
        # ones.
        data = _dataset(7, 35, 2)
        data = Dataset(data.X, scale * data.Y)
        rule = LatticeRule(13, (1, 5))
        spec = IndexSet.step_cross(1.0, (1.0, 0.5), 4)
        if custom:
            spec = IndexSet.custom(spec.frequencies, spec.alpha, spec.gamma)
        run = compression._ROUTES["general-fft"]
        cvecs = [np.ones(data.N), data.Y]
        pair = run(data, rule, spec, cvecs, 1, index_sets.DEFAULT_CAP)
        for w, c, name in zip(pair, cvecs, ("ones", "responses")):
            assert w.dtype == np.float64 and w.flags.c_contiguous
            top = float(np.max(np.abs(w)))
            single = run(data, rule, spec, [c], 1, index_sets.DEFAULT_CAP)
            assert float(np.max(np.abs(w - single[0]))) <= 1e-12 * top
            ref = weights_naive(data, name, rule, spec)
            assert float(np.max(np.abs(w - ref))) <= 1e-9 * top
        ws = compress(data, rule, spec, algorithm="general-fft")
        np.testing.assert_array_equal(ws.w_xz, pair[0])
        np.testing.assert_array_equal(ws.w_xyz, pair[1])

    def test_sweep_builds_the_planned_kernels(self, monkeypatch) -> None:
        # The cost model counts the plan's kernels; the route must build
        # each of them once per block, coordinate by coordinate, and no
        # others.  The last coordinate builds only the full kernels its
        # cost groups reach: one at d = 1.
        calls = []

        def counted(n, x):
            calls.append(n)
            return dirichlet_kernel(n, x)

        monkeypatch.setattr(compression, "dirichlet_kernel", counted)
        for spec, n_kernels in (
            (IndexSet.step_cross(0.5, (1.0, 0.5, 0.25), 5), 17),
            (IndexSet.step_cross(1.0, (1.0,), 6), 1),
            (IndexSet.rectangle(1.0, (1.0, 0.5, 0.25), 40.0), 3),
        ):
            del calls[:]
            data = _dataset(7, 35, spec.d)
            rule = LatticeRule(17, (1, 4, 10)[: spec.d])
            plan = compression._sweep_plan(spec)
            compress(data, rule, spec, spec.family)
            assert calls == [n for _, n in plan.kernels]
            assert len(plan.kernels) == n_kernels
            *_, last = plan.coords
            assert len(last[2]) == 1  # the last coordinate sums to one group

    @pytest.mark.parametrize(
        "d, m, alpha, L, g",
        [
            (5, 5, 0.5, 13, (1, 5, 3, 7, 11)),
            (8, 6, 1.0, 11, (1, 2, 3, 4, 5, 6, 7, 9)),
        ],
    )
    def test_dp_matches_shape_sum(self, d, m, alpha, L, g) -> None:
        # The DP against the disjoint decomposition summed shape by shape,
        # each a plain product of one factor per coordinate with no prefix
        # reuse.
        gamma = (1.0,) * d
        data = _dataset(31 + d, 20, d)
        rule = LatticeRule(L, g)
        spec = IndexSet.step_cross(alpha, gamma, m, materialize=False)
        shapes, bounds = _step_cross_shapes(2.0 * alpha, gamma, m)
        assert spec.cardinality() > 10_000 and len(shapes) > 100
        diffs = data.X[:, None, :] - generate_points(rule)[None, :, :]
        factor = {}
        for j in range(d):
            for t, (low, up) in enumerate(bounds[j]):
                factor[j, t] = dirichlet_kernel(up, diffs[:, :, j])
                if j and t:
                    factor[j, t] -= dirichlet_kernel(low, diffs[:, :, j])
        total = np.zeros((data.N, L))
        for row in shapes:
            prod = np.ones((data.N, L))
            for j, t in enumerate(row):
                prod = prod * factor[j, t]
            total += prod
        w1, w2 = weights_step_cross_pair(data, rule, spec)
        for w, c in ((w1, np.ones(data.N)), (w2, data.Y)):
            ref = c @ total / data.N
            assert float(np.max(np.abs(w - ref))) < 1e-12 * float(
                np.max(np.abs(ref))
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_plan_matches_group_by_group_oracle(self, seed) -> None:
        # The DP plan read from the walk's links against the plan built
        # group by group (:func:`_sweep_plan_oracle`), exactly: kernels,
        # factors, the terms summed into each group, passes and held
        # arrays, on seeded rectangles and step crosses, many with empty
        # runs (half-widths repeated across dyadic levels).
        rng = np.random.default_rng([seed, 1352])
        specs, empty = [], 0
        for i in range(24):
            d = int(rng.integers(1, 5))
            alpha = float(rng.uniform(0.3, 2.0))
            gamma = tuple(sorted(rng.uniform(0.05, 1.0, d), reverse=True))
            if i % 2:
                spec = IndexSet.rectangle(alpha, gamma,
                                          float(rng.uniform(1.0, 40.0)),
                                          materialize=False)
            else:
                spec = IndexSet.step_cross(alpha, gamma,
                                           int(rng.integers(0, 9 - d)),
                                           materialize=False)
            empty += any((np.diff(u) == 0).any() for u in spec._runs.ups)
            specs.append(spec)
        if seed == 0:
            specs.append(IndexSet.step_cross(1.0, ProductWeights.ones(8), 6,
                                             materialize=False))
        assert empty >= 3
        for spec in specs:
            plan = compression._sweep_plan(spec)
            assert tuple(plan) == _sweep_plan_oracle(spec)

    def test_family_guards(self) -> None:
        data = _dataset(8, 10, 2)
        rule = LatticeRule(7, (1, 3))
        cross = IndexSet.cross(1.0, (1.0, 1.0), 4.0)
        with pytest.raises(ValueError):
            weights_rectangle(data, "ones", rule, cross)
        with pytest.raises(ValueError):
            weights_step_cross(data, "ones", rule, cross)

    def test_linearity_in_coefficients(self) -> None:
        data = _dataset(9, 20, 2)
        rule = LatticeRule(11, (1, 4))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 8.0)
        rng = np.random.default_rng(10)
        c1, c2 = rng.standard_normal(20), rng.standard_normal(20)
        w = weights_general_fft(data, c1 + 2.0 * c2, rule, spec)
        w1 = weights_general_fft(data, c1, rule, spec)
        w2 = weights_general_fft(data, c2, rule, spec)
        np.testing.assert_allclose(w, w1 + 2.0 * w2, atol=1e-10)

    def test_aliasing_identity(self) -> None:
        # The node average of the weights equals the sum of the set's
        # Fourier data over the frequencies aliasing to zero.
        data = _dataset(11, 25, 2)
        rule = LatticeRule(13, (1, 5))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 20.0)
        w = weights_general_fft(data, "responses", rule, spec)
        freq = spec.frequencies
        on_dual = (freq @ np.array(rule.g)) % rule.L == 0
        phihat = (
            data.Y @ np.exp(2j * np.pi * (data.X @ freq.T))
        ) / data.N
        expected = phihat[on_dual].sum()
        assert abs(np.mean(w) - expected) < 1e-12

    def test_zero_mode_only(self) -> None:
        data = _dataset(12, 18, 2)
        rule = LatticeRule(7, (1, 2))
        spec = IndexSet.custom([(0, 0)], 1.0, (1.0, 1.0))
        w = weights_general_fft(data, "responses", rule, spec)
        np.testing.assert_allclose(w, np.full(7, data.Y.mean()), atol=1e-12)

    @pytest.mark.parametrize(
        "seed, n, L, g, spec",
        [
            (16, 6, 7, (1, 3), IndexSet.cross(1.0, (1.0, 0.5), 6.0)),
            (17, 5, 11, (1, 4, 7), IndexSet.step_cross(1.0, (1.0,) * 3, 2)),
            (18, 4, 5, (2, 3),
             IndexSet.custom([(0, 0), (1, 2), (2, -1)], 1.0, (1.0, 1.0))),
        ],
    )
    def test_naive_matches_triple_loop(self, seed, n, L, g, spec) -> None:
        # The factored reference against the definition summed term by
        # term: one loop over nodes, samples and frequencies.
        data = _dataset(seed, n, len(g))
        rule = LatticeRule(L, g)
        nodes = generate_points(rule)
        for c, cvec in (("ones", np.ones(n)), ("responses", data.Y)):
            ref = np.zeros(L, dtype=np.complex128)
            for ell in range(L):
                for x, cn in zip(data.X, cvec):
                    for k in spec.frequencies:
                        ref[ell] += cn * np.exp(
                            2j * np.pi * np.dot(k, x - nodes[ell])
                        )
            got = weights_naive(data, c, rule, spec)
            assert _gap(got, ref / n) < 1e-12

    def test_naive_cap(self) -> None:
        data = _dataset(13, 50, 2)
        rule = LatticeRule(13, (1, 5))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 20.0)
        work = rule.L * data.N * spec.count
        with pytest.raises(CapExceeded) as exc:
            weights_naive(data, "ones", rule, spec, cap=work - 1)
        assert exc.value.predicted == work

    def test_dimension_mismatch(self) -> None:
        data = _dataset(14, 10, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            weights_naive(
                data,
                "ones",
                LatticeRule(7, (1,)),
                IndexSet.cross(1.0, (1.0, 1.0), 4.0),
            )


def _sparse_support(seed: int, d: int, m: int) -> np.ndarray:
    """Distinct random rows in a box, in random order: a support that is
    neither downward closed nor sorted."""
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(-4, 5, size=(m, d)), axis=0)
    return rows[rng.permutation(len(rows))]


SPLIT_CASES = [
    (1, _sparse_support(40, 1, 6)),
    (2, _sparse_support(41, 2, 30)),
    (3, _sparse_support(42, 3, 40)),
    (4, _sparse_support(43, 4, 40)),
    (5, _sparse_support(44, 5, 40)),
    (3, IndexSet.step_cross(1.0, (1.0, 0.5, 0.25), 4).frequencies),
    (4, IndexSet.cross(1.0, (1.0, 0.5, 0.5, 0.25), 8.0).frequencies),
]


def _exact_node_phases(rule: LatticeRule, freq: np.ndarray) -> np.ndarray:
    """exp(2 pi i k . z_l) at every node l and row k, from the residue
    l (k . g) mod L in Python integers."""
    out = np.empty((rule.L, len(freq)), dtype=np.complex128)
    for ell in range(rule.L):
        for j, k in enumerate(freq.tolist()):
            m = ell * sum(a * b for a, b in zip(k, rule.g)) % rule.L
            t = 2.0 * math.pi * m / rule.L
            out[ell, j] = complex(math.cos(t), math.sin(t))
    return out


def _exact_phases(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp(2 pi i x u) from the angle reduced in exact rational
    arithmetic, then one cosine and one sine."""
    out = np.empty((len(x), len(u)), dtype=np.complex128)
    for i, xi in enumerate(x.tolist()):
        fx = Fraction(xi)
        for j, uj in enumerate(u.tolist()):
            t = 2.0 * math.pi * float(fx * uj % 1)
            out[i, j] = complex(math.cos(t), math.sin(t))
    return out


class TestPhases:
    X = np.concatenate([
        np.random.default_rng(52).random(12),
        [0.0, 0.5, 1.0 - 2.0**-53, 1e-17, 0.123456789],
    ])

    @pytest.mark.parametrize("u, factored", [
        (np.arange(-100_000, -99_850), True),
        (np.arange(-64, 65), True),
        (np.arange(99_000, 100_001, 3), True),
        (np.sort(np.random.default_rng(53).choice(
            np.arange(-100_000, 100_001), 1200, replace=False)), True),
        (np.array([-100_000, -3, 0, 7, 99_999]), False),
        # 201 magnitudes, computed directly: 108 columns and 1,225
        # products would cost more
        (np.arange(-100_000, 100_001, 997), False),
        (np.array([-5, 5]), False),
        (np.array([100_000]), False),
        # 605 magnitudes over the same range, factored
        (np.arange(-100_000, 100_001, 331), True),
    ])
    def test_against_exact_angles(self, u, factored, monkeypatch) -> None:
        # Both forms, baby-step/giant-step factors and direct columns,
        # stay within a few tens of ulp at any |u|: the angles are
        # reduced by whole turns without rounding.  Factored, fewer
        # columns are computed than u has distinct magnitudes.
        columns = []
        turn_phases = compression._turn_phases

        def counted(x, v, *out):
            columns.append(len(v))
            return turn_phases(x, v, *out)

        monkeypatch.setattr(compression, "_turn_phases", counted)
        got = compression._value_phases(self.X, u).T
        assert (sum(columns) < len(np.unique(np.abs(u)))) == factored
        assert float(np.max(np.abs(got - _exact_phases(self.X, u)))) < 1e-14

    @pytest.mark.parametrize("v", [
        1, 2, 4, 1024, 2**20,                  # scaled: x v is exact
        3, 7, 999, 12_345, 2**21 - 3, 2**21 - 1, -1, -12_345, -(2**21 - 1),
    ])
    def test_turn_phases_at_half_turns(self, v) -> None:
        # The half-angle tangent has its pole at a half turn.  Points
        # whose x v lies within 1e-15 of one, and x = 0, 1/2 and 1 -
        # 2^-53, stay within 1e-14 of the exactly reduced angle's phase,
        # each of modulus 1 within 1e-15.  For general v the reduced
        # angle t = (xh v - round(xh v)) + xl v passes 1/2 (xh on the
        # grid of 2^-32, xl below 2^-33 in size), so tan crosses its pole.
        av = abs(v)
        near = []
        for j in (0, 1, 2, 3, av - 1):
            x0 = float(Fraction(2 * j + 1, 2 * av))
            near += [np.nextafter(x0, -1.0), x0, np.nextafter(x0, 2.0)]
        near = [x for x in near if 0.0 <= x < 1.0 and abs(
            Fraction(x) * av % 1 - Fraction(1, 2)) <= 1e-15]
        assert len(near) >= 6
        x = np.array(near + [0.0, 0.5, 1.0 - 2.0**-53])
        got = compression._turn_phases(x, np.array([v]))[0]
        want = _exact_phases(x, np.array([v]))[:, 0]
        assert float(np.max(np.abs(got - want))) < 1e-14
        assert float(np.max(np.abs(np.abs(got) - 1.0))) < 1e-15
        if av & (av - 1):
            xh = np.round(x * 2.0**32) * 2.0**-32
            t = xh * v - np.round(xh * v) + (x - xh) * v
            assert float(np.max(np.abs(t))) > 0.5

    @pytest.mark.parametrize("u", [
        np.array([2**22 - 1]),
        np.array([10**7 + 1]),
        np.array([-(2**30 - 1), 2**30 - 1]),
        np.arange(2**21 - 3, 2**21 + 3),
        np.arange(-2**21 - 2, -2**21 + 2),
        np.arange(5_000_000 - 40, 5_000_000 + 41),
        np.sort(np.random.default_rng(54).choice(
            np.arange(-2**41, 2**41, 2**23 + 7), 300, replace=False)),
        np.array([-(2**42 - 1), -2**41, 0, 3, 2**42 - 1]),
    ])
    def test_beyond_exact_turns(self, u) -> None:
        # past 2^21 the value splits as uh 2^21 + ul; each factor's angle
        # is still reduced by whole turns without rounding
        got = compression._value_phases(self.X, u).T
        assert float(np.max(np.abs(got - _exact_phases(self.X, u)))) < 1e-14

    @pytest.mark.parametrize("top", [2**42, -2**42, 2**50])
    def test_phase_bound(self, top) -> None:
        with pytest.raises(ValueError, match="phase bound"):
            compression._value_phases(self.X, np.array([0, 1, top])).T

    @pytest.mark.parametrize("u", [
        np.arange(0, 65),                      # babies alone
        np.arange(99_000, 100_001, 3),         # giants times babies
        np.arange(-64, 65),                    # babies and conjugates
        np.array([-100_000, -3, 0, 7, 99_999]),  # direct, both signs
        np.array([100_000]),                   # a lone value
        np.array([-7]),
        np.arange(2**21 - 3, 2**21 + 3),       # split past 2^21
        np.array([-(2**30 - 1), 5, 2**30 - 1]),
    ])
    def test_value_major_tables(self, u, monkeypatch) -> None:
        # The table builder's layout: one contiguous row of the points'
        # phases per tabled value, every value's row within 1e-14 of the
        # exactly reduced angle.  Its planes, split in chunks of two rows,
        # are the real and imaginary parts of the table, or of its product
        # with gathered rows, to the bit.
        table, index = compression._phase_table(
            self.X, compression._recipe(u))
        assert table.flags.c_contiguous
        assert table.shape[1] == len(self.X)
        got = table[index]
        want = _exact_phases(self.X, u).T
        assert float(np.max(np.abs(got - want))) < 1e-14
        monkeypatch.setattr(compression, "_GATHER", 2 * len(self.X))
        for planes, whole in (
            (compression._split_planes(got.copy()), got),
            (compression._split_planes(got.copy(), table, index), got * got),
        ):
            assert planes.shape == (len(u), 2, len(self.X))
            np.testing.assert_array_equal(planes[:, 0], whole.real)
            np.testing.assert_array_equal(planes[:, 1], whole.imag)


def _cells(bucket) -> list:
    """A bucket's pair cells (a, +-tau), each once: its heads' and tails'
    places and the sign of the tail."""
    _, _, _, ii, jj, flip, _ = bucket
    return sorted(zip(ii.tolist(), jj.tolist(), flip.tolist()))


class TestSplit:
    """The head/tail split against sums that share none of its code."""

    @pytest.mark.parametrize("d, freq", SPLIT_CASES)
    def test_every_split_matches_direct_sums(self, d, freq) -> None:
        data = _dataset(45 + d, 37, d)
        rng = np.random.default_rng(46 + d)
        theta = rng.standard_normal(len(freq)) + 1j * rng.standard_normal(
            len(freq)
        )
        fold = compression._fold(freq)
        # every row is its representative r >=_lex 0 or the negation
        reps = fold.reps[fold.rep]
        np.testing.assert_array_equal(
            np.where(fold.flip[:, None], -reps, reps), freq
        )
        lead = fold.reps[np.arange(len(fold.reps)),
                         np.argmax(fold.reps != 0, axis=1)]
        assert np.all(lead >= 0)
        assert len(np.unique(fold.reps, axis=0)) == len(fold.reps)
        zero = np.flatnonzero(~fold.reps.any(axis=1))
        assert zero.tolist() == ([0] if np.any(~freq.any(axis=1)) else [])
        ph = np.exp(2j * np.pi * (data.X @ freq.T))
        ph_reps = np.exp(2j * np.pi * (data.X @ fold.reps.T))
        cvecs = [np.ones(data.N), data.Y]
        for h in range(1, d + 1):
            plan = compression._split_plan(fold, h)
            assert plan.heads.shape[1] == h
            assert sum(len(b[5]) for b in plan.buckets) == len(fold.reps)
            for got, c in zip(
                compression._split_adjoint(data.X, plan, cvecs, 1), cvecs
            ):
                assert _gap(got, c @ ph_reps) < 1e-12
            got = compression._split_forward(data.X, plan, theta)
            assert _gap(got, ph @ theta) < 1e-12

    def test_unpaired_tails_over_blocks(self, monkeypatch) -> None:
        # A custom set whose pair cells often hold one sign of their tail,
        # run over blocks of 5 samples (the last one partial), at every
        # split point: the adjoint for both vectors, bitwise the same for
        # two threads and for one vector at a time, and the forward pass
        # of a complex model (two coefficient columns) and of real ones
        # (one column), an even and an odd one.
        monkeypatch.setattr(compression, "_FFT_BLOCK", 1 << 9)
        d = 3
        freq = _sparse_support(56, d, 60)
        data = _dataset(57, 37, d)
        rng = np.random.default_rng(58)
        theta = rng.standard_normal(len(freq)) + 1j * rng.standard_normal(
            len(freq)
        )
        # real models on the support closed under negation (its sorted
        # rows: row i is the negation of row -1 - i): even ones weigh
        # cosines by cosines and sines by sines, odd ones cosines by sines
        sym = np.unique(np.vstack([freq, -freq]), axis=0)
        coef = rng.standard_normal(len(sym))
        even, odd = coef + coef[::-1], 1j * (coef - coef[::-1])
        ph = np.exp(2j * np.pi * (data.X @ freq.T))
        cvecs = [np.ones(data.N), data.Y]
        fold = compression._fold(freq)
        ph_reps = np.exp(2j * np.pi * (data.X @ fold.reps.T))
        lone = 0
        for h in range(1, d + 1):
            plan = compression._split_plan(fold, h)
            for a0, a1, tb, ii, jj, flip, rows in plan.buckets:
                tails = plan.tails[np.arange(len(plan.tails))[tb][jj]]
                _, first, counts = np.unique(
                    np.stack([ii, jj]), axis=1, return_index=True,
                    return_counts=True,
                )
                lone += int(np.sum((counts == 1) & tails[first].any(axis=1)))
            block = compression._split_phases(plan, data.N)[0]
            assert data.N % block and data.N > 2 * block
            sums = compression._split_adjoint(data.X, plan, cvecs, 1)
            for got, c in zip(sums, cvecs):
                assert _gap(got, c @ ph_reps) < 1e-12
            pooled = compression._split_adjoint(data.X, plan, cvecs, 2)
            for got, c, a in zip(pooled, cvecs, sums):
                np.testing.assert_array_equal(got, a)
                single = compression._split_adjoint(data.X, plan, [c], 1)[0]
                np.testing.assert_array_equal(single, a)
            got = compression._split_forward(data.X, plan, theta)
            assert _gap(got, ph @ theta) < 1e-12
            sym_plan = compression._split_plan(compression._fold(sym), h)
            sym_ph = np.exp(2j * np.pi * (data.X @ sym.T))
            for c in (even, odd):
                got = compression._split_forward(data.X, sym_plan, c)
                assert np.all(got.imag == 0.0)
                assert _gap(got, sym_ph @ c) < 1e-12
        assert lone > 0

    @pytest.mark.parametrize("zero", [True, False])
    def test_fold_on_an_asymmetric_set(self, zero) -> None:
        # A cross with the negations of some rows missing: the fold sends
        # S(r) to the residue of -r only when r is a row, and conj S(r) to
        # that of r only when -r is one.
        d = 3
        full = IndexSet.cross(1.0, (1.0, 0.5, 0.5), 12.0).frequencies
        rng = np.random.default_rng(50)
        freq = full[rng.random(len(full)) < 0.6]
        if zero != bool(np.any(np.all(freq == 0, axis=1))):
            freq = (np.vstack([freq, np.zeros((1, d), dtype=np.int64)])
                    if zero else freq[np.any(freq != 0, axis=1)])
        freq = freq[rng.permutation(len(freq))]
        rows = {tuple(k) for k in freq.tolist()}
        lone = sum(tuple(-v for v in k) not in rows for k in rows)
        assert 0 < lone < len(rows)
        data = _dataset(51, 40, d)
        rule = LatticeRule(13, (1, 5, 3))
        node_ph = np.exp(-2j * np.pi * (generate_points(rule) @ freq.T))
        fold = compression._fold(freq)
        assert len(fold.reps) == len(freq) - (len(rows) - lone) // 2
        assert not fold.closed
        cvecs = [np.ones(data.N), data.Y]
        for h in range(1, d + 1):
            plan = compression._split_plan(fold, h)
            sums = compression._split_adjoint(data.X, plan, cvecs, 1)
            # one fold shared by both vectors, and each vector's own
            shared = compression._node_weights(plan, sums, rule)
            for c, s, got in zip(cvecs, sums, shared):
                direct = c @ np.exp(2j * np.pi * (data.X @ freq.T))
                assert _gap(got, node_ph @ direct) < 1e-12
                alone = compression._node_weights(plan, [s], rule)[0]
                np.testing.assert_array_equal(alone, got)

    @pytest.mark.parametrize("zero, missing", [
        (True, False), (False, False), (True, True), (False, True),
    ])
    def test_fold_tells_closed_sets(self, zero, missing) -> None:
        # A set is closed under negation when every representative but
        # the zero row comes as often as its negation.  With no zero row
        # and one negation missing, every representative comes unflipped
        # and all but one flipped, the counts of a closed set with the
        # zero row; it is not closed all the same.
        half = np.array([[1, -2, 0], [0, 3, 1], [2, 0, -1], [0, 0, 4]])
        freq = np.vstack([half, -half[int(missing):]])
        if zero:
            freq = np.vstack([freq, np.zeros((1, 3), dtype=np.int64)])
        freq = freq[np.random.default_rng(53).permutation(len(freq))]
        fold = compression._fold(freq)
        assert len(fold.reps) == len(half) + zero
        assert fold.closed is not missing
        if zero != missing:
            assert (np.count_nonzero(~fold.flip), np.count_nonzero(fold.flip)
                    ) == (len(fold.reps), len(fold.reps) - 1)

    @pytest.mark.parametrize("d, freq", SPLIT_CASES[:5])
    def test_public_entries_match_triple_loop(self, d, freq) -> None:
        # eval_model and weights_general_fft on unsorted, sparse rows
        # against their definitions summed term by term.
        data = _dataset(47 + d, 5, d)
        rule = LatticeRule(7, (1, 3, 2, 5, 4)[:d])
        nodes = generate_points(rule)
        rng = np.random.default_rng(48 + d)
        theta = rng.standard_normal(len(freq)) + 1j * rng.standard_normal(
            len(freq)
        )
        model = TrigModel(freq, theta)
        ref = np.zeros(data.N, dtype=np.complex128)
        for n, x in enumerate(data.X):
            for k, t in zip(freq, theta):
                ref[n] += t * np.exp(2j * np.pi * sum(
                    kj * xj for kj, xj in zip(k, x)))
        assert _gap(eval_model(model, data.X), ref) < 1e-12
        spec = IndexSet.custom(freq, 1.0, (1.0,) * d)
        ref = np.zeros(rule.L, dtype=np.complex128)
        for ell, z in enumerate(nodes):
            for x, y in zip(data.X, data.Y):
                for k in freq:
                    ref[ell] += y * np.exp(2j * np.pi * sum(
                        kj * (xj - zj) for kj, xj, zj in zip(k, x, z)))
        got = weights_general_fft(data, "responses", rule, spec)
        assert _gap(got, ref / data.N) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            IndexSet.cross(1.0, (1.0, 0.5, 0.3), 40.0),
            IndexSet.cross(2.0, (1.0,) * 4, 2000.0),
            IndexSet.rectangle(1.0, (1.0, 0.5, 0.2), 30.0),
            IndexSet.step_cross(0.7, (1.0, 0.5, 0.25), 5),
            IndexSet.step_cross(1.0, (1.0,) * 5, 4),
            # (4, 4, 1) lies on the level line: the walk's left-to-right
            # costs reject it, a head's cost times the tail's own product
            # would admit it
            IndexSet.cross(0.8, (0.85, 0.61, 0.43), 378.76928657971695),
        ],
    )
    def test_run_table_sizes_match_rows(self, spec) -> None:
        # A named family's plan is read from its run tables; at every
        # split point it equals the folded plan of its rows, the oracle:
        # the heads, the tails tau, the bucket bounds, the pair cells
        # (a, +-tau) of every bucket, and the sizes it is priced by (heads,
        # tails tau, phase coordinates, pair cells and cosine and sine
        # columns).  Every bucket's tails are a prefix of the tails (a
        # view), and the zero row is the first representative.
        data = _dataset(52, 40, spec.d)
        rule = LatticeRule(31, (1, 12, 7, 5, 3)[:spec.d])
        cvecs = [np.ones(data.N), data.Y]
        fold = compression._fold(spec.frequencies)
        for h in range(1, spec.d + 1):
            rows = compression._split_plan(fold, h)
            split = compression._table_splits(spec)[h - 1]
            plan = compression._table_plan(split)
            assert split.sizes == rows.sizes == plan.sizes
            np.testing.assert_array_equal(plan.heads, rows.heads)
            np.testing.assert_array_equal(plan.tails, rows.tails)
            assert len(plan.buckets) == len(rows.buckets)
            n = 0
            for ours, theirs in zip(plan.buckets, rows.buckets):
                assert ours[:2] == theirs[:2]
                assert compression._width(ours[2]) == compression._width(theirs[2])
                assert isinstance(ours[2], slice) and ours[2].start == 0
                assert _cells(ours) == _cells(theirs)
                np.testing.assert_array_equal(ours[6], n + np.arange(
                    len(ours[6])))
                n += len(ours[6])
            assert n == len(fold.reps)
            first = plan.buckets[0]
            assert not plan.heads[first[0] + first[3][0]].any()
            assert not plan.tails[first[4][0]].any() and not first[5][0]
            if h == 1:
                # heads of one coordinate come in order, so their phases
                # are made in place, without a gathered copy
                assert np.all(np.diff(plan.heads[:, 0]) > 0)
            assert not compression._below_zero(plan.tails).any()
            cells = sum((a1 - a0) * compression._width(tb)
                        for a0, a1, tb, *_ in plan.buckets)
            assert split.sizes.cells == cells
            # both weight vectors as the row route gives them
            sums = compression._split_adjoint(data.X, plan, cvecs, 1)
            got = compression._node_weights(plan, sums, rule)
            sums = compression._split_adjoint(data.X, rows, cvecs, 1)
            want = compression._node_weights(rows, sums, rule)
            for w, ref in zip(got, want):
                top = float(np.max(np.abs(ref)))
                assert w.dtype == np.float64
                assert float(np.max(np.abs(w - ref))) <= 1e-12 * top

    def test_empty_custom_set(self) -> None:
        data = _dataset(49, 10, 2)
        spec = IndexSet.custom(np.zeros((0, 2), dtype=np.int64), 1.0,
                               (1.0, 1.0))
        ws = compress(data, LatticeRule(7, (1, 3)), spec)
        assert ws.algorithm == "general-fft"
        np.testing.assert_array_equal(ws.w_xz, np.zeros(7))

    def test_hot_paths_import_no_module(self) -> None:
        # numpy imports some of its modules on first use (numpy.ma from a
        # plain np.unique, numpy.fft); none may load on a hot path.
        src = os.path.dirname(os.path.dirname(latcompress.__file__))
        script = textwrap.dedent("""
            import sys
            import numpy as np
            rng = np.random.default_rng(0)
            X, Y = rng.random((300, 3)), rng.standard_normal(300)
            import latcompress as lc
            before = set(sys.modules)
            data = lc.Dataset(X, Y)
            rule = lc.LatticeRule(31, (1, 12, 7))
            g = lc.ProductWeights.ones(3)
            freq = np.array([[0, 0, 0], [1, -2, 0], [-1, 2, 0], [3, 0, 1]])
            for spec in (
                lc.IndexSet.step_cross(1.0, g, 4, materialize=False),
                lc.IndexSet.step_cross(0.5, g, 12, materialize=False),
                lc.IndexSet.custom(freq, 1.0, g),
                lc.IndexSet.cross(1.0, g, 30.0, materialize=False),
            ):
                ws = lc.compress(data, rule, spec, algorithm="auto")
            model = lc.TrigModel(freq, [1.0, 0.5, 0.5, 0.25])
            lc.eval_model(model, X)
            lc.exact_loss(model, data)
            real = lc.TrigModel(freq[:3], [1.0, 0.5, 0.5])
            lc.compressed_loss(real, ws, lam=0.1, reg="elastic", mix=0.5)
            lc.eval_model_on_lattice(real, rule)
            data_rule = lc.LatticeRule(61, (1, 23, 40))
            for responses in (None, np.linspace(-1.0, 1.0, 61)):
                lc.weights_lattice_data(data_rule, responses, rule, spec)
            lc.lattice_alias_offenders(freq, rule)
            print(sorted(set(sys.modules) - before))
        """)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]", out.stdout


class TestThreads:
    def test_general_fft_bitwise(self, monkeypatch) -> None:
        # Several blocks really run, each with its own matrix products;
        # neither the combine order nor BLAS may depend on the pool.
        rng = np.random.default_rng(15)
        freq = np.unique(rng.integers(-40, 41, size=(6000, 2)), axis=0)
        spec = IndexSet.custom(freq, 1.0, (1.0, 1.0))
        data = _dataset(16, 2500, 2)
        rule = LatticeRule(31, (1, 12))
        blocks = []
        sum_blocks = compression._sum_blocks

        def recorded(n_rows, block, fn, threads):
            blocks.append(-(-n_rows // block))
            return sum_blocks(n_rows, block, fn, threads)

        monkeypatch.setattr(compression, "_sum_blocks", recorded)
        a = weights_general_fft(data, "responses", rule, spec, threads=1)
        assert blocks == [2]
        for threads in (2, 4):
            b = weights_general_fft(
                data, "responses", rule, spec, threads=threads
            )
            np.testing.assert_array_equal(a, b)

    def test_general_fft_memory_flat_in_samples(self, monkeypatch) -> None:
        # Small blocks make the per-block partial sums (|K| complex each)
        # outweigh a block's working arrays: holding every partial until
        # the end would grow the peak by about 2 |K| 16 bytes per block.
        monkeypatch.setattr(compression, "_FFT_BLOCK", 1 << 14)
        spec = IndexSet.cross(1.0, (1.0, 1.0), 3000.0)
        assert spec.count == 1125  # 109 heads and tails: 75 rows a block
        rule = LatticeRule(61, (1, 25))
        for threads in (1, 2):
            peaks = []
            for n in (400, 3200):
                data = _dataset(19, n, 2)
                tracemalloc.start()
                try:
                    compress(data, rule, spec, "general-fft", threads)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # 37 more blocks would add about 1.5 MB of partials (1,277
            # cells of the split per vector).
            assert peaks[1] - peaks[0] < 1 << 20, peaks

    def test_rectangle_bitwise(self) -> None:
        data = _dataset(17, 15000, 2)
        rule = LatticeRule(509, (1, 208))
        spec = IndexSet.rectangle(1.0, (1.0, 1.0), 36.0)
        a = weights_rectangle(data, "responses", rule, spec, threads=1)
        for threads in (2, 4):
            b = weights_rectangle(
                data, "responses", rule, spec, threads=threads
            )
            np.testing.assert_array_equal(a, b)

    def test_compress_bitwise(self, monkeypatch) -> None:
        # Both routes must split the samples into blocks, so that the
        # fixed order of the block sums is what keeps the bits.  The last
        # case has stepcross-6d's size (N = 10,000, d = 6, L = 127) at
        # order 1: its memory budget alone would allow 37,744 rows a
        # block, so only the fixed row cap splits it.
        data = _dataset(18, 3000, 2)
        spec = IndexSet.step_cross(0.5, (1.0, 0.5), 9)
        blocks = []
        sum_blocks = compression._sum_blocks

        def recorded(n_rows, block, fn, threads):
            blocks.append(-(-n_rows // block))
            return sum_blocks(n_rows, block, fn, threads)

        monkeypatch.setattr(compression, "_sum_blocks", recorded)
        for algorithm, rule, data, spec in (
            ("general-fft", LatticeRule(61, (1, 25)), data, spec),
            ("step-cross", LatticeRule(509, (1, 208)), data, spec),
            (
                "step-cross",
                LatticeRule(127, (1, 19, 27, 40, 50, 61)),
                _dataset(20, 10_000, 6),
                IndexSet.step_cross(1.0, (1.0,) * 6, 1),
            ),
        ):
            del blocks[:]
            a = compress(data, rule, spec, algorithm, threads=1)
            assert blocks[0] >= 2, (algorithm, blocks)
            for threads in (2, 4):
                b = compress(data, rule, spec, algorithm, threads=threads)
                np.testing.assert_array_equal(a.w_xz, b.w_xz)
                np.testing.assert_array_equal(a.w_xyz, b.w_xyz)


    @pytest.mark.parametrize("threads", [0, -1, 2.5])
    def test_threads_must_be_positive_integer(self, threads,
                                              monkeypatch) -> None:
        # every entry runs through one check, which refuses the value
        # before a pool is started or a block is summed
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(compression, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(compression, "_sum_blocks", refuse)
        data = _dataset(17, 20, 2)
        rule = LatticeRule(31, (1, 12))
        gamma = (1.0, 0.5)
        calls = [
            lambda: compress(data, rule, IndexSet.cross(1.0, gamma, 8.0),
                             threads=threads),
            lambda: compress(data, rule, IndexSet.cross(1.0, gamma, 8.0),
                             "general-fft", threads),
            lambda: weights_general_fft(
                data, "ones", rule, IndexSet.cross(1.0, gamma, 8.0),
                threads=threads),
            lambda: weights_rectangle(
                data, "ones", rule, IndexSet.rectangle(1.0, gamma, 8.0),
                threads=threads),
            lambda: weights_step_cross(
                data, "ones", rule, IndexSet.step_cross(1.0, gamma, 3),
                threads=threads),
            lambda: weights_step_cross_pair(
                data, rule, IndexSet.step_cross(1.0, gamma, 3),
                threads=threads),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="positive integer"):
                call()


class TestLatticeData:
    def test_residues_exact_past_int64(self) -> None:
        # max |k_j| sum g passes 2^63 here, though |k_j| < 2^42: the
        # products k_j g_j wrap in int64 unless reduced mod L first.
        L = 4_194_301
        rule = LatticeRule(L, (L - 1, 1))
        k = 2**42 - 5
        freq = np.array([[k, 1], [-k, -1], [k, k % L], [3, -7]])
        want = [(a * (L - 1) + b) % L for a, b in freq.tolist()]
        np.testing.assert_array_equal(compression._residues(freq, rule), want)
        offenders = lattice_alias_offenders(freq, rule)
        np.testing.assert_array_equal(offenders, freq[2:3])

    def test_responses_match_naive(self) -> None:
        data_rule = LatticeRule(16, (1, 7))
        rule = LatticeRule(5, (1, 2))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 9.0)
        rng = np.random.default_rng(19)
        Y = rng.standard_normal(16)
        data = Dataset(generate_points(data_rule), Y)
        fast = weights_lattice_data(data_rule, Y, rule, spec, dataset=data)
        ref = weights_naive(data, "responses", rule, spec)
        assert _gap(fast, ref) < 1e-9

    def test_unit_coefficients_match_naive(self) -> None:
        data_rule = LatticeRule(16, (1, 7))
        rule = LatticeRule(5, (1, 2))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 9.0)
        data = Dataset(generate_points(data_rule), np.zeros(16))
        fast = weights_lattice_data(data_rule, None, rule, spec)
        ref = weights_naive(data, "ones", rule, spec)
        assert _gap(fast, ref) < 1e-9

    def test_sublattice_collapses_to_constant(self) -> None:
        # Nodes {l (1,2) / 5} sit inside the data lattice {n (1,2) / 15},
        # so the unit-coefficient weights are one constant: the number of
        # set frequencies annihilating the data lattice.
        data_rule = LatticeRule(15, (1, 2))
        rule = LatticeRule(5, (1, 2))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 8.0)
        w = weights_lattice_data(data_rule, None, rule, spec)
        kh = (spec.frequencies @ np.array([1, 2])) % 15
        expected = float(np.sum(kh == 0))
        np.testing.assert_allclose(w, expected, atol=1e-12)
        data = Dataset(generate_points(data_rule), np.zeros(15))
        ref = weights_naive(data, "ones", rule, spec)
        assert _gap(np.full(5, expected, dtype=np.complex128), ref) < 1e-9

    def test_dataset_cross_check(self) -> None:
        data_rule = LatticeRule(16, (1, 7))
        rule = LatticeRule(5, (1, 2))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 4.0)
        rng = np.random.default_rng(20)
        wrong = Dataset(rng.random((16, 2)), np.zeros(16))
        with pytest.raises(ValueError, match="not the nodes"):
            weights_lattice_data(
                data_rule, wrong.Y, rule, spec, dataset=wrong
            )

    def test_response_count_check(self) -> None:
        with pytest.raises(ValueError, match="responses"):
            weights_lattice_data(
                LatticeRule(16, (1, 7)),
                np.zeros(5),
                LatticeRule(5, (1, 2)),
                IndexSet.cross(1.0, (1.0, 1.0), 4.0),
            )


class TestCompress:
    def test_auto_routes(self) -> None:
        # One case on each side of the cost model for each kernel family:
        # general-FFT costs about |K| multiply-adds and the coordinates of
        # its split's phases per sample, a kernel route about L times its
        # array passes and kernels, so at L = 13 a handful of frequencies
        # favours general-FFT and tens of thousands the kernel route.
        data = _dataset(21, 30, 2)
        rule = LatticeRule(13, (1, 5))
        cases = [
            (IndexSet.cross(1.0, (1.0, 1.0), 10.0), "general-fft"),
            (IndexSet.rectangle(1.0, (1.0, 1.0), 3.0), "general-fft"),
            (IndexSet.rectangle(1.0, (1.0, 1.0), 10000.0), "rectangle"),
            (IndexSet.step_cross(2.0, (1.0, 1.0), 3), "general-fft"),
            (IndexSet.step_cross(0.5, (1.0, 1.0), 12), "step-cross"),
        ]
        for spec, expected in cases:
            costs = choose_route(data.N, rule, spec)["costs"]
            if len(costs) == 2:
                # each pinned case sits well clear of the break-even point
                assert max(costs.values()) > 3.0 * min(costs.values())
            ws = compress(data, rule, spec)
            assert ws.algorithm == expected
            assert ws.is_real
            ref1 = weights_naive(data, "ones", rule, spec)
            ref2 = weights_naive(data, "responses", rule, spec)
            assert _gap(ws.w_xz.astype(np.complex128), ref1) < 1e-9
            assert _gap(ws.w_xyz.astype(np.complex128), ref2) < 1e-9

    def test_explicit_naive(self) -> None:
        data = _dataset(22, 15, 2)
        rule = LatticeRule(7, (1, 3))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 5.0)
        ws = compress(data, rule, spec, algorithm="naive")
        assert ws.algorithm == "naive"
        assert ws.is_real
        # The cardinality cap binds every route, the reference included.
        lazy = IndexSet.cross(1.0, (1.0, 1.0), 9.0, materialize=False)
        assert lazy.cardinality() == 33
        for algorithm in ("naive", "general-fft"):
            with pytest.raises(CapExceeded):
                compress(data, rule, lazy, algorithm=algorithm, cap=32)

    def test_descriptor_is_lazy_with_count(self) -> None:
        data = _dataset(23, 15, 2)
        rule = LatticeRule(7, (1, 3))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 12.0)
        ws = compress(data, rule, spec)
        assert ws.index_set.frequencies is None
        assert ws.index_set.count == spec.count
        assert ws.mean_y2 == data.mean_y2
        lazy = IndexSet.cross(1.0, (1.0, 1.0), 12.0, materialize=False)
        assert compress(data, rule, lazy).index_set.count == spec.count
        assert lazy.count is None  # the caller's lazy set is left as it was

    def test_custom_symmetric_realised(self) -> None:
        data = _dataset(24, 20, 2)
        rule = LatticeRule(7, (1, 3))
        spec = IndexSet.custom(
            [(0, 0), (1, 2), (-1, -2)], 1.0, (1.0, 1.0)
        )
        ws = compress(data, rule, spec)
        assert ws.is_real

    def test_custom_asymmetric_stays_complex(self) -> None:
        data = _dataset(25, 20, 2)
        rule = LatticeRule(7, (1, 3))
        spec = IndexSet.custom([(0, 0), (1, 2)], 1.0, (1.0, 1.0))
        ws = compress(data, rule, spec)
        assert not ws.is_real

    def test_algorithm_guards(self) -> None:
        data = _dataset(26, 10, 2)
        rule = LatticeRule(7, (1, 3))
        cross = IndexSet.cross(1.0, (1.0, 1.0), 4.0)
        with pytest.raises(ValueError, match="cannot serve"):
            compress(data, rule, cross, algorithm="rectangle")
        with pytest.raises(ValueError, match="unknown algorithm"):
            compress(data, rule, cross, algorithm="magic")


class TestChooseRoute:
    def test_candidates_and_costs(self) -> None:
        rule = LatticeRule(13, (1, 5))
        cross = IndexSet.cross(1.0, (1.0, 1.0), 10.0)
        plan = choose_route(30, rule, cross)
        assert plan == {"route": "general-fft", "costs": plan["costs"]}
        assert list(plan["costs"]) == ["general-fft"]
        step = IndexSet.step_cross(0.5, (1.0, 1.0), 8)
        plan = choose_route(30, rule, step)
        assert set(plan["costs"]) == {"general-fft", "step-cross"}
        assert plan["route"] == min(plan["costs"], key=plan["costs"].get)
        assert all(c > 0.0 for c in plan["costs"].values())

    def test_linear_in_samples(self) -> None:
        # A subsample takes the route the full data takes: every price is
        # a per-sample cost times N, lazy sets included.
        rule = LatticeRule(127, (1, 35, 57))
        gamma = (1.0, 1.0, 1.0)
        for spec in (
            IndexSet.step_cross(1.0, gamma, 6),
            IndexSet.step_cross(1.0, gamma, 6, materialize=False),
            IndexSet.cross(1.0, gamma, 40.0, materialize=False),
            IndexSet.rectangle(1.0, gamma, 30.0, materialize=False),
        ):
            small = choose_route(200, rule, spec)
            large = choose_route(20000, rule, spec)
            assert small["route"] == large["route"]
            for route, cost in small["costs"].items():
                assert large["costs"][route] == pytest.approx(100.0 * cost)

    def test_lazy_and_materialised_price_alike(self) -> None:
        # Both are sized from the family's run tables, never from rows.
        rule = LatticeRule(31, (1, 12, 7))
        gamma = (1.0, 0.5, 0.25)
        for lazy in (
            IndexSet.step_cross(1.0, gamma, 5, materialize=False),
            IndexSet.cross(1.0, gamma, 30.0, materialize=False),
            IndexSet.rectangle(1.0, gamma, 20.0, materialize=False),
        ):
            full = lazy.materialized()
            assert choose_route(50, rule, lazy) == choose_route(50, rule, full)

    def test_large_step_cross_keeps_the_kernel_route(self) -> None:
        # d = 8, m = 10: |K| far above L, where the kernel sweep beats the
        # split's multiply-adds per sample, well clear of the break-even
        # point (between m = 7 and m = 8 at L = 127).
        rule = LatticeRule(127, (1, 35, 57, 19, 44, 101, 7, 88))
        spec = IndexSet.step_cross(1.0, ProductWeights.ones(8), 10,
                                   materialize=False)
        plan = choose_route(5000, rule, spec)
        assert spec.cardinality() == 9_413_361
        assert plan["route"] == "step-cross"
        assert plan["costs"]["general-fft"] > 3.0 * plan["costs"]["step-cross"]

    def test_pricing_reads_only_the_walk(self, monkeypatch) -> None:
        # Pricing a lazy named set reads the links of its one cost-group
        # walk: it builds no row of values and seeks no tail's admitting
        # head group.  The prices are those the unpatched code gives a
        # fresh copy of the set.
        rule = LatticeRule(127, (1, 35, 57, 19))
        gamma = (1.0, 0.5, 0.25, 0.2)
        specs = (
            ("step-cross", 6), ("cross", 40.0), ("rectangle", 20.0),
        )
        want = [choose_route(1000, rule, IndexSet(f, 1.0, gamma, p))
                for f, p in specs]

        def refuse(*args):
            raise AssertionError("pricing left the walk")

        for name in ("_rows", "_last_group"):
            for module in (index_sets, compression):
                monkeypatch.setattr(module, name, refuse, raising=True)
        for (family, param), ref in zip(specs, want):
            spec = IndexSet(family, 1.0, gamma, param)
            assert choose_route(1000, rule, spec) == ref

    def test_split_priced_once_per_compress(self, monkeypatch) -> None:
        # compress hands the split it priced to the route: a named
        # family's splits are sized once, from its run tables, and the one
        # the route expands into a plan is the object priced; a custom set
        # takes one plan per split point to price, and runs the cheapest
        calls = {"_cheapest_split": [], "_table_plan": [], "_split_plan": []}
        for name in calls:
            def counted(*args, _real=getattr(compression, name), _n=name):
                calls[_n].append(_real(*args))
                return calls[_n][-1]

            monkeypatch.setattr(compression, name, counted)
        data = _dataset(31, 40, 3)
        rule = LatticeRule(31, (1, 12, 7))
        gamma = (1.0, 0.5, 0.25)
        for spec in (
            IndexSet.step_cross(1.0, gamma, 4, materialize=False),
            IndexSet.cross(1.0, gamma, 30.0),
        ):
            assert compress(data, rule, spec).algorithm == "general-fft"
            priced, = calls["_cheapest_split"]
            plan, = calls["_table_plan"]
            assert plan.sizes is priced.sizes and not calls["_split_plan"]
            compress(data, rule, spec, algorithm="general-fft")
            assert [len(v) for v in calls.values()] == [2, 2, 0]
            for v in calls.values():
                v.clear()
        custom = IndexSet.custom(_sparse_support(32, 3, 30), 1.0, gamma)
        assert compress(data, rule, custom).algorithm == "general-fft"
        assert [len(v) for v in calls.values()] == [0, 0, 3]

    def test_lazy_set_walked_once_per_compress(self, monkeypatch) -> None:
        # the walk of cost groups that counts a lazy set also sizes its
        # splits: one walk per compress, by either way to general-FFT
        # (counted in any module that may hold the walk)
        walks = []
        steps = index_sets._cost_group_steps

        def counted(*args):
            walks.append(args)
            return steps(*args)

        for module in (index_sets, compression):
            monkeypatch.setattr(module, "_cost_group_steps", counted,
                                raising=False)
        data = _dataset(31, 40, 3)
        rule = LatticeRule(31, (1, 12, 7))
        spec = IndexSet.step_cross(1.0, (1.0, 0.5, 0.25), 4,
                                   materialize=False)
        for algorithm in ("auto", "general-fft"):
            ws = compress(data, rule, spec, algorithm=algorithm)
            assert ws.algorithm == "general-fft"
            assert len(walks) == 1, algorithm
            walks.clear()
        assert spec.count is None
        assert ws.index_set.count == spec.cardinality()

    def test_cap_removes_general_fft(self) -> None:
        rule = LatticeRule(31, (1, 12))
        step = IndexSet.step_cross(1.0, (1.0, 1.0), 5, materialize=False)
        count = step.cardinality()
        plan = choose_route(50, rule, step, cap=count - 1)
        assert plan["route"] == "step-cross"
        assert list(plan["costs"]) == ["step-cross"]
        cross = IndexSet.cross(1.0, (1.0, 1.0), 30.0, materialize=False)
        with pytest.raises(CapExceeded) as exc:
            choose_route(50, rule, cross, cap=cross.cardinality() - 1)
        assert exc.value.predicted == cross.cardinality()

    def test_never_enumerates(self, monkeypatch) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("the cost model enumerated a set")

        for name in (
            "enumerate_cross", "enumerate_rectangle", "enumerate_step_cross"
        ):
            monkeypatch.setattr(index_sets, name, refuse)
        monkeypatch.setattr(IndexSet, "materialized", refuse)
        rule = LatticeRule(127, (1, 35, 57, 19, 44, 101, 7, 88))
        gamma = ProductWeights.ones(8)
        for spec in (
            IndexSet.cross(1.0, gamma, 8.0, materialize=False),
            IndexSet.rectangle(1.0, gamma, 1e4, materialize=False),
            IndexSet.step_cross(0.5, gamma, 10, materialize=False),
        ):
            plan = choose_route(1000, rule, spec)
            assert plan["route"] in plan["costs"]


    def test_table_route_never_builds_rows(self, monkeypatch) -> None:
        # general-FFT reads a named family's plan from its run tables:
        # neither pricing nor the route builds a row of the set, the cap
        # still refuses a lazy set above it before any work, and a
        # materialised copy gets the very same weights.
        def refuse(*args):
            raise AssertionError("a set's rows were built")

        data = _dataset(33, 60, 3)
        rule = LatticeRule(31, (1, 12, 7))
        gamma = (1.0, 0.5, 0.25)
        specs = (
            IndexSet.step_cross(1.0, gamma, 5, materialize=False),
            IndexSet.cross(1.0, gamma, 30.0, materialize=False),
            IndexSet.rectangle(1.0, gamma, 20.0, materialize=False),
        )
        full = [spec.materialized() for spec in specs]
        for module in (index_sets, compression):
            monkeypatch.setattr(module, "_capped_rows", refuse,
                                raising=False)
        for spec, rows in zip(specs, full):
            for algorithm in ("auto", "general-fft"):
                ws = compress(data, rule, spec, algorithm)
                if algorithm == "auto":
                    assert ws.algorithm == "general-fft"
                ref = compress(data, rule, rows, "general-fft")
                np.testing.assert_array_equal(ws.w_xz, ref.w_xz)
                np.testing.assert_array_equal(ws.w_xyz, ref.w_xyz)
            with pytest.raises(CapExceeded) as exc:
                compress(data, rule, spec, "general-fft",
                         cap=spec.cardinality() - 1)
            assert exc.value.predicted == spec.cardinality()

class TestWeightSet:
    def _weights(self) -> WeightSet:
        data = _dataset(27, 25, 2)
        rule = LatticeRule(13, (1, 5))
        spec = IndexSet.step_cross(1.0, (1.0, 0.5), 3)
        return compress(data, rule, spec)

    def test_json_round_trip_bitwise(self, tmp_path) -> None:
        ws = self._weights()
        path = str(tmp_path / "w.json")
        ws.save(path)
        back = WeightSet.load(path)
        np.testing.assert_array_equal(back.w_xz, ws.w_xz)
        np.testing.assert_array_equal(back.w_xyz, ws.w_xyz)
        assert back.rule == ws.rule
        assert back.index_set == ws.index_set.descriptor()
        assert back.mean_y2 == ws.mean_y2
        assert back.algorithm == ws.algorithm

    def test_sidecar_round_trip(self, tmp_path) -> None:
        ws = self._weights()
        sub = tmp_path / "deep"
        sub.mkdir()
        path = str(sub / "w.json")
        ws.save(path, sidecar=True)
        assert (sub / "w.json.w64").exists()
        obj = json.loads((sub / "w.json").read_text())
        assert obj["weights"]["encoding"] == "w64"
        assert obj["weights"]["path"] == "w.json.w64"
        back = WeightSet.load(path)
        np.testing.assert_array_equal(back.w_xz, ws.w_xz)
        np.testing.assert_array_equal(back.w_xyz, ws.w_xyz)

    def test_complex_save_refused(self) -> None:
        data = _dataset(28, 10, 2)
        rule = LatticeRule(7, (1, 3))
        spec = IndexSet.custom([(0, 0), (1, 2)], 1.0, (1.0, 1.0))
        ws = compress(data, rule, spec)
        with pytest.raises(ValueError, match="complex"):
            ws.to_json()

    def test_load_validation(self, tmp_path) -> None:
        ws = self._weights()
        path = str(tmp_path / "w.json")
        ws.save(path, sidecar=True)

        junk = tmp_path / "junk.json"
        junk.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="not a weight-set"):
            WeightSet.load(str(junk))

        side = tmp_path / "w.json.w64"
        body = bytearray(side.read_bytes())
        body[:4] = b"XXXX"
        side.write_bytes(bytes(body))
        with pytest.raises(ValueError, match="bad magic"):
            WeightSet.load(path)

        body[:4] = b"LCW1"
        side.write_bytes(bytes(body[:-8]))
        with pytest.raises(ValueError, match="truncated"):
            WeightSet.load(path)

    def test_sidecar_trailing_bytes(self, tmp_path) -> None:
        # a sidecar longer than its header says is refused, not cut short
        ws = self._weights()
        path = str(tmp_path / "w.json")
        ws.save(path, sidecar=True)
        side = tmp_path / "w.json.w64"
        side.write_bytes(side.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="bytes after"):
            WeightSet.load(path)

    def test_shape_and_dtype_validation(self) -> None:
        rule = LatticeRule(3, (1,))
        spec = IndexSet.cross(1.0, (1.0,), 2.0)
        with pytest.raises(ValueError, match="shape"):
            WeightSet(np.zeros(2), np.zeros(3), 0.0, rule, spec, "naive")
        with pytest.raises(ValueError, match="float64 or complex128"):
            WeightSet(
                np.zeros(3, dtype=np.float32),
                np.zeros(3),
                0.0,
                rule,
                spec,
                "naive",
            )


class TestCollapse:
    """General-FFT with a named family's tails summed by lattice residue
    (``compression._collapse``) against the direct sums, the table plan's
    pass and its own runs on more threads."""

    @pytest.mark.parametrize("spec", [
        IndexSet.cross(1.0, (1.0, 0.5, 0.3), 40.0),
        IndexSet.rectangle(1.0, (1.0, 0.5, 0.2), 30.0),
        IndexSet.step_cross(1.0, (1.0,) * 4, 4),
        IndexSet.step_cross(0.7, (1.0, 0.5, 0.25), 5, materialize=False),
    ])
    def test_every_split_matches_naive(self, spec) -> None:
        # at every split point, h = 1 (a zero head and a one-coordinate
        # head side) to h = d (only the zero tail, of width 0): both
        # weight vectors within 1e-12 of the direct sums, real
        data = _dataset(60, 50, spec.d)
        rule = LatticeRule(31, (1, 12, 7, 5)[:spec.d])
        refs = [weights_naive(data, c, rule, spec)
                for c in ("ones", "responses")]
        cvecs = [np.ones(data.N), data.Y]
        for split in compression._table_splits(spec):
            plan = compression._table_plan(split)
            tails = compression._collapse(
                plan, rule, compression._prefixes(plan, rule))
            assert not tails.tails[tails.zero].any()
            assert tails.reflect.sum() == len(tails.heads) - 1
            got = compression._general_fft_route(
                data, rule, spec, cvecs, 1, 10**6, split=split,
                collapse=True)
            for w, ref in zip(got, refs):
                assert w.dtype == np.float64
                assert _gap(w, ref) < 1e-12, split.h

    def test_prefix_rows_lead(self) -> None:
        # each prefix's rows of F are a leading slice, each holding one
        # residue, and every tail of the prefix adds into one of them
        spec = IndexSet.step_cross(1.0, (1.0,) * 5, 5, materialize=False)
        rule = LatticeRule(61, (1, 12, 7, 5, 3))
        for split in compression._table_splits(spec):
            plan = compression._table_plan(split)
            prefixes = compression._prefixes(plan, rule)
            tails = compression._collapse(plan, rule, prefixes)
            assert len(np.unique(tails.res)) == len(tails.res)
            assert tails.sizes.widest == len(tails.res)
            assert tails.sizes.cells == sum(
                (a1 - a0) * r for *_, a0, a1, r in tails.steps)
            h = split.h
            res = compression._residues(tails.tails, rule, slice(h, None))
            t, done = 0, 0
            for (old, into), (new, rows), lo, a0, a1, r in tails.steps:
                k = sum(old) + sum(new)
                seg = set(res[t:t + k].tolist())
                assert seg <= set(tails.res[:r].tolist())
                assert set(tails.res[done:r].tolist()) <= seg
                assert lo <= done and (not len(into) or into.min() == lo)
                np.testing.assert_array_equal(rows, done + np.arange(
                    r - done))
                t, done = t + k, r
            assert t == len(tails.tails) == len(plan.tails)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_threads_bitwise(self, threads) -> None:
        # blocks are fixed by the problem size and summed in order: the
        # collapsed weights are bitwise the same for 1, 2 and 3 threads
        spec = IndexSet.step_cross(1.0, (1.0,) * 5, 4, materialize=False)
        rule = LatticeRule(61, (1, 12, 7, 5, 3))
        data = _dataset(61, 3000, 5)
        split = compression._cheapest_split(spec)
        plan = compression._table_plan(split)
        tails = compression._collapse(
            plan, rule, compression._prefixes(plan, rule))
        assert compression._split_phases(tails, data.N, 3)[0] * 3 < data.N
        one = compression._collapsed_weights(data, rule, spec, 1)
        many = compression._collapsed_weights(data, rule, spec, threads)
        for a, b in zip(one, many):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("spec, rule, collapsed", [
        # stepcross-6d's set and rule: 4,496 collapsed cells against
        # 12,737 pair cells over 4 prefixes
        (IndexSet.step_cross(1.0, (1.0,) * 6, 6, materialize=False),
         LatticeRule(127, (1, 35, 15, 40, 32, 32)), True),
        # cross-4d's: nearly every tail its own residue at L = 8191
        (IndexSet.cross(2.0, (1.0,) * 4, 677441.845789146,
                        materialize=False),
         LatticeRule(8191, (1, 3457, 2970, 655)), False),
    ])
    def test_price_picks_the_plan(
        self, spec, rule, collapsed, monkeypatch
    ) -> None:
        # auto runs the collapsed pass exactly where its price is below
        # the table plan's products, at the split choose_route priced
        runs = []
        adjoint = compression._collapsed_adjoint

        def counted(*args):
            runs.append(args[1])
            return adjoint(*args)

        monkeypatch.setattr(compression, "_collapsed_adjoint", counted)
        plan = compression._table_plan(compression._cheapest_split(spec))
        prefixes = compression._prefixes(plan, rule)
        cheaper = (compression._collapse_price(prefixes)
                   < compression._cells_price(plan.sizes, 2))
        assert cheaper == collapsed
        data = _dataset(62, 40, spec.d)
        ws = compress(data, rule, spec)
        assert ws.algorithm == "general-fft"
        assert len(runs) == collapsed
        if collapsed:
            assert runs[0].sizes.cells == 4496 and len(runs[0].steps) == 4
            assert plan.sizes.cells == 12737

    def test_finisher_memory_per_representative(self) -> None:
        # the finisher classes the n representatives' residues once and
        # gathers S per vector: its peak above its entry stays below 40
        # bytes a representative, where arrays over the 2n - 1 rows (an
        # index, residues of both signs, their gather) take 140
        spec = IndexSet.step_cross(1.0, (1.0,) * 6, 6, materialize=False)
        rule = LatticeRule(127, (1, 35, 57, 19, 44, 101))
        plan = compression._table_plan(compression._cheapest_split(spec))
        n = sum(len(b[6]) for b in plan.buckets)
        assert n == (spec.cardinality() + 1) // 2
        rng = np.random.default_rng(63)
        sums = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for _ in range(2)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            compression._node_weights(plan, sums, rule)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 40 * n
