"""Lattice rules, the periodic kernel, and CBC construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcompress.lattice import (
    LatticeRule,
    ProductWeights,
    _phi_table,
    _root_powers,
    bound_constant_C,
    cbc_construct,
    generate_points,
    phi_alpha,
    worst_case_error,
)
from latcompress.special import primitive_root, zeta

# Frozen references for the non-integer kernel path, computed at 30
# digits as 2 Re Li_{2 alpha}(e^{2 pi i x}).
PHI_REFERENCE = (
    ((0.75, 0.3), -0.9101338590147052),
    ((1.31, 0.1), 1.6056148494380484),
    ((2.6, 0.45), -1.8615488404801928),
)


class TestProductWeights:
    def test_constructors(self) -> None:
        assert ProductWeights.ones(3).gamma == (1.0, 1.0, 1.0)
        assert ProductWeights.geometric(0.5, 3).gamma == (0.5, 0.25, 0.125)
        assert ProductWeights.polynomial(2.0, 3).gamma == (1.0, 0.25, 1 / 9)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            ProductWeights((0.5, 0.75))
        with pytest.raises(ValueError):
            ProductWeights((1.5,))
        with pytest.raises(ValueError):
            ProductWeights((0.0,))
        with pytest.raises(ValueError):
            ProductWeights((1.0, math.nan))

    def test_empty_is_dimension_zero(self) -> None:
        w = ProductWeights(())
        assert w.d == 0
        assert list(w) == []

    def test_truncated(self) -> None:
        w = ProductWeights.geometric(0.5, 4)
        assert w.truncated(2).gamma == (0.5, 0.25)
        with pytest.raises(ValueError):
            w.truncated(5)

    def test_sequence_protocol(self) -> None:
        w = ProductWeights((1.0, 0.5))
        assert len(w) == 2
        assert w[1] == 0.5
        assert tuple(w) == (1.0, 0.5)
        np.testing.assert_array_equal(w.as_array(), [1.0, 0.5])


class TestLatticeRule:
    def test_point_table(self) -> None:
        pts = generate_points(LatticeRule(5, (1, 2)))
        expected = np.array(
            [
                [0.0, 0.0],
                [0.2, 0.4],
                [0.4, 0.8],
                [0.6, 0.2],
                [0.8, 0.6],
            ]
        )
        np.testing.assert_allclose(pts, expected, atol=1e-15)

    def test_points_in_unit_cube(self) -> None:
        pts = generate_points(LatticeRule(7, (1, 3, 5)))
        assert pts.shape == (7, 3)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)
        np.testing.assert_array_equal(pts[0], 0.0)

    def test_single_point_rule(self) -> None:
        rule = LatticeRule(1, (0,))
        np.testing.assert_array_equal(generate_points(rule), [[0.0]])

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            LatticeRule(0, (1,))
        with pytest.raises(ValueError):
            LatticeRule(5, ())
        with pytest.raises(ValueError):
            LatticeRule(5, (1, 5))
        with pytest.raises(ValueError):
            LatticeRule(5, (0,))

    def test_json_round_trip(self, tmp_path) -> None:
        rule = LatticeRule(31, (1, 12, 7))
        assert LatticeRule.from_json(rule.to_json()) == rule
        path = str(tmp_path / "rule.json")
        rule.save(path)
        assert LatticeRule.load(path) == rule

    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_character_sum(self, L: int, gj: int, k: int) -> None:
        # The defining property of the node set: averaging a Fourier mode
        # over the nodes gives 1 exactly when the mode aliases to zero.
        g = 1 + gj % (L - 1) if L > 2 else 1
        pts = generate_points(LatticeRule(L, (g,)))
        mean = np.mean(np.exp(2j * np.pi * k * pts[:, 0]))
        expected = 1.0 if (k * g) % L == 0 else 0.0
        assert abs(mean - expected) < 1e-12


class TestKernel:
    def test_integer_anchors(self) -> None:
        assert phi_alpha(1.0, 0.0) == pytest.approx(math.pi**2 / 3, rel=1e-14)
        assert phi_alpha(1.0, 0.5) == pytest.approx(-math.pi**2 / 6, rel=1e-14)
        assert phi_alpha(2.0, 0.0) == pytest.approx(math.pi**4 / 45, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.75, 1.0, 1.31, 2.0, 2.6, 3.0])
    def test_zeta_anchors(self, alpha: float) -> None:
        # Closed forms of the defining series at x = 0, 1/2, 1/4.
        z = zeta(2 * alpha)
        q = 2.0 ** (1.0 - 2.0 * alpha)
        assert phi_alpha(alpha, 0.0) == pytest.approx(2 * z, rel=1e-12)
        assert phi_alpha(alpha, 0.5) == pytest.approx(
            -2 * (1 - q) * z, rel=1e-12
        )
        assert phi_alpha(alpha, 0.25) == pytest.approx(
            -q * (1 - q) * z, rel=1e-11, abs=1e-13
        )

    @pytest.mark.parametrize("args, expected", PHI_REFERENCE)
    def test_noninteger_reference(self, args, expected) -> None:
        alpha, x = args
        assert phi_alpha(alpha, x) == pytest.approx(expected, rel=1e-12)

    def test_partial_sum_oracle(self) -> None:
        # Direct series evaluation with an integral tail bound.
        alpha, x, H = 2.6, 0.45, 2000
        h = np.arange(1, H + 1, dtype=float)
        partial = float(np.sum(2.0 * np.cos(2 * np.pi * h * x) / h ** (2 * alpha)))
        tail = 2.0 * H ** (1 - 2 * alpha) / (2 * alpha - 1)
        assert abs(phi_alpha(alpha, x) - partial) <= tail + 1e-13

    def test_integer_path_against_series(self) -> None:
        alpha, x, H = 3.0, 0.37, 4000
        h = np.arange(1, H + 1, dtype=float)
        partial = float(np.sum(2.0 * np.cos(2 * np.pi * h * x) / h ** (2 * alpha)))
        tail = 2.0 * H ** (1 - 2 * alpha) / (2 * alpha - 1)
        assert abs(phi_alpha(alpha, x) - partial) <= tail + 1e-13

    @given(
        st.sampled_from([0.75, 1.0, 1.5, 2.0]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @example(0.75, 0.9999999999999999)
    @example(0.75, 1e-17)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_periodicity(self, alpha: float, x: float) -> None:
        # Compare against the arguments the floats actually represent:
        # x + 1.0 and 1.0 - x round, and for alpha < 1 the kernel's cusp
        # at 0 turns a 1e-16 shift of the argument into about 1e-7.
        v = phi_alpha(alpha, x)
        mirror = 1.0 - x
        assert phi_alpha(alpha, mirror) == pytest.approx(
            phi_alpha(alpha, 1.0 - mirror), abs=1e-11
        )
        shifted = x + 1.0
        assert phi_alpha(alpha, shifted) == pytest.approx(
            phi_alpha(alpha, shifted - 1.0), abs=1e-11
        )
        assert v <= phi_alpha(alpha, 0.0) + 1e-12

    def test_domain(self) -> None:
        with pytest.raises(ValueError):
            phi_alpha(0.5, 0.3)
        with pytest.raises(ValueError):
            phi_alpha(0.0, 0.3)

    @pytest.mark.parametrize("L", [13, 127, 509, 1021])
    @pytest.mark.parametrize("alpha", [0.51, 0.62, 0.75, 1.31, 2.6])
    def test_table_against_scalar(self, alpha: float, L: int) -> None:
        # The Hurwitz-zeta table against the mpmath kernel: every residue
        # at L = 13, else both ends, the middle and a spread between.
        tbl = _phi_table(alpha, L)
        if L == 13:
            rs = range(L)
        else:
            spread = np.linspace(3, L - 2, 17).astype(int)
            rs = sorted({0, 1, 2, L // 2, L // 2 + 1, L - 1, *spread})
        peak = phi_alpha(alpha, 0.0)
        for r in rs:
            assert abs(tbl[r] - phi_alpha(alpha, r / L)) <= 1e-12 * peak
        for r in range(1, L):
            assert tbl[r] == tbl[L - r]

    def test_noninteger_table_skips_mpmath(self, monkeypatch) -> None:
        # The table, the CBC scans and the worst-case error all run
        # without mpmath; only the scalar phi_alpha reference uses it.
        import mpmath

        def refuse(*args, **kwargs):
            raise AssertionError("mpmath called on the table path")

        monkeypatch.setattr(mpmath, "clcos", refuse)
        monkeypatch.setattr(mpmath, "zeta", refuse)
        _phi_table.cache_clear()
        gamma = ProductWeights.ones(2)
        tbl = _phi_table(0.62, 509)
        assert tbl[0] == pytest.approx(2.0 * zeta(1.24), rel=1e-13)
        for fast in (True, False):
            rule = cbc_construct(61, 2, 0.83, gamma, fast=fast)
            assert worst_case_error(rule, 0.83, gamma) > 0.0
        with pytest.raises(AssertionError, match="mpmath called"):
            phi_alpha(0.62, 0.3)

    @pytest.mark.parametrize("alpha", [1.0, 0.62, 2.0])
    def test_table_symmetric_and_pointwise(self, alpha: float) -> None:
        L = 13
        tbl = _phi_table(alpha, L)
        for r in range(1, L):
            assert tbl[r] == tbl[L - r]
        for r in range(L):
            assert tbl[r] == pytest.approx(phi_alpha(alpha, r / L), rel=1e-12)
        assert not tbl.flags.writeable


class TestWorstCaseError:
    def test_two_point_rule(self) -> None:
        e = worst_case_error(LatticeRule(2, (1,)), 1.0, ProductWeights.ones(1))
        assert e == pytest.approx(math.pi**2 / 12, rel=1e-13)

    def test_single_point_rule(self) -> None:
        e = worst_case_error(LatticeRule(1, (0,)), 1.0, ProductWeights.ones(1))
        assert e == pytest.approx(math.pi**2 / 3, rel=1e-13)

    @pytest.mark.parametrize(
        "rule, alpha",
        [
            (LatticeRule(7, (1, 3)), 1.0),
            (LatticeRule(13, (1, 5, 8)), 2.0),
            (LatticeRule(11, (1, 4)), 0.75),
        ],
    )
    def test_definition_oracle(self, rule: LatticeRule, alpha: float) -> None:
        # Recompute the closed form with scalar kernel calls only.
        gamma = ProductWeights.geometric(0.5, rule.d)
        total = 0.0
        for ell in range(rule.L):
            prod = 1.0
            for j, gj in enumerate(rule.g):
                prod *= 1.0 + gamma[j] * phi_alpha(
                    alpha, (ell * gj % rule.L) / rule.L
                )
            total += prod
        expected = total / rule.L - 1.0
        got = worst_case_error(rule, alpha, gamma)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self) -> None:
        with pytest.raises(ValueError):
            worst_case_error(LatticeRule(7, (1, 3)), 1.0, ProductWeights.ones(3))


class TestBoundConstant:
    def test_hand_value(self) -> None:
        c = bound_constant_C(1.0, 0.5, ProductWeights.ones(1))
        assert c == pytest.approx(math.sqrt(2.0 + 4.0 * zeta(2.0)), rel=1e-13)

    def test_dimension_zero(self) -> None:
        assert bound_constant_C(1.0, 0.5, ProductWeights(())) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_tau_domain(self) -> None:
        bound_constant_C(1.5, 1.0, ProductWeights.ones(2))
        with pytest.raises(ValueError):
            bound_constant_C(1.5, 1.2, ProductWeights.ones(2))
        with pytest.raises(ValueError):
            bound_constant_C(1.5, 0.0, ProductWeights.ones(2))

    def test_monotone_in_gamma(self) -> None:
        small = bound_constant_C(1.5, 0.5, ProductWeights.geometric(0.25, 3))
        large = bound_constant_C(1.5, 0.5, ProductWeights.ones(3))
        assert small < large


class TestCBC:
    @pytest.mark.parametrize(
        "alpha, L",
        [(a, L) for a in (1.0, 2.0, 0.62) for L in (31, 61)] + [(0.62, 509)],
    )
    def test_fast_matches_standard(self, alpha: float, L: int) -> None:
        gamma = ProductWeights.polynomial(2.0, 3)
        fast = cbc_construct(L, 3, alpha, gamma, fast=True)
        slow = cbc_construct(L, 3, alpha, gamma, fast=False)
        assert fast == slow

    @pytest.mark.parametrize("alpha", [1.0, 0.75])
    def test_greedy_argmin_oracle(self, alpha: float) -> None:
        # Each selected component must be the exact argmin of the
        # closed-form error over all candidates, ties to the smallest.
        L = 13
        gamma = ProductWeights.geometric(0.5, 3)
        rule = cbc_construct(L, 3, alpha, gamma)
        assert rule.g[0] == 1
        for j in range(1, 3):
            prefix = rule.g[:j]
            gsub = gamma.truncated(j + 1)
            scores = [
                worst_case_error(LatticeRule(L, prefix + (z,)), alpha, gsub)
                for z in range(1, L)
            ]
            best = min(scores)
            winners = [z for z, s in zip(range(1, L), scores) if s <= best + 1e-14]
            assert rule.g[j] == winners[0]

    def test_first_dimension(self) -> None:
        rule = cbc_construct(17, 1, 1.5, ProductWeights.ones(1))
        assert rule == LatticeRule(17, (1,))

    def test_error_bound_sample(self) -> None:
        alpha = 1.0
        gamma = ProductWeights.polynomial(2.0, 3)
        for L in (61, 127):
            rule = cbc_construct(L, 3, alpha, gamma)
            e = worst_case_error(rule, alpha, gamma)
            for tau in (0.25, 0.5):
                c = bound_constant_C(alpha, tau, gamma)
                assert e <= c * L ** (tau - alpha) * (1 + 1e-12)

    @pytest.mark.parametrize("alpha", [2.0, 1.3])
    def test_fast_matches_standard_wider(self, alpha: float) -> None:
        # a Bernoulli table at alpha = 2 and a Hurwitz-zeta table at 1.3,
        # over five components of a larger modulus
        gamma = ProductWeights.polynomial(2.0, 5)
        fast = cbc_construct(1021, 5, alpha, gamma, fast=True)
        slow = cbc_construct(1021, 5, alpha, gamma, fast=False)
        assert fast == slow

    @pytest.mark.parametrize("L", [2, 3, 127, 509, 8191])
    def test_root_powers(self, L: int) -> None:
        rho = primitive_root(L)
        pows = _root_powers(L)
        assert pows.tolist() == [pow(rho, c, L) for c in range(L - 1)]
        np.testing.assert_array_equal(np.sort(pows), np.arange(1, L))

    def test_root_order_made_once(self, monkeypatch) -> None:
        from latcompress import lattice

        calls = []

        def counted(p):
            calls.append(p)
            return primitive_root(p)

        monkeypatch.setattr(lattice, "primitive_root", counted)
        cbc_construct(127, 6, 1.0, ProductWeights.ones(6))
        assert calls == [127]
        cbc_construct(127, 1, 1.0, ProductWeights.ones(1))
        cbc_construct(127, 3, 1.0, ProductWeights.ones(3), fast=False)
        assert calls == [127]

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            cbc_construct(9, 2, 1.0, ProductWeights.ones(2))
        with pytest.raises(ValueError):
            cbc_construct(1, 2, 1.0, ProductWeights.ones(2))
        with pytest.raises(ValueError):
            cbc_construct(13, 0, 1.0, ProductWeights(()))
        with pytest.raises(ValueError):
            cbc_construct(13, 2, 1.0, ProductWeights.ones(3))
