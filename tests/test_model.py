"""Trigonometric models, losses, penalties, and norms."""

import math

import numpy as np
import pytest

from latcompress import compression
from latcompress.compression import Dataset, WeightSet, compress
from latcompress.index_sets import CapExceeded, IndexSet
from latcompress.lattice import LatticeRule, ProductWeights, generate_points
from latcompress.model import (
    LossReport,
    TrigModel,
    compressed_loss,
    eval_model,
    eval_model_on_lattice,
    exact_loss,
    korobov_norm,
    lattice_alias_offenders,
    model_squared,
    regularizer,
    wiener_norm,
)
# the node oracle, shared with ``verify --suite oracle``
from latcompress.verify import _node_terms, _real_model


def _random_model(seed: int, d: int, reach: int, m: int) -> TrigModel:
    rng = np.random.default_rng(seed)
    freq = np.unique(
        rng.integers(-reach, reach + 1, size=(m, d)), axis=0
    )
    theta = rng.standard_normal(len(freq)) + 1j * rng.standard_normal(
        len(freq)
    )
    return TrigModel(freq, theta)


def _real_box_model(reach: int, decay: float = 3.0) -> TrigModel:
    ax = np.arange(-reach, reach + 1)
    ka, kb = np.meshgrid(ax, ax, indexing="ij")
    freq = np.stack([ka.ravel(), kb.ravel()], axis=1)
    theta = np.prod((1.0 + np.abs(freq)) ** (-decay), axis=1).astype(
        np.complex128
    )
    return TrigModel(freq, theta)


class TestTrigModel:
    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="2-d"):
            TrigModel(np.array([1, 2]), np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="theta"):
            TrigModel(np.array([[1, 2]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="at least one"):
            TrigModel(np.zeros((0, 2), dtype=int), np.zeros(0))
        with pytest.raises(ValueError, match="duplicate"):
            TrigModel(np.array([[1, 0], [1, 0]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            TrigModel(np.array([[1, 0]]), np.array([np.nan + 0j]))

    def test_arrays_frozen(self) -> None:
        m = _random_model(0, 2, 3, 10)
        assert not m.frequencies.flags.writeable
        assert not m.theta.flags.writeable

    def test_real_symmetric_accepts(self) -> None:
        m = TrigModel.real_symmetric(
            [[1, 0], [0, 0], [-1, 0]],
            [0.5 - 0.25j, 1.0 + 0j, 0.5 + 0.25j],
        )
        vals = eval_model(m, np.random.default_rng(1).random((20, 2)))
        assert float(np.max(np.abs(vals.imag))) < 1e-12

    def test_real_symmetric_rejects(self) -> None:
        with pytest.raises(ValueError, match="negation"):
            TrigModel.real_symmetric([[1, 0]], [1.0 + 0j])
        with pytest.raises(ValueError, match="conjugate"):
            TrigModel.real_symmetric(
                [[1, 0], [-1, 0]], [0.5 + 0.25j, 0.5 + 0.25j]
            )

    def test_json_round_trip_bitwise(self, tmp_path) -> None:
        m = _random_model(2, 3, 5, 40)
        back = TrigModel.from_json(m.to_json())
        np.testing.assert_array_equal(back.frequencies, m.frequencies)
        np.testing.assert_array_equal(back.theta, m.theta)
        path = str(tmp_path / "model.json")
        m.save(path)
        loaded = TrigModel.load(path)
        np.testing.assert_array_equal(loaded.theta, m.theta)
        with pytest.raises(ValueError, match="trig-model"):
            TrigModel.from_json({"format": "other"})


class TestEvalModel:
    def test_single_mode(self) -> None:
        m = TrigModel(np.array([[1, 0]]), np.array([1.0 + 0j]))
        assert eval_model(m, np.array([0.25, 0.7])) == pytest.approx(1j)
        assert eval_model(m, np.array([0.5, 0.1])) == pytest.approx(-1.0)

    def test_constant_model(self) -> None:
        m = TrigModel(np.array([[0, 0]]), np.array([3.5 + 0j]))
        pts = np.random.default_rng(3).random((10, 2))
        np.testing.assert_allclose(eval_model(m, pts), 3.5, atol=1e-14)

    def test_direct_sum_oracle(self) -> None:
        m = _random_model(4, 2, 4, 25)
        pts = np.random.default_rng(5).random((15, 2))
        direct = np.array(
            [
                sum(
                    t * np.exp(2j * np.pi * float(np.dot(k, x)))
                    for k, t in zip(m.frequencies, m.theta)
                )
                for x in pts
            ]
        )
        got = eval_model(m, pts)
        np.testing.assert_allclose(got, direct, atol=1e-11)

    def test_frequencies_beyond_2_21(self) -> None:
        # 5,000,001 lies past the 2^21 up to which one reduction by whole
        # turns is exact; the model still matches exactly reduced angles
        from test_compression import _exact_phases

        k = np.array([0, 5_000_001, -5_000_001, 2**21, 3, 2**30 + 5])
        freq = np.column_stack([k, np.roll(k, 1)])
        theta = np.random.default_rng(12).standard_normal(
            (len(k), 2)
        ) @ np.array([1.0, 1j])
        pts = np.random.default_rng(13).random((30, 2))
        direct = (
            _exact_phases(pts[:, 0], freq[:, 0])
            * _exact_phases(pts[:, 1], freq[:, 1])
        ) @ theta
        got = eval_model(TrigModel(freq, theta), pts)
        assert float(np.max(np.abs(got - direct))) < 1e-12

    def test_points_outside_the_unit_cube(self) -> None:
        # Points are reduced by their floor first, which is exact: far
        # from [0, 1) the phases still match exactly reduced angles, and
        # points inside are left as they are, to the bit.
        from test_compression import _exact_phases

        k = 2**20 + 3
        model = TrigModel(np.array([[k], [1]]), np.array([1.0, 0.5j]))
        x = np.array([5.3, 1000.3, -7.9, 0.3])
        direct = (
            _exact_phases(x, np.array([k, 1])) @ model.theta
        )
        got = eval_model(model, x[:, None])
        assert float(np.max(np.abs(got - direct))) < 1e-12
        inside = np.random.default_rng(14).random((9, 1))
        np.testing.assert_array_equal(
            eval_model(model, inside),
            compression._split_forward(
                inside, compression._split_rows(model.frequencies),
                model.theta,
            ),
        )

    @pytest.mark.parametrize("zero", [True, False])
    def test_real_and_complex_models(self, zero) -> None:
        # The sum runs over the rows r >=_lex 0 with P = theta_r + conj
        # theta_{-r} and Q = theta_r - conj theta_{-r}: a real model takes
        # P alone; an imaginary theta_0 or an asymmetric theta takes Q too.
        rng = np.random.default_rng(11)
        freq = IndexSet.cross(1.0, (1.0, 0.5, 0.5), 10.0).frequencies
        if not zero:
            freq = freq[np.any(freq != 0, axis=1)]
        freq = freq[rng.permutation(len(freq))]
        index = {tuple(k): i for i, k in enumerate(freq.tolist())}
        partner = np.array([index[tuple(-v for v in k)]
                            for k in freq.tolist()])
        a = rng.standard_normal(len(freq)) + 1j * rng.standard_normal(
            len(freq)
        )
        pts = rng.random((40, 3))
        ph = np.exp(2j * np.pi * (pts @ freq.T))
        real = 0.5 * (a + a[partner].conj())
        origin = np.flatnonzero(np.all(freq == 0, axis=1))
        shifted = real.copy()
        shifted[origin] += 0.75j
        fold = compression._fold(freq)
        for theta, columns in ((real, 1), (a, 2), (shifted, 1 + zero)):
            got = eval_model(TrigModel(freq, theta), pts)
            ref = ph @ theta
            scale = 1.0 + float(np.max(np.abs(ref)))
            assert float(np.max(np.abs(got - ref))) / scale < 1e-12
            coef = compression._folded_coefficients(fold, theta)
            assert coef.shape == (len(fold.reps), columns)
        assert not np.any(eval_model(TrigModel(freq, real), pts).imag)

    def test_dimension_check(self) -> None:
        m = _random_model(6, 2, 3, 10)
        with pytest.raises(ValueError, match="coordinates"):
            eval_model(m, np.zeros((4, 3)))

    def test_lattice_eval_matches_direct(self) -> None:
        rng = np.random.default_rng(7)
        for L, g in ((17, (1, 7)), (31, (1, 12)), (61, (1, 25))):
            rule = LatticeRule(L, g)
            m = _random_model(int(rng.integers(1e6)), 2, 9, 60)
            direct = eval_model(m, generate_points(rule))
            fast = eval_model_on_lattice(m, rule)
            scale = 1.0 + float(np.max(np.abs(direct)))
            assert float(np.max(np.abs(direct - fast))) / scale < 1e-12

    def test_plan_made_once(self, monkeypatch) -> None:
        from latcompress import model as model_mod

        calls = []
        split_rows = model_mod._split_rows

        def counted(freq):
            calls.append(len(freq))
            return split_rows(freq)

        monkeypatch.setattr(model_mod, "_split_rows", counted)
        m = _random_model(9, 3, 4, 50)
        pts = np.random.default_rng(10).random((30, 3))
        first = eval_model(m, pts)
        np.testing.assert_array_equal(eval_model(m, pts[:7]), first[:7])
        assert calls == [m.size]

    def test_lattice_eval_dimension_check(self) -> None:
        m = _random_model(8, 2, 3, 10)
        with pytest.raises(ValueError):
            eval_model_on_lattice(m, LatticeRule(7, (1,)))


class TestRegularizer:
    def test_hand_values(self) -> None:
        th = [0.0, 3.0, -4.0]
        assert regularizer("none", th) == 0.0
        assert regularizer("best_subset", th) == 2.0
        assert regularizer("lasso", th) == 7.0
        assert regularizer("ridge", th) == 25.0
        assert regularizer("elastic", th, mix=0.5) == 16.0

    def test_elastic_mix(self) -> None:
        # mix * lasso + (1 - mix) * squared norm: 0.25 * 7 + 0.75 * 25
        assert regularizer("elastic", [0.0, 3.0, -4.0], mix=0.25) == 20.5

    def test_zero_vector(self) -> None:
        th = np.zeros(4)
        for kind in ("none", "best_subset", "lasso", "ridge"):
            assert regularizer(kind, th) == 0.0
        assert regularizer("elastic", th, mix=0.3) == 0.0

    def test_complex_coefficients(self) -> None:
        th = [3.0 + 4.0j]
        assert regularizer("lasso", th) == pytest.approx(5.0)
        assert regularizer("ridge", th) == pytest.approx(25.0)
        assert regularizer("best_subset", th) == 1.0

    def test_tikhonov(self) -> None:
        th = np.array([1.0, 2.0])
        t = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert regularizer("ridge", th, tikhonov=t) == pytest.approx(4.0)

    def test_argument_guards(self) -> None:
        th = [1.0]
        with pytest.raises(ValueError, match="unknown regularizer"):
            regularizer("l7", th)
        with pytest.raises(ValueError, match="tikhonov"):
            regularizer("lasso", th, tikhonov=np.eye(1))
        with pytest.raises(ValueError, match="mixing"):
            regularizer("ridge", th, mix=0.5)
        with pytest.raises(ValueError, match="mixing"):
            regularizer("elastic", th)
        with pytest.raises(ValueError, match="outside"):
            regularizer("elastic", th, mix=1.5)
        with pytest.raises(ValueError, match="mat"):
            regularizer("ridge", th, tikhonov=np.eye(3))


class TestLossReport:
    def test_identity_is_exact(self) -> None:
        rep = LossReport.assemble(0.37, -0.12, 1.4, 2.0, 0.25)
        assert rep.value == rep.quadratic - 2.0 * rep.cross + rep.constant + rep.lam * rep.reg
        obj = rep.to_json()
        assert obj["value"] == rep.value

    def test_constant_fit(self) -> None:
        # Two samples, responses 1 and -1, constant prediction 1:
        # residuals 0 and 2, mean squared residual 2.
        data = Dataset(np.array([[0.1], [0.4]]), np.array([1.0, -1.0]))
        m = TrigModel(np.array([[0]]), np.array([1.0 + 0j]))
        rep = exact_loss(m, data)
        assert rep.value == pytest.approx(2.0, abs=1e-14)
        assert rep.quadratic == pytest.approx(1.0)
        assert rep.cross == pytest.approx(0.0)
        assert rep.constant == pytest.approx(1.0)

    def test_penalty_enters_value(self) -> None:
        data = Dataset(np.array([[0.1], [0.4]]), np.array([1.0, -1.0]))
        m = TrigModel(np.array([[0]]), np.array([2.0 + 0j]))
        plain = exact_loss(m, data)
        pen = exact_loss(m, data, lam=0.5, reg="lasso")
        assert pen.reg == 2.0
        assert pen.value == pytest.approx(plain.value + 0.5 * 2.0)

    def test_residual_summed_directly(self) -> None:
        # A model that fits its data to about 1e-6: the three terms are
        # near 1 and cancel in value, while the residual, summed from
        # f - y, keeps its digits; the penalty stays out of it.
        model = _real_box_model(3)
        rng = np.random.default_rng(59)
        X = rng.random((500, 2))
        noise = 1e-6 * rng.standard_normal(500)
        data = Dataset(X, eval_model(model, X).real + noise)
        rep = exact_loss(model, data, lam=0.5, reg="ridge")
        assert rep.quadratic > 0.1
        assert rep.residual == pytest.approx(np.mean(noise**2), rel=1e-6)
        assert abs(rep.value - rep.lam * rep.reg - rep.residual) < 1e-14
        assert rep.to_json()["residual"] == rep.residual
        assert exact_loss(
            TrigModel(np.array([[0]]), np.array([1.0 + 0j])),
            Dataset(np.array([[0.1], [0.4]]), np.array([1.0, -1.0])),
        ).residual == 2.0
        # the compressed loss has no residual to report
        ws = compress(data, LatticeRule(31, (1, 12)),
                      IndexSet.cross(1.0, (1.0, 1.0), 8.0))
        approx = compressed_loss(model, ws)
        assert approx.residual is None
        assert "residual" not in approx.to_json()

    def test_model_not_real_on_the_samples(self) -> None:
        # Coefficients not closed under conjugation: the quadratic term is
        # mean |f|^2, the cross term mean Re f y, and the residual mean
        # |f - y|^2, each against sums taken from eval_model directly.
        model = TrigModel(np.array([[-1, 0], [1, 2], [0, 1]]),
                          np.array([1.0 + 0.5j, 0.25 - 1.0j, 0.75 + 0j]))
        rng = np.random.default_rng(60)
        X = rng.random((200, 2))
        data = Dataset(X, rng.standard_normal(200))
        f = eval_model(model, X)
        assert np.max(np.abs(f.imag)) > 0.1
        rep = exact_loss(model, data)
        quad = np.mean(f.real ** 2 + f.imag ** 2)
        assert rep.quadratic == pytest.approx(quad, rel=1e-12)
        assert rep.cross == pytest.approx(np.mean(f.real * data.Y),
                                          rel=1e-12)
        r = f - data.Y
        assert rep.residual == pytest.approx(
            np.mean(r.real ** 2 + r.imag ** 2), rel=1e-12
        )
        assert rep.value == pytest.approx(rep.residual, rel=1e-12)


def _sole_class_member(spec: IndexSet, rule: LatticeRule, rows) -> bool:
    # Each row must be the only index-set element in its residue class
    # modulo the dual lattice; that is the premise under which the
    # compressed terms reproduce the exact ones for arbitrary data.
    K = spec.frequencies
    g = np.asarray(rule.g, dtype=np.int64)
    kres = (K @ g) % rule.L
    for row in np.asarray(rows, dtype=np.int64):
        hits = K[kres == int((row @ g) % rule.L)]
        if len(hits) != 1 or not np.array_equal(hits[0], row):
            return False
    return True


class TestCompressedLoss:
    def _setup(self, seed: int = 30):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.random((80, 2)), rng.standard_normal(80))
        rule = LatticeRule(61, (1, 25))
        spec = IndexSet.cross(1.0, (1.0, 1.0), 18.0)
        return data, rule, spec, compress(data, rule, spec)

    def test_exact_when_classes_are_sole(self) -> None:
        data, rule, spec, ws = self._setup()
        freq = np.array([[0, 0], [1, 1], [-1, -1]])
        m = TrigModel.real_symmetric(freq, [1.0, 0.3 - 0.2j, 0.3 + 0.2j])
        assert _sole_class_member(spec, rule, m.frequencies)
        assert _sole_class_member(spec, rule, model_squared(m).frequencies)
        a = exact_loss(m, data)
        b = compressed_loss(m, ws)
        assert abs(a.value - b.value) <= 1e-10
        assert abs(a.quadratic - b.quadratic) <= 1e-10
        assert abs(a.cross - b.cross) <= 1e-10
        assert a.constant == b.constant

    def test_constant_models_exact_iff_no_offenders(self) -> None:
        data, rule, spec, ws = self._setup(29)
        assert len(lattice_alias_offenders(spec.frequencies, rule)) == 0
        assert spec.contains((0, 0))
        for c in (1.0, -2.5):
            m = TrigModel(np.array([[0, 0]]), np.array([c + 0j]))
            a = exact_loss(m, data)
            b = compressed_loss(m, ws)
            assert abs(a.value - b.value) <= 1e-10

    def test_penalties_flow_through(self) -> None:
        data, rule, spec, ws = self._setup(31)
        m = TrigModel(np.array([[0, 0]]), np.array([1.5 + 0j]))
        a = exact_loss(m, data, lam=0.1, reg="ridge")
        b = compressed_loss(m, ws, lam=0.1, reg="ridge")
        assert abs(a.value - b.value) <= 1e-10
        assert a.reg == b.reg == 2.25

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, math.nan, math.inf])
    def test_penalty_weight_checked(self, lam) -> None:
        # a negative weight would reward the penalty, and nan or inf
        # would pass into the value; both losses refuse them
        data, rule, spec, ws = self._setup(31)
        m = TrigModel(np.array([[0, 0]]), np.array([1.5 + 0j]))
        for loss, source in ((compressed_loss, ws), (exact_loss, data)):
            with pytest.raises(ValueError, match="lam must be finite"):
                loss(m, source, lam=lam, reg="ridge")
            assert loss(m, source, lam=0.0, reg="ridge").lam == 0.0

    def test_penalty_agrees_bitwise(self) -> None:
        # the losses and regularizer compute the penalty by one helper
        data, rule, spec, ws = self._setup(31)
        m = _real_model(36, 2, 6, 30)
        t = np.random.default_rng(37).standard_normal((4, m.size))
        for reg, kw in (("none", {}), ("best_subset", {}), ("lasso", {}),
                        ("ridge", {}), ("ridge", {"tikhonov": t}),
                        ("elastic", {"mix": 0.3})):
            want = regularizer(reg, list(m.theta), **kw)
            assert compressed_loss(m, ws, lam=0.5, reg=reg, **kw).reg == want
            assert exact_loss(m, data, lam=0.5, reg=reg, **kw).reg == want
        with pytest.raises(ValueError, match="outside"):
            compressed_loss(m, ws, reg="elastic", mix=1.5)
        with pytest.raises(ValueError, match="tikhonov"):
            compressed_loss(m, ws, reg="lasso", tikhonov=t)
        with pytest.raises(ValueError, match="unknown regularizer"):
            exact_loss(m, data, reg="l7")

    def test_rule_cross_check(self) -> None:
        data, rule, spec, ws = self._setup(32)
        m = TrigModel(np.array([[0, 0]]), np.array([1.0 + 0j]))
        compressed_loss(m, ws, rule=rule)
        with pytest.raises(ValueError, match="not the one"):
            compressed_loss(m, ws, rule=LatticeRule(61, (1, 24)))

    def test_dimension_mismatch_rejected(self) -> None:
        # a model of another d than the weights' rule, on the matrix path
        # and on the node path (a support too large for the matrix)
        data, rule, spec, ws = self._setup(35)
        for m in (
            TrigModel(np.array([[0, 0, 0]]), np.array([1.0 + 0j])),
            TrigModel(np.array([[0]]), np.array([1.0 + 0j])),
            _real_model(36, 3, 6, 300),
        ):
            with pytest.raises(ValueError, match=f"model has {m.d} coord"):
                compressed_loss(m, ws)

    def test_complex_weights_rejected(self) -> None:
        rng = np.random.default_rng(33)
        data = Dataset(rng.random((20, 2)), rng.standard_normal(20))
        rule = LatticeRule(7, (1, 3))
        spec = IndexSet.custom([(0, 0), (1, 2)], 1.0, (1.0, 1.0))
        ws = compress(data, rule, spec)
        m = TrigModel(np.array([[0, 0]]), np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="real weight"):
            compressed_loss(m, ws)

    def test_non_real_model_rejected(self) -> None:
        data, rule, spec, ws = self._setup(34)
        m = TrigModel(np.array([[1, 0]]), np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="real-valued"):
            compressed_loss(m, ws)


def _weights(seed: int, rule: LatticeRule):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.random((200, rule.d)), rng.standard_normal(200))
    spec = IndexSet.cross(1.0, (1.0,) * rule.d, 40.0)
    return compress(data, rule, spec)


def _assert_node_terms(report: LossReport, model: TrigModel, ws) -> None:
    quad, crs = _node_terms(model, ws)
    scale = abs(quad) + abs(crs)
    assert abs(report.quadratic - quad) <= 1e-12 * scale
    assert abs(report.cross - crs) <= 1e-12 * scale


class TestFrequencyDomainLoss:
    @pytest.mark.parametrize(
        "L, g, reach, m, form",
        [
            (61, (1, 25), 9, 80, True),  # prime L, 161 rows on 61 residues
            (64, (1, 27), 9, 80, True),  # composite L
            (1021, (1, 408), 40, 400, False),  # |U| > 256: node path
            (1024, (1, 411), 40, 400, False),
        ],
    )
    def test_matches_node_oracle(self, L, g, reach, m, form) -> None:
        rule = LatticeRule(L, g)
        ws = _weights(L, rule)
        model = _real_model(L + 1, 2, reach, m)
        r = (model.frequencies @ np.asarray(g)) % L
        assert len(set(r.tolist())) < model.size  # residues collide
        report = compressed_loss(model, ws, lam=0.1, reg="ridge")
        _assert_node_terms(report, model, ws)
        assert (model._cache.loss.W is not None) == form
        assert (model._cache.nodes is None) == form

    def test_support_not_closed_under_negation(self) -> None:
        # (1, 0) and (-26, 1) are not each other's negation, but their
        # residues 1 and 60 are, modulo 61: real on the nodes.
        rule = LatticeRule(61, (1, 25))
        freq = np.array([[0, 0], [1, 0], [-26, 1]])
        with pytest.raises(ValueError, match="negation"):
            TrigModel.real_symmetric(freq, [0.5, 0.3 + 0.2j, 0.3 - 0.2j])
        model = TrigModel(freq, [0.5, 0.3 + 0.2j, 0.3 - 0.2j])
        ws = _weights(5, rule)
        _assert_node_terms(compressed_loss(model, ws), model, ws)
        assert model._cache.loss.W is not None
        assert model._cache.nodes is None
        # a lone residue whose negation no row occupies is not real
        lone = TrigModel(freq[:2], [0.5, 0.3 + 0.2j])
        with pytest.raises(ValueError, match="real-valued"):
            compressed_loss(lone, ws)

    @pytest.mark.parametrize("spread, raises", [(True, False), (False, True)])
    def test_inconclusive_bound_takes_the_node_path(
        self, spread, raises
    ) -> None:
        # 100 pairs, each off by 1.2e-11 from conjugate symmetry: sum |h|
        # is 2.4e-9 and sqrt(sum |h|^2) 1.7e-10, so the nodes decide.
        # Spread signs keep Im f below 1e-9; equal signs add up to 2.4e-9
        # at the first node.
        rule = LatticeRule(509, (1,))
        ws = _weights(6, rule)
        k = np.arange(1, 101)
        freq = np.concatenate([[0], k, -k])[:, None]
        rng = np.random.default_rng(7)
        a = rng.standard_normal(100) * 0.01
        eps = 1.2e-11 * (rng.choice([-1.0, 1.0], 100) if spread else 1.0)
        theta = np.concatenate([[0.2], a + 1j * eps, a + 1j * eps])
        model = TrigModel(freq, theta)
        # h on the classes k and -k alike
        h = np.abs(0.5 * (theta[1:101] - theta[101:].conj()))
        h_l1, h_l2 = 2 * h.sum(), np.sqrt(2 * (h * h).sum())
        assert h_l2 <= 1e-9 < h_l1
        if raises:
            with pytest.raises(ValueError, match="real-valued"):
                _node_terms(model, ws)
            with pytest.raises(ValueError, match="real-valued"):
                compressed_loss(model, ws)
        else:
            report = compressed_loss(model, ws)
            quad, crs = _node_terms(model, ws)
            assert (report.quadratic, report.cross) == (quad, crs)
        assert model._cache.nodes is not None

    @pytest.mark.parametrize(
        "L, g, reach, m", [(61, (1, 25), 9, 80), (1021, (1, 408), 40, 400)]
    )
    def test_non_real_model_raises(self, L, g, reach, m, monkeypatch) -> None:
        # by the 2-norm bound on 61 nodes, by the nodes on 1021
        from latcompress import model as model_mod

        ws = _weights(8, LatticeRule(L, g))
        real = _real_model(9, 2, reach, m)
        if L == 61:
            def no_nodes(*args):
                raise AssertionError("the bound should have decided")

            monkeypatch.setattr(model_mod, "_node_values", no_nodes)
        for model in (
            TrigModel(real.frequencies, real.theta + 1e-6j),
            TrigModel(np.array([[1, 0]]), np.array([1.0 + 0j])),
        ):
            with pytest.raises(ValueError, match="real-valued"):
                _node_terms(model, ws)
            with pytest.raises(ValueError, match="real-valued"):
                compressed_loss(model, ws)

    def test_tiny_model_uses_its_real_part(self) -> None:
        # sum |h| = 4e-10 passes the bound, and the loss is that of the
        # real part 4e-10 cos(2 pi k . x), as on the nodes
        ws = _weights(24, LatticeRule(61, (1, 25)))
        model = TrigModel(np.array([[1, 0]]), np.array([4e-10 + 0j]))
        _assert_node_terms(compressed_loss(model, ws), model, ws)
        assert model._cache.loss.W is not None
        assert model._cache.nodes is None

    def test_repeated_calls_bitwise(self) -> None:
        rule = LatticeRule(61, (1, 25))
        ws = _weights(10, rule)
        model = _real_model(11, 2, 6, 30)
        first = compressed_loss(model, ws, lam=0.1, reg="lasso")
        again = compressed_loss(model, ws, lam=0.1, reg="lasso")
        fresh = compressed_loss(
            TrigModel(model.frequencies, model.theta), ws, lam=0.1,
            reg="lasso",
        )
        assert first == again == fresh

    def test_one_model_two_weight_sets(self) -> None:
        rule = LatticeRule(61, (1, 25))
        ws1, ws2 = _weights(12, rule), _weights(13, rule)
        model = _real_model(14, 2, 6, 30)
        a1 = compressed_loss(model, ws1)
        a2 = compressed_loss(model, ws2)
        assert a1.quadratic != a2.quadratic
        _assert_node_terms(a1, model, ws1)
        _assert_node_terms(a2, model, ws2)
        assert compressed_loss(model, ws1) == a1

    def test_equal_shapes_never_share_a_cache(self) -> None:
        rule = LatticeRule(61, (1, 25))
        ws = _weights(15, rule)
        ks = np.array([(a, b) for a in range(1, 6) for b in range(-5, 6)])
        lin = np.linspace(0.3, 0.01, 12)
        theta = np.concatenate([[0.4], lin, lin])
        models = []
        for seed in (17, 18, 19):
            half = np.random.default_rng(seed).permutation(ks)[:12]
            freq = np.concatenate([[[0, 0]], half, -half])
            models.append(TrigModel(freq, theta))
        for m in models + models[::-1]:
            _assert_node_terms(compressed_loss(m, ws), m, ws)
        # a support of the same shape assigned over the model's own is
        # told apart too
        a, b = models[0], models[1]
        ref = eval_model_on_lattice(b, rule)
        a.frequencies = b.frequencies
        _assert_node_terms(compressed_loss(a, ws), b, ws)
        np.testing.assert_array_equal(eval_model_on_lattice(a, rule), ref)

    def test_caller_arrays_stay_the_callers(self) -> None:
        rule = LatticeRule(61, (1, 25))
        ws = _weights(22, rule)
        model = _real_model(23, 2, 6, 30)
        freq, theta = model.frequencies.copy(), model.theta.copy()
        mine = TrigModel(freq, theta)
        before = compressed_loss(mine, ws)
        freq[:] = freq[::-1] + 1
        theta[:] = 7.0
        assert compressed_loss(mine, ws) == before
        w_xz = ws.w_xz.copy()
        copy = WeightSet(
            w_xz, ws.w_xyz, ws.mean_y2, ws.rule, ws.index_set, ws.algorithm
        )
        assert compressed_loss(mine, copy) == before
        w_xz[:] = 0.0
        assert compressed_loss(mine, copy) == before
        assert not copy.w_xz.flags.writeable


class TestLossMatrix:
    """The loss matrix W of a support and weight set, and the node path
    for supports too large for it."""

    def test_between_the_norms_takes_the_nodes(self) -> None:
        # theta_1 is off from conj theta_{-1} by eps = 9e-10 (1 + i) /
        # sqrt 2: sum |h| = 9e-10 is within the tolerance, sum (|Re h| +
        # |Im h|) = 1.27e-9 is not, and sqrt(sum |h|^2) = 6.4e-10 does not
        # decide either, so the nodes do: the loss of the real part.
        rule = LatticeRule(61, (1, 25))
        ws = _weights(25, rule)
        eps = 9e-10 * (1 + 1j) / math.sqrt(2)
        freq = np.array([[0, 0], [1, 0], [-1, 0]])
        model = TrigModel(freq, [0.5, 0.3 + 0.2j + eps, 0.3 - 0.2j])
        h = 0.5 * eps
        assert 2 * abs(h) <= 1e-9 < 2 * (abs(h.real) + abs(h.imag))
        report = compressed_loss(model, ws)
        _assert_node_terms(report, model, ws)
        assert model._cache.loss.W is not None
        assert model._cache.nodes is not None
        # the real part, theta - h on each class, takes the matrix, with
        # the same terms
        a = 0.3 + 0.2j + 0.5 * eps
        real = TrigModel(freq, [0.5, a, a.conjugate()])
        again = compressed_loss(real, ws)
        assert real._cache.nodes is None
        assert abs(again.quadratic - report.quadratic) <= 1e-14
        assert abs(again.cross - report.cross) <= 1e-14

    @pytest.mark.parametrize("reach, fits", [(73, True), (74, False)])
    def test_size_rule(self, reach, fits) -> None:
        # 2 reach + 1 rows on as many classes: W has (2 M + n + 1) 2 M
        # entries, 129,948 at reach 73 and 133,504 at 74, against 2^17
        ws = _weights(35, LatticeRule(509, (1,)))
        k = np.arange(-reach, reach + 1)
        rng = np.random.default_rng(36)
        a = rng.standard_normal(reach) + 1j * rng.standard_normal(reach)
        theta = np.concatenate([a[::-1].conj(), [0.3], a])
        model = TrigModel(k[:, None], theta)
        _assert_node_terms(compressed_loss(model, ws), model, ws)
        assert (model._cache.loss.W is not None) == fits
        assert (model._cache.nodes is None) == fits

    @pytest.mark.parametrize("L, g, row", [
        (61, (1, 25), [0, 0]),  # the class 0
        (64, (1, 27), [5, 1]),  # the class L / 2 = 32
    ])
    def test_self_negating_class(self, L, g, row, monkeypatch) -> None:
        # a class u = -u (mod L) is real only with a real coefficient sum
        from latcompress import model as model_mod

        ws = _weights(37, LatticeRule(L, g))
        freq = np.array([row, [1, 0], [-1, 0]])
        base = [0.5, 0.3 + 0.2j, 0.3 - 0.2j]
        tiny = TrigModel(freq, [0.5 + 4e-10j, *base[1:]])
        report = compressed_loss(tiny, ws)
        assert tiny._cache.nodes is None
        real = TrigModel(freq, base)
        assert report == compressed_loss(real, ws)

        def no_nodes(*args):
            raise AssertionError("the bound should have decided")

        monkeypatch.setattr(model_mod, "_node_values", no_nodes)
        with pytest.raises(ValueError, match="real-valued"):
            compressed_loss(TrigModel(freq, [0.5 + 2e-9j, *base[1:]]), ws)

    def test_two_norm_decides_without_the_nodes(self, monkeypatch) -> None:
        # h_1 = 1.5e-9 and h_{-1} = -1.5e-9: sqrt(sum |h|^2) = 2.1e-9
        from latcompress import model as model_mod

        def no_nodes(*args):
            raise AssertionError("the bound should have decided")

        monkeypatch.setattr(model_mod, "_node_values", no_nodes)
        ws = _weights(38, LatticeRule(61, (1, 25)))
        freq = np.array([[0, 0], [1, 0], [-1, 0]])
        model = TrigModel(freq, [0.5, 0.3 + 0.2j + 3e-9, 0.3 - 0.2j])
        with pytest.raises(ValueError, match="real-valued"):
            compressed_loss(model, ws)

    def test_built_once_per_weight_set(self, monkeypatch) -> None:
        from latcompress import model as model_mod

        built = []
        loss_matrix = model_mod._loss_matrix

        def counted(*args):
            built.append(args[1])
            return loss_matrix(*args)

        monkeypatch.setattr(model_mod, "_loss_matrix", counted)
        rule = LatticeRule(61, (1, 25))
        ws1, ws2 = _weights(26, rule), _weights(27, rule)
        model = _real_model(28, 2, 6, 30)
        a1 = compressed_loss(model, ws1)
        W1 = model._cache.loss.W
        assert compressed_loss(model, ws1) == a1
        assert model._cache.loss.W is W1 and len(built) == 1
        a2 = compressed_loss(model, ws2)
        assert len(built) == 2 and model._cache.loss.W is not W1
        _assert_node_terms(a1, model, ws1)
        _assert_node_terms(a2, model, ws2)
        # new vectors on the same weight set are seen
        ws2.w_xz = ws1.w_xz.copy()
        b = compressed_loss(model, ws2)
        assert len(built) == 3
        assert abs(b.quadratic - a1.quadratic) <= 1e-12 * abs(a1.quadratic)
        ws2.w_xyz = ws1.w_xyz.copy()
        c = compressed_loss(model, ws2)
        assert compressed_loss(model, ws2) == c and len(built) == 4
        assert abs(c.cross - a1.cross) <= 1e-12 * abs(a1.cross)

    @pytest.mark.parametrize("L, g", [(509, (1, 205)), (65537, (1, 4099))])
    def test_node_bucketing_matches_bincount(self, L, g) -> None:
        # about 2,900 rows; on L = 509 most residues are shared by several
        # rows, and on L = 65537 the row (-1, 0) takes the residue 65536,
        # past 16 bits
        rule = LatticeRule(L, g)
        rng = np.random.default_rng(29)
        freq = np.unique(np.concatenate([
            rng.integers(-60, 61, size=(3200, 2)), [[-1, 0]]
        ]), axis=0)
        theta = rng.standard_normal(len(freq)) + 1j * rng.standard_normal(
            len(freq)
        )
        model = TrigModel(freq, theta)
        r = (freq @ np.asarray(rule.g)) % rule.L
        b = np.bincount(r, theta.real, rule.L) + 1j * np.bincount(
            r, theta.imag, rule.L
        )
        ref = rule.L * np.fft.ifft(b)
        got = eval_model_on_lattice(model, rule)
        assert (len(np.unique(r)) < len(freq) // 4) == (L == 509)
        assert float(np.max(np.abs(got - ref))) <= 1e-15 * float(
            np.abs(theta).sum()
        )

    def test_large_support_takes_the_nodes(self) -> None:
        # 2,710 rows on 509 residues: W would hold 3.2e7 entries
        ws = _weights(30, LatticeRule(509, (1, 205)))
        real = _real_model(31, 2, 60, 1500)
        report = compressed_loss(real, ws)
        assert real._cache.loss.W is None
        _assert_node_terms(report, real, ws)

    def test_with_theta_shares_the_cache(self, monkeypatch) -> None:
        from latcompress import model as model_mod

        built = []
        loss_matrix = model_mod._loss_matrix

        def counted(*args):
            built.append(args[1])
            return loss_matrix(*args)

        monkeypatch.setattr(model_mod, "_loss_matrix", counted)
        rule = LatticeRule(61, (1, 25))
        ws = _weights(32, rule)
        base = _real_model(33, 2, 6, 30)
        rng = np.random.default_rng(34)
        steps = [base.theta * (1.0 + 0.1 * rng.standard_normal())
                 for _ in range(5)]
        model, chained = base, []
        for theta in steps:
            model = model.with_theta(theta)
            chained.append(compressed_loss(model, ws, lam=0.1, reg="ridge"))
            assert model.frequencies is base.frequencies
            assert not model.theta.flags.writeable
        assert len(built) == 1
        # a fresh model on a live model's own array shares its cache too
        fresh = [
            compressed_loss(TrigModel(base.frequencies, theta), ws, lam=0.1,
                            reg="ridge")
            for theta in steps
        ]
        assert chained == fresh and len(built) == 1
        # validated and copied as by the constructor
        mine = steps[0].copy()
        moved = base.with_theta(mine)
        mine[:] = 7.0
        assert np.array_equal(moved.theta, steps[0])
        with pytest.raises(ValueError, match="theta has shape"):
            base.with_theta(steps[0][:-1])
        with pytest.raises(ValueError, match="finite"):
            base.with_theta(np.full(base.size, np.nan))


    def test_fresh_model_on_a_live_array_shares_the_cache(
        self, monkeypatch
    ) -> None:
        # A model built from another model's own read-only frequency array
        # takes that array and its cache: the loss matrix is built once
        # for both.  A caller's writable array is copied and checked, so
        # changing it after construction leaves the model as it was.
        from latcompress import model as model_mod

        built = []
        loss_matrix = model_mod._loss_matrix

        def counted(*args):
            built.append(args[1])
            return loss_matrix(*args)

        monkeypatch.setattr(model_mod, "_loss_matrix", counted)
        rule = LatticeRule(61, (1, 25))
        ws = _weights(35, rule)
        mine = _real_model(36, 2, 6, 30).frequencies.copy()
        first = TrigModel(mine, np.ones(len(mine)))
        assert first.frequencies is not mine and mine.flags.writeable
        a = compressed_loss(first, ws)
        second = TrigModel(first.frequencies, 2.0 * first.theta)
        assert second.frequencies is first.frequencies
        assert second._cache is first._cache
        b = compressed_loss(second, ws)
        assert len(built) == 1
        assert abs(b.quadratic - 4.0 * a.quadratic) <= 1e-12 * abs(
            b.quadratic
        )
        before = first.frequencies.copy()
        mine[:] = 0
        np.testing.assert_array_equal(first.frequencies, before)
        assert compressed_loss(first, ws) == a and len(built) == 1
        # a copy of the array is a new support, checked again
        with pytest.raises(ValueError, match="theta has shape"):
            TrigModel(first.frequencies, first.theta[:-1])
        with pytest.raises(ValueError, match="duplicate"):
            TrigModel(np.vstack([first.frequencies[:1]] * 2), [1.0, 1.0])
        third = TrigModel(first.frequencies.copy(), first.theta)
        assert third._cache is not first._cache


def _realness_branch(model: TrigModel, ws) -> str:
    """The realness decision by the two norms of h, from the class sums
    by bincount: "real" when sum (|Re h| + |Im h|) <= 1e-9, "raise" when
    sqrt(sum |h|^2) > 1e-9, else "nodes"."""
    L = ws.rule.L
    r = (model.frequencies @ np.asarray(ws.rule.g)) % L
    b = np.bincount(r, model.theta.real, L) + 1j * np.bincount(
        r, model.theta.imag, L
    )
    h = 0.5 * (b - b[(-np.arange(L)) % L].conj())
    if np.abs(h.real).sum() + np.abs(h.imag).sum() <= 1e-9:
        return "real"
    return "raise" if math.sqrt(float((np.abs(h) ** 2).sum())) > 1e-9 else (
        "nodes"
    )


class TestRealnessDecision:
    """One dot product shows a model real; a model it leaves in doubt
    takes the 1-norm, the 2-norm and the nodes, as before."""

    @pytest.mark.parametrize("L, g, reach, m, fits", [
        (61, (1, 25), 6, 30, True),
        (64, (1, 27), 6, 30, True),
        (509, (1, 205), 60, 1500, False),
        (1024, (1, 411), 40, 400, False),
    ])
    def test_same_branch_as_the_norms(
        self, L, g, reach, m, fits, monkeypatch
    ) -> None:
        from latcompress import model as model_mod

        ws = _weights(L + 7, LatticeRule(L, g))
        base = _real_model(L + 8, 2, reach, m)
        calls = []
        node_values = model_mod._node_values

        def counted(*args):
            calls.append(1)
            return node_values(*args)

        monkeypatch.setattr(model_mod, "_node_values", counted)
        rng = np.random.default_rng(L)
        seen = set()
        for delta in (1e-12, 1e-11, 1e-10, 4e-10, 9e-10, 1.1e-9, 3e-9, 1e-8):
            for count in (1, 3, 40):
                # count coefficients moved by delta off conjugate symmetry:
                # one row's move puts delta into sum |h|, delta / sqrt 2
                # into sqrt(sum |h|^2)
                pick = rng.choice(base.size, count, replace=False)
                theta = base.theta.copy()
                theta[pick] += delta * rng.choice([1, -1, 1j, -1j], count)
                model = base.with_theta(theta)
                want = _realness_branch(model, ws)
                seen.add(want)
                before = len(calls)
                try:
                    quad, crs = _node_terms(model, ws)
                except ValueError:
                    quad = crs = None
                if want == "raise" or (want == "nodes" and quad is None):
                    with pytest.raises(ValueError, match="real-valued"):
                        compressed_loss(model, ws)
                else:
                    report = compressed_loss(model, ws)
                    scale = abs(quad) + abs(crs)
                    assert abs(report.quadratic - quad) <= 1e-12 * scale
                    assert abs(report.cross - crs) <= 1e-12 * scale
                assert len(calls) - before == (want == "nodes")
        assert seen == {"real", "nodes", "raise"}
        assert (base._cache.loss.W is not None) == fits


def _closed_model(rows, seed: int) -> TrigModel:
    """A one-coordinate model on ``rows`` (closed under negation) with
    theta_{-k} = conj theta_k."""
    rows = np.asarray(sorted(set(rows)))
    assert set((-rows).tolist()) == set(rows.tolist())
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    z *= (1.0 + np.abs(rows)) ** -1.0
    neg = np.searchsorted(rows, -rows)
    return TrigModel(rows[:, None], 0.5 * (z + z[neg].conj()))


def _class_sum_cases():
    """(L, P, rows, occupied classes) of supports past the W cap."""
    cases = []
    for L, P in [(127, 256), (509, 1024), (8191, 16384), (1018, 2048),
                 (64, 64), (1000, 1000), (1024, 1024)]:
        top = L // 2 + 100  # every class, some by several rows
        cases.append((L, P, range(-top, top + 1), L))
        few = [r + L * j for r in (0, 1, -1, 3, -3) for j in range(-30, 31)]
        cases.append((L, P, few, 5))
        if L % 2 == 0:
            # the class L / 2, with -(L/2 + L j) = L/2 + L (-j - 1)
            half = [L // 2 + L * j for j in range(-40, 40)]
            cases.append((L, P, few + half, 6))
    return cases


class TestClassSumLoss:
    """The loss of a support too large for W, read from its class sums:
    the quadratic term by one length-P FFT against a kernel made once
    per support and weight set, no node value made."""

    @pytest.mark.parametrize("L, P, rows, n", _class_sum_cases())
    def test_matches_node_terms(self, L, P, rows, n) -> None:
        ws = _weights(L + 3, LatticeRule(L, (1,)))
        model = _closed_model(rows, L)
        report = compressed_loss(model, ws, lam=0.1, reg="ridge")
        _assert_node_terms(report, model, ws)
        e = model._cache.loss
        assert e.W is None and len(e.U) == P
        assert len(model._cache.nodes[1].occupied) == n

    def test_no_node_values(self, monkeypatch) -> None:
        from latcompress import model as model_mod

        def no_nodes(*args):
            raise AssertionError("the class sums should have decided")

        ws = _weights(40, LatticeRule(509, (1, 205)))
        real = _real_model(41, 2, 60, 1500)
        quad, crs = _node_terms(real, ws)
        monkeypatch.setattr(model_mod, "_node_values", no_nodes)
        monkeypatch.setattr(model_mod, "_lattice_sum", no_nodes)
        report = compressed_loss(real, ws)
        assert real._cache.loss.W is None
        scale = abs(quad) + abs(crs)
        assert abs(report.quadratic - quad) <= 1e-12 * scale
        assert abs(report.cross - crs) <= 1e-12 * scale
        # sqrt(sum |h|^2) > 1e-9 raises on the class sums too
        off = real.with_theta(real.theta + 1e-6j)
        with pytest.raises(ValueError, match="real-valued"):
            compressed_loss(off, ws)

    def test_kernel_made_once_per_weight_set(self, monkeypatch) -> None:
        from latcompress import model as model_mod

        made = []
        loss_kernel = model_mod._loss_kernel

        def counted(L, s_xz):
            made.append(L)
            return loss_kernel(L, s_xz)

        monkeypatch.setattr(model_mod, "_loss_kernel", counted)
        rule = LatticeRule(509, (1, 205))
        ws1, ws2 = _weights(42, rule), _weights(43, rule)
        model = _real_model(44, 2, 60, 1500)
        a1 = compressed_loss(model, ws1)
        U1 = model._cache.loss.U
        for theta in (model.theta, 2.0 * model.theta):
            compressed_loss(model.with_theta(theta), ws1)
        assert compressed_loss(model, ws1) == a1
        assert made == [509] and model._cache.loss.U is U1
        a2 = compressed_loss(model, ws2)
        assert made == [509, 509] and model._cache.loss.U is not U1
        _assert_node_terms(a1, model, ws1)
        _assert_node_terms(a2, model, ws2)


class TestModelSquared:
    def test_hand_convolution(self) -> None:
        # (2 e^{-2 pi i x} + 3 e^{2 pi i x})^2 has coefficients 4, 12, 9
        # on the frequencies -2, 0, 2.
        m = TrigModel(np.array([[-1], [1]]), np.array([2.0 + 0j, 3.0 + 0j]))
        sq = model_squared(m)
        assert sq.frequencies.ravel().tolist() == [-2, 0, 2]
        np.testing.assert_allclose(sq.theta, [4.0, 12.0, 9.0], atol=1e-12)

    def test_pointwise_identity(self) -> None:
        m = _random_model(35, 2, 4, 20)
        sq = model_squared(m)
        pts = np.random.default_rng(36).random((25, 2))
        f = eval_model(m, pts)
        f2 = eval_model(sq, pts)
        np.testing.assert_allclose(f2, f * f, atol=1e-10)

    def test_dense_and_sparse_agree(self, monkeypatch) -> None:
        # One row moved by 10^6 stretches the bounding box to about 5e7
        # convolution cells, past the dense grid's 2^23, so the hashed
        # route must run (the dense one is made to refuse); its result is
        # the pairwise convolution of the coefficients, summed per row.
        from latcompress import model as model_mod

        def refuse(*args):
            raise AssertionError("the dense route ran")

        rng = np.random.default_rng(37)
        freq = np.unique(rng.integers(-6, 7, size=(30, 2)), axis=0)
        freq[-1] += np.array([10**6, 0])
        theta = rng.standard_normal(len(freq)) + 1j * rng.standard_normal(
            len(freq)
        )
        monkeypatch.setattr(model_mod, "_dense_square", refuse)
        sq = model_squared(TrigModel(freq, theta))
        sums = (freq[:, None, :] + freq[None, :, :]).reshape(-1, 2)
        rows, at = np.unique(sums, axis=0, return_inverse=True)
        coef = np.zeros(len(rows), dtype=np.complex128)
        np.add.at(coef, at.ravel(), np.outer(theta, theta).ravel())
        np.testing.assert_array_equal(sq.frequencies, rows)
        np.testing.assert_allclose(sq.theta, coef, rtol=0, atol=1e-12)

    def test_cap(self) -> None:
        m = _random_model(38, 2, 5, 30)
        size = model_squared(m).size
        with pytest.raises(CapExceeded):
            model_squared(m, cap=size - 1)


class TestNorms:
    def test_hand_values(self) -> None:
        # Profile of (2,) at alpha=1, gamma=(0.25,) is 16; sqrt is 4.
        m = TrigModel(np.array([[2], [0]]), np.array([1.0 + 0j, 3.0 + 0j]))
        gamma = ProductWeights((0.25,))
        assert wiener_norm(m, 1.0, gamma) == pytest.approx(4.0 * 1.0 + 1.0 * 3.0)
        assert korobov_norm(m, 1.0, gamma) == pytest.approx(
            math.sqrt(16.0 * 1.0 + 1.0 * 9.0)
        )

    def test_dimension_guard(self) -> None:
        m = TrigModel(np.array([[1, 0]]), np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            wiener_norm(m, 1.0, ProductWeights.ones(1))

    def test_norm_inequality(self) -> None:
        # Cauchy-Schwarz relates the two norms through the cardinality.
        m = _real_box_model(4)
        gamma = ProductWeights.ones(2)
        w = wiener_norm(m, 1.2, gamma)
        k = korobov_norm(m, 1.2, gamma)
        assert k <= w + 1e-12


class TestAliasOffenders:
    def test_finds_dual_rows(self) -> None:
        rule = LatticeRule(5, (1, 2))
        freq = np.array([[0, 0], [5, 0], [1, 2], [2, 4], [3, 1]])
        bad = lattice_alias_offenders(freq, rule)
        assert set(map(tuple, bad.tolist())) == {(5, 0), (1, 2), (2, 4), (3, 1)}

    def test_zero_row_excluded(self) -> None:
        rule = LatticeRule(5, (1, 2))
        assert len(lattice_alias_offenders(np.array([[0, 0]]), rule)) == 0
