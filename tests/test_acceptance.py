"""Acceptance gate: nine binding checks, one printed line each."""

import csv
import math
import time

import numpy as np
import pytest

from latcompress.analysis import (
    BoundQuery,
    loss_gap_envelope,
    select_parameter,
)
from latcompress import compression
from latcompress.cli import main
from latcompress.compression import Dataset, compress, weights_naive
from latcompress.index_sets import (
    IndexSet,
    cardinality_bound_cross,
    enumerate_cross,
)
from latcompress.lattice import (
    LatticeRule,
    ProductWeights,
    bound_constant_C,
    cbc_construct,
    generate_points,
    worst_case_error,
)
from latcompress.model import (
    TrigModel,
    compressed_loss,
    eval_model,
    eval_model_on_lattice,
    exact_loss,
    lattice_alias_offenders,
    model_squared,
    wiener_norm,
)


def _announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale


# -- criterion 1: fast weight algorithms against the naive oracle ------

_PRIMES_SMALL = (13, 17, 29, 31, 41, 53, 61, 71, 79, 83, 89, 97)
_GAMMA_TAGS = ("ones", "geo", "poly")


def _gamma_for(tag: str, d: int) -> ProductWeights:
    if tag == "ones":
        return ProductWeights.ones(d)
    if tag == "geo":
        return ProductWeights.geometric(0.5, d)
    return ProductWeights.polynomial(2.0, d)


def _named_spec(i: int, rng: np.random.Generator, d: int) -> IndexSet:
    gamma = _gamma_for(_GAMMA_TAGS[i % 3], d)
    kind = i % 9
    if kind < 3:
        alpha = float(rng.choice((0.75, 1.0, 1.5, 2.0)))
        nu = float(rng.uniform(2.0, 128.0))
        spec = IndexSet.cross(alpha, gamma, nu, materialize=False)
        # Keep the naive reference affordable without biasing the draw.
        while spec.cardinality() > 40000:
            nu /= 2.0
            spec = IndexSet.cross(alpha, gamma, nu, materialize=False)
        return spec.materialized()
    if kind < 6:
        alpha = float(rng.choice((1.0, 1.5, 2.0)))
        nu = float(rng.uniform(2.0, 64.0))
        spec = IndexSet.rectangle(alpha, gamma, nu, materialize=False)
        while spec.cardinality() > 40000:
            nu /= 2.0
            spec = IndexSet.rectangle(alpha, gamma, nu, materialize=False)
        return spec.materialized()
    alpha = float(rng.choice((0.5, 1.0, 2.0)))
    m = int(rng.integers(0, 7))
    return IndexSet.step_cross(alpha, gamma, m)


def test_criterion_1_fast_weights_match_naive(capsys) -> None:
    t0 = time.perf_counter()
    worst = 0.0
    counts = {"cross": 0, "rectangle": 0, "step-cross": 0, "custom": 0}
    routes = {"general-fft": 0, "rectangle": 0, "step-cross": 0}
    collapsed = 0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        d = int(rng.integers(1, 5))
        L = int(rng.choice(_PRIMES_SMALL))
        g = tuple(int(v) for v in rng.integers(1, L, size=d))
        N = int(rng.integers(10, 201))
        data = Dataset(rng.random((N, d)), rng.standard_normal(N))
        rule = LatticeRule(L, g)
        if i < 180:
            spec = _named_spec(i, rng, d)
        else:
            M = int(rng.integers(5, 61))
            spec = IndexSet.custom(
                rng.integers(-8, 9, size=(M, d)), 1.0, ProductWeights.ones(d)
            )
        counts[spec.family] += 1
        ref1 = weights_naive(data, "ones", rule, spec)
        ref2 = weights_naive(data, "responses", rule, spec)
        # Every route auto may take for the set, each named explicitly.
        if spec.family in ("rectangle", "step-cross"):
            algorithms = ("general-fft", spec.family)
        else:
            algorithms = ("auto",)
        for algorithm in algorithms:
            ws = compress(data, rule, spec, algorithm=algorithm)
            routes[ws.algorithm] += 1
            dev = max(_rel_dev(ws.w_xz, ref1), _rel_dev(ws.w_xyz, ref2))
            worst = max(worst, dev)
        if spec.family != "custom":
            # general-FFT with its tails collapsed by residue, whatever
            # its price, so auto may choose it
            w1, w2 = compression._collapsed_weights(data, rule, spec)
            worst = max(worst, _rel_dev(w1, ref1), _rel_dev(w2, ref2))
            collapsed += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 120.0 and counts["custom"] == 20
    _announce(
        capsys, 1, ok,
        f"200 instances {counts}, routes {routes}, {collapsed} "
        f"collapsed, worst relative "
        f"deviation {worst:.2e}, {elapsed:.1f} s",
    )
    assert worst <= 1e-9
    assert counts["custom"] == 20
    assert routes == {"general-fft": 200, "rectangle": 60, "step-cross": 60}
    assert collapsed == 180
    assert elapsed <= 120.0


# -- criterion 2: step-cross sandwich inclusions -----------------------


def test_criterion_2_step_cross_sandwich(capsys) -> None:
    t0 = time.perf_counter()
    violations = 0
    combos = 0
    for d in (1, 2, 3):
        for gamma in (
            ProductWeights.ones(d),
            ProductWeights.geometric(0.5, d),
        ):
            for alpha in (0.5, 1.0, 2.0):
                for m in range(9):
                    combos += 1
                    q = IndexSet.step_cross(alpha, gamma, m)
                    outer = IndexSet.cross(
                        alpha, gamma, float(2 ** m), materialize=False
                    )
                    for row in q.frequencies:
                        if not outer.contains(row):
                            violations += 1
                    if m - (d - 1) >= 0:
                        inner = enumerate_cross(
                            alpha, gamma, float(2 ** (m - d + 1))
                        )
                        qd = q.descriptor()
                        for row in inner:
                            if not qd.contains(row):
                                violations += 1
    g2 = ProductWeights.ones(2)
    in_cross = IndexSet.cross(0.5, g2, 32.0, materialize=False).contains(
        (6, 5)
    )
    in_step = IndexSet.step_cross(0.5, g2, 5, materialize=False).contains(
        (6, 5)
    )
    witness_ok = in_cross and not in_step
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and witness_ok and elapsed <= 30.0
    _announce(
        capsys, 2, ok,
        f"{combos} sandwich combinations, {violations} violations, "
        f"witness (6,5) {'confirmed' if witness_ok else 'broken'}, "
        f"{elapsed:.1f} s",
    )
    assert violations == 0
    assert witness_ok
    assert elapsed <= 30.0


# -- criterion 3: cross cardinality bound ------------------------------


def test_criterion_3_cross_cardinality_bound(capsys) -> None:
    violations = 0
    checks = 0
    for alpha in (1.0, 1.5, 2.0):
        for nu in (16.0, 64.0, 256.0):
            for d in (1, 2, 3):
                for gamma in (
                    ProductWeights.ones(d),
                    ProductWeights.polynomial(2.0, d),
                ):
                    checks += 1
                    n = len(enumerate_cross(alpha, gamma, nu))
                    if not n <= cardinality_bound_cross(
                        alpha, gamma, nu, 0.25
                    ):
                        violations += 1
    ok = violations == 0
    _announce(
        capsys, 3, ok, f"{checks} grid cells, {violations} violations"
    )
    assert violations == 0


# -- criterion 4: constructed lattice quality --------------------------


def test_criterion_4_cbc_error_bound(capsys) -> None:
    t0 = time.perf_counter()
    violations = 0
    mismatches = 0
    checks = 0
    for alpha in (1.0, 2.0):
        for d in (2, 3, 5):
            gamma = ProductWeights.polynomial(2.0, d)
            for L in (127, 251, 509):
                fast = cbc_construct(L, d, alpha, gamma)
                if fast != cbc_construct(L, d, alpha, gamma, fast=False):
                    mismatches += 1
                e = worst_case_error(fast, alpha, gamma)
                for tau in (
                    (alpha - 0.5) / 4.0,
                    (alpha - 0.5) / 2.0,
                    alpha - 0.5,
                ):
                    checks += 1
                    bound = bound_constant_C(alpha, tau, gamma) * L ** (
                        tau - alpha
                    )
                    if not e <= bound * (1.0 + 1e-12):
                        violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and mismatches == 0 and elapsed <= 60.0
    _announce(
        capsys, 4, ok,
        f"{checks} bound checks, {violations} violations, "
        f"{mismatches} scan mismatches, {elapsed:.1f} s",
    )
    assert violations == 0
    assert mismatches == 0
    assert elapsed <= 60.0


# -- criterion 5: exactness for constant models ------------------------


def _alias_free_configs() -> list[tuple[LatticeRule, IndexSet]]:
    return [
        (
            LatticeRule(61, (1, 25)),
            IndexSet.cross(1.0, ProductWeights.ones(2), 18.0),
        ),
        (
            LatticeRule(31, (1, 12)),
            IndexSet.cross(1.0, ProductWeights.ones(2), 8.0),
        ),
        (
            LatticeRule(97, (1, 34)),
            IndexSet.step_cross(1.0, ProductWeights.ones(2), 3),
        ),
        (
            LatticeRule(53, (1, 43, 6)),
            IndexSet.cross(1.5, ProductWeights.ones(3), 30.0),
        ),
    ]


def test_criterion_5_constant_model_exactness(capsys) -> None:
    configs = _alias_free_configs()
    for rule, spec in configs:
        assert len(lattice_alias_offenders(spec.frequencies, rule)) == 0
        assert spec.contains((0,) * rule.d)
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(500 + i)
        rule, spec = configs[i % len(configs)]
        N = int(rng.integers(20, 120))
        data = Dataset(rng.random((N, rule.d)), rng.standard_normal(N))
        ws = compress(data, rule, spec)
        for c in (1.0, -2.5):
            model = TrigModel(
                np.zeros((1, rule.d), dtype=np.int64),
                np.array([c], dtype=np.complex128),
            )
            gap = abs(
                exact_loss(model, data).value
                - compressed_loss(model, ws).value
            )
            worst = max(worst, gap)
    ok = worst <= 1e-10
    _announce(
        capsys, 5, ok,
        f"20 datasets x 2 constants, alias-free checked, worst gap "
        f"{worst:.2e}",
    )
    assert worst <= 1e-10


# -- criteria 6 and 7: convergence of the loss gap and its envelope ----

_C6_ALPHA = 1.24
_C6_MODULI = (31, 61, 127, 251, 509)


@pytest.fixture(scope="module")
def convergence_runs():
    t0 = time.perf_counter()
    gamma = ProductWeights.ones(2)
    ks = np.arange(-64, 65)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    freq = np.stack([k1.ravel(), k2.ravel()], axis=1)
    theta = (
        (1.0 + np.abs(freq[:, 0])) ** -3.0
        * (1.0 + np.abs(freq[:, 1])) ** -3.0
    ).astype(np.complex128)
    truth = TrigModel(freq, theta)

    rng = np.random.default_rng(0)
    X = rng.random((20000, 2))
    noise = (rng.random(20000) * 2.0 - 1.0) * 1e-3
    data = Dataset(X, eval_model(truth, X).real + noise)

    norm_f = wiener_norm(truth, _C6_ALPHA, gamma)
    norm_f2 = wiener_norm(model_squared(truth), _C6_ALPHA, gamma)
    mu_y = float(np.mean(np.abs(data.Y)))
    exact = exact_loss(truth, data).value

    runs = []
    for L in _C6_MODULI:
        q = BoundQuery(
            "wiener", "step-cross", _C6_ALPHA, gamma, L, 0.0, 0.0
        )
        m = select_parameter(q)
        rule = cbc_construct(
            L, 2, _C6_ALPHA - 0.5 - float(q.delta), gamma
        )
        spec = IndexSet.step_cross(_C6_ALPHA, gamma, int(m))
        comp = compressed_loss(truth, compress(data, rule, spec))
        gap = abs(exact - comp.value)
        env = loss_gap_envelope(q, m, norm_f, norm_f2, mu_y)
        runs.append({"L": L, "m": m, "gap": gap, "envelope": env.total})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_6_loss_gap_convergence(convergence_runs, capsys) -> None:
    runs = convergence_runs["runs"]
    elapsed = convergence_runs["elapsed"]
    Ls = np.array([r["L"] for r in runs], dtype=float)
    gaps = np.array([r["gap"] for r in runs], dtype=float)
    assert np.all(gaps > 0.0)
    slope = float(np.polyfit(np.log(Ls), np.log(gaps), 1)[0])
    ok = slope <= -0.25 and elapsed <= 300.0
    _announce(
        capsys, 6, ok,
        f"{len(runs)} lattices up to L=509, log-log slope {slope:.2f} "
        f"against gate -0.25, {elapsed:.1f} s",
    )
    assert slope <= -0.25
    assert elapsed <= 300.0


def test_criterion_7_envelope_dominates(convergence_runs, capsys) -> None:
    runs = convergence_runs["runs"]
    covered = sum(1 for r in runs if r["envelope"] >= r["gap"])
    ok = covered == len(runs)
    margins = [r["envelope"] / r["gap"] for r in runs]
    _announce(
        capsys, 7, ok,
        f"envelope covers {covered}/{len(runs)} runs, smallest margin "
        f"{min(margins):.1e}x",
    )
    assert covered == len(runs)


# -- criterion 8: lattice evaluation against direct evaluation ---------

_PRIMES_EVAL = (31, 61, 97, 127, 181, 251, 331, 397, 457, 509)


def test_criterion_8_lattice_evaluation(capsys) -> None:
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(800 + i)
        d = int(rng.integers(1, 5))
        L = int(rng.choice(_PRIMES_EVAL))
        rule = LatticeRule(
            L, tuple(int(v) for v in rng.integers(1, L, size=d))
        )
        M = int(rng.integers(8, 2001))
        rows = np.unique(rng.integers(-40, 41, size=(M, d)), axis=0)
        theta = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(
            len(rows)
        )
        model = TrigModel(rows, theta)
        fast = eval_model_on_lattice(model, rule)
        direct = eval_model(model, generate_points(rule))
        worst = max(worst, _rel_dev(fast, direct))
    ok = worst <= 1e-11
    _announce(
        capsys, 8, ok,
        f"50 instances up to L=509, worst relative deviation {worst:.2e}",
    )
    assert worst <= 1e-11


# -- criterion 9: benchmark grid shape ---------------------------------


def test_criterion_9_bench_grid(tmp_path, capsys) -> None:
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--out", out])
    assert rc == 0
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    shape_ok = header == ["d", "L", "m", "seconds", "shape_count"]
    count_ok = all(
        int(r[4]) == math.comb(int(r[0]) - 1 + int(r[2]), int(r[0]) - 1)
        for r in rows
    )
    grid = {(int(r[0]), int(r[1]), int(r[2])) for r in rows}
    want = {
        (d, L, m)
        for d in range(2, 9)
        for L in (32, 64, 128)
        for m in (2, 4, 6)
    }
    ok = shape_ok and len(rows) == 63 and grid == want and count_ok
    _announce(
        capsys, 9, ok,
        f"{len(rows)} rows, header {'ok' if shape_ok else 'wrong'}, "
        f"shape counts {'exact' if count_ok else 'off'}",
    )
    assert shape_ok
    assert len(rows) == 63
    assert grid == want
    assert count_ok
