"""Self-test of the benchmark's output checks.

The checks must pass on the program's real outputs and must report a
failed operation when one weight or one loss value is perturbed.

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import checks
import latcompress as lc

L = 61
GAMMA = lc.ProductWeights.ones(2)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(3)
    data = lc.Dataset(rng.random((80, 2)), rng.standard_normal(80))
    rule = lc.cbc_construct(L, 2, 1.0, GAMMA)
    spec = lc.IndexSet.step_cross(1.24, GAMMA, 4, materialize=False)
    ws = lc.compress(data, rule, spec)
    freq = checks.enumerate_set("step-cross", 1.24, (1.0, 1.0), 4)
    coef = np.stack([np.ones(data.N), data.Y], axis=1)
    phi = checks.fourier_data(data.X, coef, freq)
    return data, rule, ws, freq, phi


@pytest.mark.parametrize("family, alpha, param", [
    ("step-cross", 1.24, 5), ("step-cross", 1.0, 4), ("cross", 2.0, 300.0),
])
def test_enumeration_matches_the_program(family, alpha, param):
    gamma = lc.ProductWeights.ones(3)
    ours = checks.enumerate_set(family, alpha, tuple(gamma), param)
    theirs = lc.IndexSet(family, alpha, gamma, param).materialized().frequencies
    order = np.lexsort(ours.T[::-1])
    assert np.array_equal(ours[order], theirs)


def _weights_checker(ws, freq, phi, picked):
    ck = checks.Checker()
    chars = np.array([0, 5, 17])
    for i, name in enumerate(("w_xz", "w_xyz")):
        miss = checks.weights_miss(getattr(ws, name), phi[:, i], freq, L, ws.rule.g,
                                   picked, chars)
        ck.record(name, not miss, miss)
    return ck


def test_weight_check_passes_on_program_output(problem):
    _, _, ws, freq, phi = problem
    ck = _weights_checker(ws, freq, phi, np.arange(L))
    assert (ck.attempted, ck.failed) == (2, 0), ck.misses


@pytest.mark.parametrize("picked", [np.arange(L), np.array([0, 1, 2])])
def test_weight_check_reports_one_perturbed_weight(problem, picked):
    # The same fault `verify --inject-fault` plants: 1e-3 on node L // 2,
    # caught both where that node is compared and where only the
    # projections see it.
    _, _, ws, freq, phi = problem
    bad = lc.WeightSet(ws.w_xz.copy(), ws.w_xyz, ws.mean_y2, ws.rule, ws.index_set,
                       ws.algorithm)
    bad.w_xz[L // 2] += 1e-3
    ck = _weights_checker(bad, freq, phi, picked)
    assert (ck.attempted, ck.failed) == (2, 1)


def _loss_checker(problem, values):
    data, rule, ws, _, _ = problem
    freq = np.array([[0, 0], [1, 2], [-1, -2], [3, 0], [-3, 0]])
    thetas = np.array([[0.4, 0.3, 0.3, -0.2, -0.2], [0.1, 0.5, 0.5, 0.05, 0.05]])
    fz = checks.model_values(freq, thetas, checks.nodes(L, rule.g)).real
    mean_y2 = float(np.mean(data.Y ** 2))
    expected, scales = zip(*(
        checks.loss_terms(fz[:, s], ws.w_xz, ws.w_xyz, mean_y2,
                          checks.penalty(th, "ridge", None), 0.01)
        for s, th in enumerate(thetas)))
    program = np.array([
        lc.compressed_loss(lc.TrigModel(freq, th), ws, lam=0.01, reg="ridge").value
        for th in thetas])
    values = values(program)
    ck = checks.Checker()
    ck.record_each("loss", np.abs(values - np.array(expected))
                   <= checks.REL_TOL * np.array(scales))
    return ck


def test_loss_check_passes_on_program_output(problem):
    ck = _loss_checker(problem, lambda v: v)
    assert (ck.attempted, ck.failed) == (2, 0), ck.misses


def test_loss_check_reports_one_perturbed_value(problem):
    def perturb(v):
        v = v.copy()
        v[1] *= 1.0 + 1e-7
        return v

    ck = _loss_checker(problem, perturb)
    assert (ck.attempted, ck.failed) == (2, 1)


def test_exact_check_matches_program(problem):
    data = problem[0]
    ks = np.arange(-3, 4)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    freq = np.stack([k1.ravel(), k2.ravel()], axis=1)
    theta = np.exp(-np.abs(freq).sum(axis=1).astype(float))
    grid = checks.model_values(freq, theta[None, :], data.X)[:, 0]
    # Without its first row the support no longer fills its grid, which
    # sends the sum down the term-by-term path.
    direct = (checks.model_values(freq[1:], theta[None, 1:], data.X)[:, 0]
              + checks.model_values(freq[:1], theta[None, :1], data.X)[:, 0])
    assert np.allclose(grid, direct, rtol=0, atol=1e-12)
    value, scale = checks.loss_terms(grid.real, 1.0, data.Y, float(np.mean(data.Y ** 2)),
                                     checks.penalty(theta, "elastic", 0.5), 0.1)
    report = lc.exact_loss(lc.TrigModel(freq, theta), data, lam=0.1, reg="elastic", mix=0.5)
    assert checks.close(report.value, value, scale)
    assert not checks.close(report.value * (1 + 1e-7), value, scale)
