"""Built-in verification suites.

Each suite returns a plain dict with a name, a pass flag, the number of
checks performed, the worst residual seen and a list of human-readable
failure strings, so the command line can emit machine-readable reports
and tests can assert on the same data.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import BoundQuery, loss_gap_envelope, select_parameter
from .compression import (
    Dataset,
    choose_route,
    compress,
    weights_general_fft,
    weights_naive,
)
from .index_sets import IndexSet, enumerate_cross, enumerate_step_cross
from .lattice import LatticeRule, ProductWeights, cbc_construct
from .model import (
    TrigModel,
    compressed_loss,
    eval_model,
    exact_loss,
    model_squared,
    wiener_norm,
)

__all__ = [
    "oracle_suite",
    "inclusion_suite",
    "aliasing_suite",
    "envelope_suite",
    "run_all",
    "SUITES",
]

_PRIMES = (29, 31, 53, 61)


def _result(name, checks, residual, failures):
    return {
        "name": name,
        "passed": not failures,
        "checks": int(checks),
        "max_residual": float(residual),
        "failures": list(failures),
    }


def _random_dataset(rng, n, d):
    return Dataset(rng.random((n, d)), rng.standard_normal(n))


def _relative_gap(w, ref):
    return float(np.max(np.abs(w - ref)) / (1.0 + np.max(np.abs(ref))))


def oracle_suite(
    seed: int = 0, instances: int = 12, inject_fault: bool = False,
    threads: int = 1,
) -> dict:
    """Fast weight algorithms against the direct-summation reference.

    Random instances cycle through the three named families plus custom
    sets: random rows, possibly asymmetric, and in instance 7 the rows
    with their negations, closed under negation.  Every route
    :func:`choose_route` prices for an instance, i.e. every route
    ``compress`` may choose for it, is run through ``compress``, and both
    of its weight vectors, ``w_xz`` (coefficients one) and ``w_xyz`` (the
    responses), are checked.  With ``inject_fault`` the first instance's
    first fast output is perturbed by 1e-3 in one entry, which the
    comparison must catch and localise.

    Three compressed losses are then checked against the node oracle
    (:func:`_loss_checks`): one on the loss matrix, one past its size on
    the class sums, and one whose realness only its node values decide.
    They count among the suite's checks, and ``loss`` reports their
    number and largest residual apart.
    """
    rng = np.random.default_rng([int(seed), 101])
    failures: list[str] = []
    worst = 0.0
    checks = 0
    for i in range(int(instances)):
        L = int(rng.choice(_PRIMES))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(5, 40))
        data = _random_dataset(rng, n, d)
        g = tuple(int(v) for v in rng.integers(1, L, size=d))
        rule = LatticeRule(L, g)
        gamma = ProductWeights.polynomial(1.0, d)
        kind = i % 4
        alpha = (1.0, 0.75, 1.001, 1.0)[kind]
        if kind == 0:
            spec = IndexSet.cross(alpha, gamma, 20.0)
        elif kind == 1:
            spec = IndexSet.rectangle(alpha, gamma, 12.0)
        elif kind == 2:
            spec = IndexSet.step_cross(alpha, gamma, 4)
        else:
            rows = rng.integers(-6, 7, size=(10, d))
            if i == 7:
                rows = np.unique(np.vstack((rows, -rows)), axis=0)
            spec = IndexSet.custom(rows, alpha, gamma)
        routes = choose_route(n, rule, spec)["costs"]
        refs = [weights_naive(data, c, rule, spec)
                for c in ("ones", "responses")]
        for j, route in enumerate(routes):
            ws = compress(data, rule, spec, route, threads)
            for k, (name, ref) in enumerate(zip(("w_xz", "w_xyz"), refs)):
                fast = getattr(ws, name)
                if inject_fault and i == 0 and j == 0 and k == 0:
                    fast = np.array(fast, copy=True)
                    fast[L // 2] += 1e-3
                gap = _relative_gap(fast, ref)
                worst = max(worst, gap)
                checks += 1
                if gap > 1e-9:
                    node = int(np.argmax(np.abs(fast - ref)))
                    failures.append(
                        f"instance {i} ({spec.family} by {route}, L={L}, "
                        f"d={d}): {name} at node {node} deviates by "
                        f"{gap:.3e} relative"
                    )
    loss_checks, loss_worst = _loss_checks(seed, failures)
    out = _result(
        "oracle-equivalence", checks + loss_checks, max(worst, loss_worst),
        failures,
    )
    out["loss"] = {"checks": loss_checks, "max_residual": loss_worst}
    return out


def _node_terms(model: TrigModel, ws) -> tuple[float, float]:
    """The compressed loss's quadratic and cross terms from the model's
    values on the nodes: coefficients summed per residue by bincount,
    one inverse FFT, then the two weighted sums of the real part.
    Raises ValueError, as the loss does, on a model not real on the
    nodes (an imaginary part above 1e-9)."""
    L = ws.rule.L
    r = (model.frequencies @ np.asarray(ws.rule.g, dtype=np.int64)) % L
    b = np.bincount(r, model.theta.real, L) + 1j * np.bincount(
        r, model.theta.imag, L
    )
    f = L * np.fft.ifft(b)
    if float(np.max(np.abs(f.imag))) > 1e-9:
        raise ValueError("model is not real-valued on the nodes")
    fr = f.real
    return float((fr * fr) @ ws.w_xz / L), float(fr @ ws.w_xyz / L)


def _real_model(seed, d: int, reach: int, m: int) -> TrigModel:
    """A random support closed under negation, theta_{-k} = conj
    theta_k, so the model is real everywhere; ``seed`` is an int or a
    numpy Generator, which draws it."""
    rng = np.random.default_rng(seed)
    half = rng.integers(-reach, reach + 1, size=(m, d))
    rows = np.unique(np.vstack((half, -half)), axis=0)
    # rows are sorted, so the order that sorts -rows finds each -k
    neg = np.lexsort(tuple((-rows).T[::-1]))
    z = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    return TrigModel(rows, 0.5 * (z + z[neg].conj()))


def _loss_checks(seed: int, failures: list[str]) -> tuple[int, float]:
    """``compressed_loss`` against :func:`_node_terms` on three models,
    with their penalty-free terms: a real model small enough for the
    loss matrix (L = 61); a real model of more than 255 rows on L = 509,
    past the matrix's size, whose loss runs on its class sums; and a
    model whose realness part has a 2-norm within the tolerance and a
    1-norm beyond it, so its node values decide."""
    rng = np.random.default_rng([int(seed), 103])
    eps = 9e-10 * (1 + 1j) / math.sqrt(2)
    between = TrigModel(
        np.array([[0, 0], [1, 0], [-1, 0]]),
        np.array([0.5, 0.3 + 0.2j + eps, 0.3 - 0.2j]),
    )
    cases = (
        ("loss matrix", LatticeRule(61, (1, 25)), _real_model(rng, 2, 6, 30)),
        ("class sums", LatticeRule(509, (1, 205)),
         _real_model(rng, 2, 20, 500)),
        ("node values", LatticeRule(61, (1, 25)), between),
    )
    worst = 0.0
    for name, rule, model in cases:
        data = _random_dataset(rng, 200, 2)
        ws = compress(data, rule, IndexSet.cross(1.0, (1.0, 1.0), 40.0))
        rep = compressed_loss(model, ws)
        gap = _relative_gap(
            np.array([rep.quadratic, rep.cross]),
            np.array(_node_terms(model, ws)),
        )
        worst = max(worst, gap)
        if gap > 1e-9:
            failures.append(
                f"compressed loss on the {name} (L={rule.L}, "
                f"{model.size} rows) deviates from the node values by "
                f"{gap:.3e} relative"
            )
    return len(cases), worst


def inclusion_suite(seed: int = 0) -> dict:
    """Sandwich of the step cross between two crosses, plus the strict
    witness frequency that separates them."""
    del seed
    failures: list[str] = []
    checks = 0
    for d in (1, 2, 3):
        for alpha in (0.5, 1.0, 2.0):
            for gamma in (
                ProductWeights.ones(d),
                ProductWeights.geometric(0.5, d),
            ):
                for m in range(0, 7):
                    small = (
                        {
                            tuple(k)
                            for k in enumerate_cross(
                                alpha, gamma, 2.0 ** (m - d + 1)
                            )
                        }
                        if m - d + 1 >= 0
                        else set()
                    )
                    mid = {
                        tuple(k)
                        for k in enumerate_step_cross(alpha, gamma, m)
                    }
                    big = {
                        tuple(k)
                        for k in enumerate_cross(alpha, gamma, 2.0 ** m)
                    }
                    checks += 1
                    if not small <= mid:
                        failures.append(
                            f"inner cross escapes the step cross at "
                            f"d={d}, alpha={alpha}, m={m}"
                        )
                    if not mid <= big:
                        failures.append(
                            f"step cross escapes the outer cross at "
                            f"d={d}, alpha={alpha}, m={m}"
                        )
    witness = (6, 5)
    gamma2 = ProductWeights.ones(2)
    in_cross = IndexSet.cross(0.5, gamma2, 32.0).contains(witness)
    in_step = IndexSet.step_cross(0.5, gamma2, 5).contains(witness)
    checks += 1
    if not in_cross or in_step:
        failures.append(
            f"witness {witness}: cross(32) membership {in_cross}, "
            f"step(5) membership {in_step}; expected True, False"
        )
    return _result("set-inclusions", checks, 0.0, failures)


def aliasing_suite(seed: int = 0, instances: int = 10) -> dict:
    """Node average of the weights against the aliased coefficient sum.

    For every frequency set, ``(1/L) sum_ell W_ell`` must equal the sum
    of the transform coefficients over frequencies with ``k . g = 0
    (mod L)``.
    """
    rng = np.random.default_rng([int(seed), 202])
    failures: list[str] = []
    worst = 0.0
    checks = 0
    for i in range(int(instances)):
        L = int(rng.choice(_PRIMES))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(5, 30))
        data = _random_dataset(rng, n, d)
        rule = LatticeRule(
            L, tuple(int(v) for v in rng.integers(1, L, size=d))
        )
        gamma = ProductWeights.ones(d)
        spec = IndexSet.cross(1.0, gamma, 16.0)
        w = weights_general_fft(data, "responses", rule, spec)
        freq = spec.frequencies
        phase = np.exp(
            2j * np.pi * (data.X @ freq.T.astype(np.float64))
        )
        phihat = (data.Y @ phase) / data.N
        on_dual = (freq @ np.asarray(rule.g, dtype=np.int64)) % L == 0
        lhs = complex(np.mean(w))
        rhs = complex(np.sum(phihat[on_dual]))
        gap = abs(lhs - rhs) / (1.0 + abs(rhs))
        worst = max(worst, gap)
        checks += 1
        if gap > 1e-9:
            failures.append(
                f"instance {i}: node average {lhs} vs aliased sum {rhs}"
            )
    return _result("aliasing-identity", checks, worst, failures)


def envelope_suite(seed: int = 0, threads: int = 1) -> dict:
    """Measured loss gap against the computed bound, at a small scale.

    A smooth model with absolutely summable coefficients is sampled
    with light noise; the wiener-norm step-cross bound must dominate
    the measured gap at every lattice size tried.
    """
    rng = np.random.default_rng([int(seed), 303])
    d = 2
    half = 8
    axes = np.arange(-half, half + 1)
    kk = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1)
    freq = kk.reshape(-1, 2)
    theta = np.prod(1.0 / (1.0 + np.abs(freq)) ** 3, axis=1)
    model = TrigModel(freq, theta.astype(np.complex128))
    n = 1500
    X = rng.random((n, d))
    fx = eval_model(model, X).real
    Y = fx + rng.uniform(-1e-3, 1e-3, size=n)
    data = Dataset(X, Y)
    alpha = 1.24
    gamma = ProductWeights.ones(d)
    alpha_cbc = alpha - 0.5 - 0.12
    failures: list[str] = []
    worst = 0.0
    checks = 0
    exact = exact_loss(model, data)
    sq = model_squared(model)
    norm_f = wiener_norm(model, alpha, gamma)
    norm_f2 = wiener_norm(sq, alpha, gamma)
    mu_y = float(np.mean(np.abs(Y)))
    for L in (31, 61):
        rule = cbc_construct(L, d, alpha_cbc, gamma)
        q = BoundQuery(
            "wiener", "step-cross", alpha, gamma, L, 1.0, 1.0,
            delta=0.12, tau=0.06,
        )
        m = select_parameter(q)
        spec = IndexSet.step_cross(alpha, gamma, m, materialize=False)
        ws = compress(data, rule, spec, threads=threads)
        approx = compressed_loss(model, ws)
        gap = abs(exact.value - approx.value)
        env = loss_gap_envelope(q, m, norm_f, norm_f2, mu_y)
        ratio = gap / env.total if env.total > 0 else math.inf
        worst = max(worst, ratio)
        checks += 1
        if gap > env.total:
            failures.append(
                f"L={L}: measured gap {gap:.3e} exceeds bound "
                f"{env.total:.3e}"
            )
    return _result("loss-gap-envelope", checks, worst, failures)


SUITES = {
    "oracle": oracle_suite,
    "inclusion": inclusion_suite,
    "aliasing": aliasing_suite,
    "envelope": envelope_suite,
}


def run_all(
    seed: int = 0, inject_fault: bool = False, threads: int = 1
) -> list[dict]:
    """Run every suite and collect the reports."""
    return [
        oracle_suite(seed, inject_fault=inject_fault, threads=threads),
        inclusion_suite(seed),
        aliasing_suite(seed),
        envelope_suite(seed, threads=threads),
    ]
