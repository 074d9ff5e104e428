"""The benchmark's workloads and the inputs each one builds from a seed.

A workload fixes the make-up of a problem (dimension, lattice size,
frequency-set family, sample count, regulariser).  ``make_inputs`` turns
it into arrays: sample sites, responses, the reference model and a
sequence of models that share the reference model's support, as an
optimiser's iterates do.

The sample sites and the reference model come from a fixed stream
(``SITE_SEED``); ``--seed`` draws the response noise, the starting point
of the model sequence and every random choice the checks make.  The loss
gap of one random dataset swings by more than its own size from one site
draw to the next (IQR/median 1.48 over ten draws on ``paper-2d``), so a
gap metric over freshly drawn sites could not resolve a regression of a
few per cent; over fixed sites it repeats to 0.2%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

SITE_SEED = 20_240_917
NOISE = 1e-3      # responses carry uniform noise on [-NOISE, NOISE]
N_MODELS = 16     # length of the model sequence

# Relative slack of the boundary comparisons in the set definitions.
SET_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class Workload:
    """Static make-up of one workload.

    ``level`` is None when ``select_parameter`` picks it; ``cbc_alpha``
    is None when the rule is built for ``alpha - 1/2 - delta``, as the
    bounds assume.  ``check_samples`` is the size of the subsample the
    weight check compresses again (None: the whole dataset).  A run takes
    ``libpath_runs`` library-path processes and ``cli_runs`` command-line
    paths.
    """

    name: str
    d: int
    L: int
    alpha: float
    family: str
    N: int
    reg: str
    lam: float
    mix: Optional[float]
    level: Optional[float] = None
    cbc_alpha: Optional[float] = None
    check_samples: Optional[int] = None
    libpath_runs: int = 5
    cli_runs: int = 2

    @property
    def gamma(self) -> tuple[float, ...]:
        return (1.0,) * self.d

    @property
    def bounded(self) -> bool:
        """Whether the analysis bounds apply (they need alpha > 1)."""
        return self.alpha > 1.0


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 6's setting at its largest modulus: a mpmath phi
        # table, the d=2 step-cross kernel sweep and a 16,641-row model.
        Workload(
            name="paper-2d", d=2, L=509, alpha=1.24, family="step-cross",
            N=20_000, reg="none", lam=0.0, mix=None,
            libpath_runs=2,
        ),
        # Enumeration and the N x |K| adjoint pass of general-FFT; the
        # rule is built for alpha - 1/2 - delta = 1, an integer.
        Workload(
            name="cross-4d", d=4, L=8191, alpha=2.0, family="cross",
            N=3_000, reg="elastic", lam=1e-3, mix=0.5,
            check_samples=400,
        ),
        # The step-cross shape sweep at d=6 (462 shapes, |K| = 49,761).
        # alpha = 1 lies outside the bounds' domain (alpha > 1), so the
        # order is fixed rather than selected.
        Workload(
            name="stepcross-6d", d=6, L=127, alpha=1.0,
            family="step-cross", N=10_000, reg="ridge",
            lam=1e-3, mix=None, level=6, cbc_alpha=1.0, check_samples=200,
        ),
    )
}


@dataclass
class Inputs:
    """Arrays a workload hands to the program."""

    X: np.ndarray
    Y: np.ndarray
    freq: np.ndarray          # (M, d) support of every model
    truth: np.ndarray         # (M,) reference model, real and symmetric
    sequence: np.ndarray      # (S, M) model sequence on the same support


def _partner(freq: np.ndarray) -> np.ndarray:
    """Index of -k for every row k of a support closed under negation."""
    index = {tuple(row): i for i, row in enumerate(freq.tolist())}
    return np.array([index[tuple(-v for v in row)] for row in freq.tolist()])


def _grid_truth() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Criterion 6's separable truth on the 129 x 129 grid |k_j| <= 64."""
    ks = np.arange(-64, 65)
    g1 = (1.0 + np.abs(ks)) ** -3.0
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    freq = np.stack([k1.ravel(), k2.ravel()], axis=1)
    return freq, np.outer(g1, g1).ravel(), g1


def _sparse_truth(d: int, pairs: int, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """The origin plus ``pairs`` pairs +-k with decaying real coefficients."""
    rng = np.random.default_rng([SITE_SEED, d])
    rows: list[tuple[int, ...]] = []
    seen = {(0,) * d}
    while len(rows) < pairs:
        k = rng.integers(-reach, reach + 1, size=d)
        k[rng.random(d) < 0.5] = 0
        key, neg = tuple(int(v) for v in k), tuple(int(-v) for v in k)
        if key in seen or neg in seen:
            continue
        seen.update((key, neg))
        rows.append(key)
    half = np.array(rows, dtype=np.int64)
    freq = np.concatenate([np.zeros((1, d), np.int64), half, -half])
    decay = np.prod((1.0 + np.abs(half)) ** -2.0, axis=1)
    signs = rng.choice([-1.0, 1.0], size=pairs)
    coef = 0.5 * signs * decay
    return freq, np.concatenate([[0.25], coef, coef])


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Build the workload's arrays; the same seed gives the same arrays."""
    sites = np.random.default_rng([SITE_SEED, w.d, w.N])
    X = sites.random((w.N, w.d))
    if w.name == "paper-2d":
        freq, truth, g1 = _grid_truth()
        ks = np.arange(-64, 65)
        clean = (np.exp(2j * np.pi * np.outer(X[:, 0], ks)) @ g1).real
        clean *= (np.exp(2j * np.pi * np.outer(X[:, 1], ks)) @ g1).real
    else:
        pairs, reach = (20, 4) if w.d == 4 else (12, 2)
        freq, truth = _sparse_truth(w.d, pairs, reach)
        phase = 2j * np.pi * (X @ freq.T.astype(np.float64))
        clean = (np.exp(phase) @ truth).real
    rng = np.random.default_rng([seed, w.d, 1])
    Y = clean + NOISE * (2.0 * rng.random(w.N) - 1.0)
    # The sequence runs from a perturbed start to the truth; perturbations
    # are symmetric under k -> -k so that every iterate is a real model.
    u = rng.uniform(-0.2, 0.2, size=len(truth))
    u = 0.5 * (u + u[_partner(freq)])
    start = truth * (1.0 + u)
    steps = np.linspace(0.0, 1.0, N_MODELS)[:, None]
    sequence = start[None, :] + steps * (truth - start)[None, :]
    return Inputs(X, Y, freq, truth, sequence)


@dataclass
class Plan:
    """What set-up decides: the set level and the rule's smoothness."""

    level: float
    cbc_alpha: float
    query: object  # latcompress.BoundQuery, or None when unbounded


def plan(w: Workload, lc) -> Plan:
    """Pick the set level through ``select_parameter`` where it applies."""
    gamma = lc.ProductWeights(w.gamma)
    query = None
    level = w.level
    cbc_alpha = w.cbc_alpha
    if w.bounded:
        query = lc.BoundQuery("wiener", w.family, w.alpha, gamma, w.L, 0.0, 0.0)
        if level is None:
            level = lc.select_parameter(query)
        if cbc_alpha is None:
            cbc_alpha = w.alpha - 0.5 - float(query.delta)
    if w.family == "step-cross":
        level = int(level)
    return Plan(level, cbc_alpha, query)


def index_set(w: Workload, p: Plan, lc):
    """The workload's frequency set as a lazy descriptor."""
    gamma = lc.ProductWeights(w.gamma)
    if w.family == "step-cross":
        return lc.IndexSet.step_cross(w.alpha, gamma, int(p.level), materialize=False)
    return lc.IndexSet.cross(w.alpha, gamma, p.level, materialize=False)
