r"""Truncated trigonometric models and the quadratic loss.

A model is ``f(x) = sum_{k in K} theta_k exp(2 pi i k . x)`` with a
finite frequency support.  The regularised mean-squared loss against a
dataset splits into a quadratic term, a cross term and a constant,

.. math:: \frac{1}{N} \sum_n (f(x_n) - y_n)^2
          = \frac{1}{N}\sum_n f(x_n)^2 - \frac{2}{N}\sum_n y_n f(x_n)
          + \frac{1}{N}\sum_n y_n^2,

and the compressed counterpart replaces the first two sums by weighted
sums of ``f^2`` and ``f`` over the lattice nodes.  A model's values on
the nodes depend on its coefficients only through their sums ``b_r``
over each residue ``r = k . g`` modulo ``L``.  By the circular
convolution theorem the two weighted sums are then
``sum_{r,s} b_r b_s S_xz[r + s]`` and ``sum_r b_r S_xyz[r]`` (indices
modulo L), where ``S[m] = sum_l w_l exp(2 pi i m l / L)`` is taken once
per :class:`WeightSet` by one real FFT of each weight vector.  So a loss
needs no pass over the nodes when the residues are few: its cost is
O(M) to bucket M coefficients plus the smaller of a quadratic form over
the occupied residues and the node values from one length-L inverse
FFT.  A model caches what
depends on its support alone (the residues, the split plan of
:func:`eval_model`) and the quadratic form of the last weights it met.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .compression import (
    Dataset,
    WeightSet,
    _residue_fft,
    _residues,
    _split_forward,
    _split_rows,
)
from .index_sets import CapExceeded
from .lattice import LatticeRule, ProductWeights

__all__ = [
    "TrigModel",
    "LossReport",
    "eval_model",
    "eval_model_on_lattice",
    "regularizer",
    "exact_loss",
    "compressed_loss",
    "model_squared",
    "wiener_norm",
    "korobov_norm",
    "lattice_alias_offenders",
    "REGULARIZERS",
]

REGULARIZERS = ("none", "best_subset", "lasso", "ridge", "elastic")

_IMAG_TOL = 1e-9


@dataclass(eq=False)
class TrigModel:
    """Finite trigonometric polynomial ``sum_k theta_k exp(2 pi i k.x)``.

    Attributes:
        frequencies: integer array (M, d); rows must be distinct.
        theta: complex coefficients (M,), aligned with the rows.
    """

    frequencies: np.ndarray
    theta: np.ndarray
    _cache: Optional["_SupportCache"] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        # Own read-only copies: the support cache is checked by the
        # identity of this array, and a caller's array stays writable.
        freq = np.array(self.frequencies, dtype=np.int64)
        theta = np.array(self.theta, dtype=np.complex128)
        if freq.ndim != 2:
            raise ValueError(f"frequencies must be 2-d, got {freq.shape}")
        if theta.shape != (freq.shape[0],):
            raise ValueError(
                f"{freq.shape[0]} frequencies but theta has shape "
                f"{theta.shape}"
            )
        if freq.shape[0] == 0:
            raise ValueError("model needs at least one frequency")
        if not np.all(np.isfinite(theta.view(np.float64))):
            raise ValueError("coefficients must be finite")
        if freq.shape[0] > 1:
            order = np.lexsort(freq.T[::-1])
            srt = freq[order]
            if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
                raise ValueError("duplicate frequency rows in model")
        freq.flags.writeable = False
        theta.flags.writeable = False
        self.frequencies = freq
        self.theta = theta

    @property
    def d(self) -> int:
        return self.frequencies.shape[1]

    @property
    def size(self) -> int:
        return self.frequencies.shape[0]

    @classmethod
    def real_symmetric(
        cls,
        frequencies: Union[np.ndarray, Sequence[Sequence[int]]],
        theta: Sequence[complex],
    ) -> "TrigModel":
        """Construct a model guaranteed real-valued on all of space.

        Requires the support to be closed under negation with
        ``theta_{-k} = conj(theta_k)``; raises otherwise.
        """
        model = cls(np.asarray(frequencies), np.asarray(theta))
        index = {
            tuple(row): i
            for i, row in enumerate(model.frequencies.tolist())
        }
        scale = 1.0 + float(np.max(np.abs(model.theta)))
        for i, row in enumerate(model.frequencies.tolist()):
            j = index.get(tuple(-v for v in row))
            if j is None:
                raise ValueError(
                    f"support not closed under negation: missing "
                    f"{tuple(-v for v in row)}"
                )
            if abs(model.theta[j] - np.conj(model.theta[i])) > 1e-12 * scale:
                raise ValueError(
                    f"coefficient at {tuple(row)} breaks conjugate symmetry"
                )
        return model

    def to_json(self) -> dict:
        flat: list[float] = []
        for v in self.theta:
            flat.append(float(v.real))
            flat.append(float(v.imag))
        return {
            "format": "trig-model",
            "version": 1,
            "frequencies": self.frequencies.tolist(),
            "theta": flat,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrigModel":
        if obj.get("format") != "trig-model":
            raise ValueError("not a trig-model object")
        flat = np.asarray(obj["theta"], dtype=np.float64)
        theta = flat[0::2] + 1j * flat[1::2]
        return cls(np.asarray(obj["frequencies"], dtype=np.int64), theta)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TrigModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


class _Classes(NamedTuple):
    """A support's residues on one rule, grouped into classes.

    ``residues`` holds ``k . g mod L`` per row, and ``classes`` the sorted
    residues occupied together with their negations modulo L, so the
    classes are closed under negation.  ``row`` is the position of each
    row's residue among the classes and ``neg`` that of each class's
    negation.
    """

    rule: LatticeRule
    residues: np.ndarray
    classes: np.ndarray
    row: np.ndarray
    neg: np.ndarray


class _SupportCache:
    """What the evaluations of one model reuse, all derived from its
    frequency array ``freq``: the split plan of :func:`eval_model`, the
    residue classes on the last rule, and the quadratic form over those
    classes of the last weights (``(S_xz, classes, H, S_xyz[classes])``,
    keyed by the identity of the first two, which it keeps alive)."""

    __slots__ = ("freq", "plan", "classes", "form")

    def __init__(self, freq: np.ndarray) -> None:
        self.freq = freq
        self.plan = self.classes = self.form = None


def _support(model: TrigModel) -> _SupportCache:
    """The model's cache, rebuilt when its frequency array is not the one
    the cache was built from (the model's own read-only copy, so an
    identity check suffices)."""
    c = model._cache
    if c is None or c.freq is not model.frequencies:
        c = model._cache = _SupportCache(model.frequencies)
    return c


def _classes(model: TrigModel, rule: LatticeRule) -> _Classes:
    """The residue classes of the model's support on ``rule``, cached for
    the last rule; O(M d + L) to build, without a sort."""
    c = _support(model)
    k = c.classes
    if k is None or k.rule != rule:
        L = rule.L
        residues = _residues(c.freq, rule)
        occupied = np.zeros(L, dtype=bool)
        occupied[residues] = True
        occupied[-residues % L] = True
        classes = np.flatnonzero(occupied)
        slot = np.cumsum(occupied) - 1
        k = c.classes = _Classes(
            rule, residues, classes, slot[residues], slot[-classes % L]
        )
    return k


def eval_model(model: TrigModel, x) -> np.ndarray:
    """Evaluate the model at one point or a batch of points.

    The support folds onto its representatives ``r >=_lex 0`` (r = k or
    -k): as ``exp(2 pi i (-r) . x)`` is the conjugate of ``exp(2 pi i r
    . x)``, ``f = Re sum_r P_r e_r + i Im sum_r Q_r e_r`` with ``P_r =
    theta_r + conj theta_{-r}`` and ``Q_r = theta_r - conj theta_{-r}``.
    A real model has Q = 0 and takes one coefficient column, any other
    model two, in the same matrix products.  Each representative splits
    as ``r = (a, b)`` into a head (its first h coordinates) and a tail,
    with h the cheapest split (the general-FFT plan of
    :mod:`latcompress.compression`).  Per block of points, the tails'
    phases times the coefficients, as a matrix of tails by heads, give
    one column per head and coefficient column, and each point sums
    those against its head phases.  So ``rows * (|heads| + |tails|)``
    phases are built, per coordinate from baby-step/giant-step factors of
    its distinct frequency values, and about ``rows * M / 2``
    multiply-adds per coefficient column run as matrix products.  Rows
    need not be sorted, nor the support closed under negation.  The plan
    is made on the first call and kept on the model.

    Args:
        model: model to evaluate.
        x: point of shape (d,) or batch of shape (N, d).

    Returns:
        Complex scalar for a single point, else a complex array (N,).
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != model.d:
        raise ValueError(
            f"points have {pts.shape[1]} coordinates, model has {model.d}"
        )
    c = _support(model)
    if c.plan is None:
        c.plan = _split_rows(c.freq)
    out = _split_forward(pts, c.plan, model.theta)
    if scalar:
        return complex(out[0])
    return out


def eval_model_on_lattice(model: TrigModel, rule: LatticeRule) -> np.ndarray:
    """Model values at every lattice node via one length-L inverse FFT.

    Coefficients sharing a residue ``k . g mod L`` alias to the same
    one-dimensional frequency along the lattice, so they are bucketed
    first; cost O(M + L log L) against O(L M d) for direct evaluation,
    with the residues (O(d M)) cached on the model for the last rule.
    """
    if rule.d != model.d:
        raise ValueError(f"rule has d={rule.d}, model has d={model.d}")
    return _residue_fft(_classes(model, rule).residues, model.theta, rule.L)


def regularizer(
    kind: str,
    theta: Sequence[complex],
    tikhonov: Optional[np.ndarray] = None,
    mix: Optional[float] = None,
) -> float:
    """Penalty value for a coefficient vector.

    Args:
        kind: "none", "best_subset" (count of nonzero coefficients),
            "lasso" (sum of moduli), "ridge" (squared norm of T theta,
            identity T by default), or "elastic" (mix * lasso +
            (1 - mix) * squared norm).
        theta: coefficient vector.
        tikhonov: optional matrix for the ridge penalty.
        mix: elastic mixing parameter in [0, 1]; required for elastic.

    Examples:
        >>> regularizer("lasso", [0.0, 3.0, -4.0])
        7.0
    """
    # no copy of a complex128 array; array methods rather than the numpy
    # wrappers (np.sum, np.real), which cost more than the arithmetic on
    # a short vector
    th = np.asarray(theta, dtype=np.complex128)
    if th.ndim != 1:
        raise ValueError(f"theta must be a vector, got shape {th.shape}")
    if kind not in REGULARIZERS:
        raise ValueError(
            f"unknown regularizer {kind!r}, expected one of {REGULARIZERS}"
        )
    if tikhonov is not None and kind != "ridge":
        raise ValueError("a tikhonov matrix only applies to kind='ridge'")
    if mix is not None and kind != "elastic":
        raise ValueError("a mixing parameter only applies to kind='elastic'")
    if kind == "none":
        return 0.0
    if kind == "best_subset":
        return float(np.count_nonzero(th))
    if kind == "lasso":
        return float(np.abs(th).sum())
    if kind == "ridge":
        if tikhonov is None:
            v = th
        else:
            t = np.asarray(tikhonov)
            if t.ndim != 2 or t.shape[1] != th.shape[0]:
                raise ValueError(
                    f"tikhonov matrix {t.shape} cannot act on theta of "
                    f"length {th.shape[0]}"
                )
            v = t @ th
        return float(_squared_norm(v))
    if mix is None:
        raise ValueError("elastic penalty needs a mixing parameter")
    mix = float(mix)
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mixing parameter {mix!r} outside [0, 1]")
    return mix * float(np.abs(th).sum()) + (1.0 - mix) * float(
        _squared_norm(th)
    )


def _squared_norm(v: np.ndarray) -> float:
    """``sum |v_i|^2`` of a complex vector."""
    return np.vdot(v, v).real


@dataclass(frozen=True)
class LossReport:
    """A quadratic loss split into its three data terms plus penalty.

    ``value`` always equals ``quadratic - 2 * cross + constant +
    lam * reg`` exactly, because it is assembled from the stored parts.
    """

    value: float
    quadratic: float
    cross: float
    constant: float
    reg: float
    lam: float

    @classmethod
    def assemble(
        cls,
        quadratic: float,
        cross: float,
        constant: float,
        reg: float,
        lam: float,
    ) -> "LossReport":
        value = quadratic - 2.0 * cross + constant + lam * reg
        return cls(
            float(value),
            float(quadratic),
            float(cross),
            float(constant),
            float(reg),
            float(lam),
        )

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "quadratic": self.quadratic,
            "cross": self.cross,
            "constant": self.constant,
            "reg": self.reg,
            "lam": self.lam,
        }


def exact_loss(
    model: TrigModel,
    data: Dataset,
    lam: float = 0.0,
    reg: str = "none",
    tikhonov: Optional[np.ndarray] = None,
    mix: Optional[float] = None,
) -> LossReport:
    """Regularised mean-squared loss by direct evaluation on the data.

    When the model is real on the samples (imaginary parts at most
    1e-9), the quadratic term is the mean of the squared real values;
    otherwise the loss falls back to ``mean |f - y|^2``, whose split
    keeps the same cross and constant terms with ``mean |f|^2`` as the
    quadratic term.
    """
    f = eval_model(model, data.X)
    pen = regularizer(reg, model.theta, tikhonov=tikhonov, mix=mix)
    if float(np.max(np.abs(f.imag))) <= _IMAG_TOL:
        fr = f.real
        quad = float(np.mean(fr * fr))
        crs = float(np.mean(fr * data.Y))
    else:
        quad = float(np.mean(np.abs(f) ** 2))
        crs = float(np.mean(f.real * data.Y))
    return LossReport.assemble(quad, crs, data.mean_y2, pen, float(lam))


def compressed_loss(
    model: TrigModel,
    weights: WeightSet,
    rule: Optional[LatticeRule] = None,
    lam: float = 0.0,
    reg: str = "none",
    tikhonov: Optional[np.ndarray] = None,
    mix: Optional[float] = None,
) -> LossReport:
    """Loss approximation from the compressed weights alone.

    Cost O(M + min(|U|^2, L log L)) per call for a model of M
    coefficients whose residues occupy the classes U, after one
    O(L log L) spectrum per :class:`WeightSet` and O(d M + L) per model
    and rule, both cached; it never touches the original samples.

    Args:
        model: model under evaluation; must be real on the nodes.
        weights: compressed data (real vectors required).
        rule: optional cross-check; must equal the rule stored in the
            weights when given.
    """
    if rule is not None and rule != weights.rule:
        raise ValueError(
            "the supplied rule is not the one the weights were built on"
        )
    if not weights.is_real:
        raise ValueError(
            "compressed loss needs real weight vectors; rebuild with a "
            "symmetric index set"
        )
    quad, crs = _data_terms(model, weights)
    pen = regularizer(reg, model.theta, tikhonov=tikhonov, mix=mix)
    return LossReport.assemble(quad, crs, weights.mean_y2, pen, float(lam))


# Cells |U|^2 up to which the compressed loss sums the quadratic form
# over the classes U rather than the node values of a length-L FFT.  A
# call on the form costs about 20 us plus 0.9 ns a cell, one on the
# nodes 40-80 us at L <= 1024 and 0.55-1.2 ms at L = 4099, 8191 and
# 16384 (one thread); at 2^16 cells (|U| = 256) the form took 52-61 us
# against 55-81 us at L = 509 and 1024.  H then holds at most 1 MiB.
_FORM_CELLS = 1 << 16


def _data_terms(model: TrigModel, weights: WeightSet) -> tuple[float, float]:
    """The quadratic and cross terms of the compressed loss.

    Let ``b`` be the coefficients summed per residue class and ``h_r =
    (b_r - conj b_{-r}) / 2``.  At node l the model's imaginary part is
    ``-i sum_r h_r exp(2 pi i r l / L)``, so its largest modulus over the
    nodes lies between ``sqrt(sum |h|^2)`` (Parseval) and ``sum |h|``.  When the second is at
    most the realness tolerance, the real part of the model has the
    coefficients ``b - h`` and both terms are sums over the classes; when
    the first exceeds it the model is not real.  Otherwise, and when the
    classes are too many for the quadratic form, the model is evaluated
    on the nodes.
    """
    L = weights.rule.L
    k = _classes(model, weights.rule)
    theta = model.theta
    n = len(k.classes)
    if n * n <= _FORM_CELLS:
        b = np.bincount(k.row, weights=theta.real, minlength=n) + 1j * (
            np.bincount(k.row, weights=theta.imag, minlength=n)
        )
        h = 0.5 * (b - b[k.neg].conj())
        size = np.abs(h)
        if float(size.sum()) <= _IMAG_TOL:
            H, s_xyz = _form(model, k, weights)
            b -= h
            quad = float((b @ (H @ b)).real / L)
            crs = float((b @ s_xyz).real / L)
            return quad, crs
        if math.sqrt(float(size @ size)) > _IMAG_TOL:
            raise _not_real()
    f = _residue_fft(k.residues, theta, L)
    if float(np.max(np.abs(f.imag))) > _IMAG_TOL:
        raise _not_real()
    fr = f.real
    quad = float((fr * fr) @ weights.w_xz / L)
    crs = float(fr @ weights.w_xyz / L)
    return quad, crs


def _form(
    model: TrigModel, k: _Classes, weights: WeightSet
) -> tuple[np.ndarray, np.ndarray]:
    """``H[i, j] = S_xz[u_i + u_j]`` and ``S_xyz[u_i]`` over the classes u,
    kept on the model for the last weights."""
    s_xz, s_xyz = weights._node_spectra()
    c = _support(model)
    form = c.form
    if form is None or form[0] is not s_xz or form[1] is not k:
        u = k.classes
        H = s_xz[np.add.outer(u, u) % weights.rule.L]
        form = c.form = (s_xz, k, H, s_xyz[u])
    return form[2], form[3]


def _not_real() -> ValueError:
    return ValueError(
        "model is not real-valued on the lattice nodes; the "
        "compressed quadratic term is only defined for real models"
    )


def _dense_square(
    model: TrigModel, lo: np.ndarray, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    conv_shape = tuple(2 * n - 1 for n in shape)
    axes = tuple(range(len(shape)))
    grid = np.zeros(shape, dtype=np.complex128)
    marks = np.zeros(shape, dtype=np.float64)
    idx = tuple((model.frequencies - lo[None, :]).T)
    grid[idx] = model.theta
    marks[idx] = 1.0
    spec = np.fft.fftn(grid, s=conv_shape, axes=axes)
    coef = np.fft.ifftn(spec * spec, axes=axes)
    mspec = np.fft.rfftn(marks, s=conv_shape, axes=axes)
    reach = np.fft.irfftn(mspec * mspec, s=conv_shape, axes=axes)
    mask = reach > 0.5
    offsets = np.argwhere(mask) + 2 * lo[None, :]
    return offsets.astype(np.int64), coef[mask]


def _sparse_square(model: TrigModel) -> tuple[np.ndarray, np.ndarray]:
    acc: dict[tuple[int, ...], complex] = {}
    rows = model.frequencies.tolist()
    for i, ki in enumerate(rows):
        ti = model.theta[i]
        for j, kj in enumerate(rows):
            key = tuple(a + b for a, b in zip(ki, kj))
            acc[key] = acc.get(key, 0.0) + ti * model.theta[j]
    keys = sorted(acc)
    freq = np.asarray(keys, dtype=np.int64)
    coef = np.asarray([acc[k] for k in keys], dtype=np.complex128)
    return freq, coef


def model_squared(model: TrigModel, cap: int = 1_000_000) -> TrigModel:
    """The pointwise square of a model as a model on the sum set.

    The support is exactly the Minkowski sum of the support with itself:
    a convolution of the coefficient grid, evaluated densely with FFTs
    when the bounding box is moderate and by hashed accumulation
    otherwise.  Raises :class:`CapExceeded` when the result would hold
    more than ``cap`` frequencies.
    """
    lo = model.frequencies.min(axis=0)
    hi = model.frequencies.max(axis=0)
    shape = tuple(int(h - l) + 1 for l, h in zip(lo, hi))
    conv_volume = 1
    for n in shape:
        conv_volume *= 2 * n - 1
    if conv_volume <= (1 << 23):
        freq, coef = _dense_square(model, lo, shape)
    else:
        work = model.size * model.size
        if work > 200_000_000:
            raise CapExceeded(work, 200_000_000)
        freq, coef = _sparse_square(model)
    if len(freq) > cap:
        raise CapExceeded(len(freq), cap)
    return TrigModel(freq, coef)


def _profile_rows(
    frequencies: np.ndarray, alpha: float, gamma: ProductWeights
) -> np.ndarray:
    if gamma.d != frequencies.shape[1]:
        raise ValueError(
            f"{gamma.d} weights for frequencies of width "
            f"{frequencies.shape[1]}"
        )
    two_alpha = 2.0 * float(alpha)
    out = np.ones(frequencies.shape[0], dtype=np.float64)
    for j, gj in enumerate(gamma):
        powk = np.power(
            np.abs(frequencies[:, j]).astype(np.float64), two_alpha
        )
        out *= np.maximum(powk / gj, 1.0)
    return out


def wiener_norm(
    model: TrigModel, alpha: float, gamma: ProductWeights
) -> float:
    """Weighted absolute-coefficient norm ``sum_k sqrt(r) |theta_k|``."""
    r = _profile_rows(model.frequencies, alpha, gamma)
    return float(np.sum(np.sqrt(r) * np.abs(model.theta)))


def korobov_norm(
    model: TrigModel, alpha: float, gamma: ProductWeights
) -> float:
    """Weighted squared-coefficient norm ``sqrt(sum_k r |theta_k|^2)``."""
    r = _profile_rows(model.frequencies, alpha, gamma)
    return float(math.sqrt(float(np.sum(r * np.abs(model.theta) ** 2))))


def lattice_alias_offenders(
    frequencies: np.ndarray, rule: LatticeRule
) -> np.ndarray:
    """Nonzero frequencies that alias to the lattice mean.

    Rows ``k != 0`` with ``k . g = 0 (mod L)``.  Applied to a
    compression index set that contains the origin, an empty result
    makes the compressed loss of every constant model exact: the
    origin's residue class inside the set is then the origin alone.
    Nonconstant models need the same uniqueness for every residue class
    their support and squared support occupy.
    """
    freq = np.asarray(frequencies, dtype=np.int64)
    residues = _residues(freq, rule)
    nonzero = np.any(freq != 0, axis=1)
    return freq[(residues == 0) & nonzero]
