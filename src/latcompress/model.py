r"""Truncated trigonometric models and the quadratic loss.

A model is ``f(x) = sum_{k in K} theta_k exp(2 pi i k . x)`` with a
finite frequency support.  The regularised mean-squared loss against a
dataset splits into a quadratic term, a cross term and a constant,

.. math:: \frac{1}{N} \sum_n (f(x_n) - y_n)^2
          = \frac{1}{N}\sum_n f(x_n)^2 - \frac{2}{N}\sum_n y_n f(x_n)
          + \frac{1}{N}\sum_n y_n^2,

and the compressed counterpart replaces the first two sums by weighted
sums of ``f^2`` and ``f`` over the lattice nodes.  Evaluating the model
on all nodes costs one FFT after bucketing coefficients by the residue
of ``k . g`` modulo ``L``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .compression import (
    Dataset,
    WeightSet,
    _lattice_fft,
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

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequencies, dtype=np.int64)
        theta = np.asarray(self.theta, dtype=np.complex128)
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


def eval_model(model: TrigModel, x) -> np.ndarray:
    """Evaluate the model at one point or a batch of points.

    Each frequency splits as ``k = (a, b)`` into a head (its first h
    coordinates) and a tail, with h the cheapest split of the support
    (the general-FFT plan of :mod:`latcompress.compression`).  Per block
    of points, the tails' phases times the coefficients, as a matrix of
    tails by heads, give one column per head, and each point sums those
    against its head phases.  So ``rows * (|heads| + |tails|)`` phases
    are built, per coordinate from its distinct frequency values, and the
    ``rows * M`` multiply-adds run as matrix products.  Rows need not be
    sorted.

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
    out = _split_forward(pts, _split_rows(model.frequencies), model.theta)
    if scalar:
        return complex(out[0])
    return out


def eval_model_on_lattice(model: TrigModel, rule: LatticeRule) -> np.ndarray:
    """Model values at every lattice node via one length-L inverse FFT.

    Coefficients sharing a residue ``k . g mod L`` alias to the same
    one-dimensional frequency along the lattice, so they are bucketed
    first; cost O(d M + L log L) against O(L M d) for direct evaluation.
    """
    if rule.d != model.d:
        raise ValueError(f"rule has d={rule.d}, model has d={model.d}")
    return _lattice_fft(model.frequencies, model.theta, rule)


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
        return float(np.sum(np.abs(th)))
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
        return float(np.real(np.vdot(v, v)))
    if mix is None:
        raise ValueError("elastic penalty needs a mixing parameter")
    mix = float(mix)
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mixing parameter {mix!r} outside [0, 1]")
    return mix * float(np.sum(np.abs(th))) + (1.0 - mix) * float(
        np.real(np.vdot(th, th))
    )


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

    Cost O(L) beyond the node evaluation of the model; never touches
    the original samples.

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
    f = eval_model_on_lattice(model, weights.rule)
    if float(np.max(np.abs(f.imag))) > _IMAG_TOL:
        raise ValueError(
            "model is not real-valued on the lattice nodes; the "
            "compressed quadratic term is only defined for real models"
        )
    fr = f.real
    L = weights.rule.L
    pen = regularizer(reg, model.theta, tikhonov=tikhonov, mix=mix)
    quad = float((fr * fr) @ weights.w_xz / L)
    crs = float(fr @ weights.w_xyz / L)
    return LossReport.assemble(quad, crs, weights.mean_y2, pen, float(lam))


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
    residues = (freq @ np.asarray(rule.g, dtype=np.int64)) % rule.L
    nonzero = np.any(freq != 0, axis=1)
    return freq[(residues == 0) & nonzero]
