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
per :class:`WeightSet` by one real FFT of each weight vector.  Both are
real-linear and real-quadratic in the real and imaginary parts of the
coefficients, so for a support and a weight set one real matrix ``W``
(:func:`_loss_matrix`) turns those 2M numbers into the two terms and the
model's departure from realness: a loss costs one product with ``W``,
O(M (M + |U|)) for the residue classes U the support occupies, with
``W`` capped at 2^17 entries.  Supports too large for ``W`` take the
class sums ``b`` themselves, and no node value: the realness check and
the cross term read b, and the quadratic term, b's autoconvolution
against ``S_xz``, is one real FFT of b at a fast length against a kernel
made once per support and weight set (:func:`_loss_kernel`), O(M + L
log L).  A model caches what depends on its support alone (the split
plan of :func:`eval_model`, the residue classes) and ``W`` or the
kernel of the last weights it met; :meth:`TrigModel.with_theta` hands
that cache on, and so does a model built from a live model's own
frequency array.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .compression import (
    _IMAG_TOL,
    Dataset,
    WeightSet,
    _Classes,
    _classes,
    _distinct,
    _lattice_sum,
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
        # A live model's own read-only array, checked when it was made,
        # is shared with its support cache, so a fresh model per step of
        # an optimiser builds nothing again.
        live = _LIVE.get(id(self.frequencies))
        if live is not None and live.freq is self.frequencies:
            self.theta = _own_theta(self.theta, live.freq.shape[0])
            self._cache = live
            return
        # Own read-only copies: the support cache is checked by the
        # identity of this array, and a caller's array stays writable.
        freq = np.array(self.frequencies, dtype=np.int64)
        if freq.ndim != 2:
            raise ValueError(f"frequencies must be 2-d, got {freq.shape}")
        theta = _own_theta(self.theta, freq.shape[0])
        if freq.shape[0] == 0:
            raise ValueError("model needs at least one frequency")
        if freq.shape[0] > 1:
            order = np.lexsort(freq.T[::-1])
            srt = freq[order]
            if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
                raise ValueError("duplicate frequency rows in model")
        freq.flags.writeable = False
        self.frequencies = freq
        self.theta = theta
        _support(self)

    def with_theta(self, theta: Sequence[complex]) -> "TrigModel":
        """The model with coefficients ``theta`` on this model's support.

        The new model shares the frequency array and everything cached
        on it (the split plan, the residue classes and the loss matrix of
        the last weights), so a sequence of coefficient vectors on one
        support, as an optimiser makes, builds those once.  ``theta`` is
        validated and copied as by the constructor.
        """
        return type(self)(self.frequencies, theta)

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


def _own_theta(theta, size: int) -> np.ndarray:
    """A read-only complex copy of ``theta``, checked to hold ``size``
    finite coefficients."""
    theta = np.array(theta, dtype=np.complex128)
    if theta.shape != (size,):
        raise ValueError(
            f"{size} frequencies but theta has shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta.view(np.float64))):
        raise ValueError("coefficients must be finite")
    theta.flags.writeable = False
    return theta


class _LossEntry(NamedTuple):
    """The loss of a support against one weight set (:func:`_loss_entry`),
    told apart by the identity of the vectors ``w_xz`` and ``w_xyz`` and
    the ``rule`` it was built from.  ``real_sq`` bounds the squared
    2-norm of the realness part under which the model is real
    (:func:`_data_terms`).  ``W`` is the loss matrix
    (:func:`_loss_matrix`) and ``h_weights`` turns the squares of its
    realness part into ``sum |h|^2``: 1/2 on the rows of a pair of
    classes r and -r, which hold 2 Re h_r and 2 Im h_r and stand for both
    classes, 1 on a class r = -r.  Both are None for a support too large
    for W, whose loss runs on its class sums instead: ``classes`` groups
    its rows by residue, ``neg`` is the class ``-r mod L`` of each class
    r, ``U`` the kernel of :func:`_loss_kernel` and ``s_xyz`` the cross
    term's spectrum; these four are None with a W."""

    w_xz: np.ndarray
    w_xyz: np.ndarray
    rule: LatticeRule
    real_sq: float
    W: Optional[np.ndarray] = None
    h_weights: Optional[np.ndarray] = None
    classes: Optional[_Classes] = None
    neg: Optional[np.ndarray] = None
    U: Optional[np.ndarray] = None
    s_xyz: Optional[np.ndarray] = None


class _SupportCache:
    """What the evaluations of one model reuse, all derived from its
    frequency array ``freq``: the split plan of :func:`eval_model`, the
    residue classes on the last rule (``(rule, classes)``,
    :func:`_node_values`) and the loss entry of the last weights."""

    __slots__ = ("freq", "plan", "nodes", "loss", "__weakref__")

    def __init__(self, freq: np.ndarray) -> None:
        self.freq = freq
        self.plan = self.nodes = self.loss = None


# The support caches of live models by the identity of their frequency
# array, so a model built from another's array shares its cache.  A
# cache holds its array, so an entry's identity is never reused while the
# entry lives, and the entry goes with the last model holding the cache.
_LIVE: "weakref.WeakValueDictionary[int, _SupportCache]" = (
    weakref.WeakValueDictionary()
)


def _support(model: TrigModel) -> _SupportCache:
    """The model's cache, rebuilt when its frequency array is not the one
    the cache was built from (the model's own read-only copy, so an
    identity check suffices)."""
    c = model._cache
    if c is None or c.freq is not model.frequencies:
        c = model._cache = _SupportCache(model.frequencies)
        _LIVE[id(c.freq)] = c
    return c


def _node_classes(model: TrigModel, rule: LatticeRule) -> _Classes:
    """The rows' residue classes on ``rule``, kept on the model for the
    last rule."""
    c = _support(model)
    if c.nodes is None or c.nodes[0] != rule:
        c.nodes = (rule, _classes(_residues(c.freq, rule), rule.L))
    return c.nodes[1]


def _node_values(model: TrigModel, rule: LatticeRule) -> np.ndarray:
    """``sum_k theta_k exp(2 pi i k . z_l)`` at every node ``z_l``
    (:func:`_lattice_sum`); O(M + L log L)."""
    return _lattice_sum(_node_classes(model, rule), model.theta)


def eval_model(model: TrigModel, x) -> np.ndarray:
    """Evaluate the model at one point or a batch of points.

    The support folds onto its representatives ``r >=_lex 0`` (r = k or
    -k): as ``exp(2 pi i (-r) . x)`` is the conjugate of ``exp(2 pi i r
    . x)``, ``f = Re sum_r P_r e_r + i Im sum_r Q_r e_r`` with ``P_r =
    theta_r + conj theta_{-r}`` and ``Q_r = theta_r - conj theta_{-r}``.
    A real model has Q = 0 and takes one coefficient column, any other
    model two, in the same matrix products.  Each representative splits
    as ``r = (a, +-tau)`` into a head (its first h coordinates) and a
    tail ``tau >=_lex 0`` with a sign, with h the cheapest split (the
    general-FFT plan of :mod:`latcompress.compression`).  Per block of
    points, the phases of every head and tail are built value-major, one
    contiguous row of the points' phases per frequency value, per
    coordinate from baby-step/giant-step factors of its distinct
    frequency values (doubling, giant times baby steps and conjugates
    are products and copies of whole rows), a side of several
    coordinates level by level over its distinct prefixes, and split
    into a cosine row and a sine row each: ``rows * (|heads| + |tails|)``
    phases.  Per bucket of heads, one real matrix product of the bucket's
    coefficients with the wider side's cosine and sine rows gives the
    narrower side's rows, and each point's row-wise products with its
    cosines and sines on the narrower side, summed, add the bucket's
    share.  So at most 4 real multiply-adds per pair cell ``(a, tau)``
    and coefficient column run as matrix products, about ``rows * M`` on
    the named families, whose pair cells hold both signs of their tail;
    2 for a model whose coefficients are real and equal on k and -k,
    which weighs cosines by cosines and sines by sines alone.
    Rows need not be sorted, nor the support closed under negation.  The
    plan, with everything its phases need that does not depend on the
    points, is made on the first call and kept on the model.  Points
    outside [0, 1) are reduced by their floor first, which is exact, so the
    phases are as accurate there as inside.

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
    # The phases reduce angles exactly for points in [0, 1); taking the
    # floor off first is exact, and leaves such points as they are.
    out = _split_forward(pts - np.floor(pts), c.plan, model.theta)
    if scalar:
        return complex(out[0])
    return out


def eval_model_on_lattice(model: TrigModel, rule: LatticeRule) -> np.ndarray:
    """Model values at every lattice node via one length-L inverse FFT.

    Coefficients sharing a residue ``k . g mod L`` alias to the same
    one-dimensional frequency along the lattice, so they are bucketed
    first; cost O(M + L log L) against O(L M d) for direct evaluation,
    with the rows' residue classes cached on the model for the last
    rule.
    """
    if rule.d != model.d:
        raise ValueError(f"rule has d={rule.d}, model has d={model.d}")
    return _node_values(model, rule)


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
    return _penalty(kind, np.ascontiguousarray(th), tikhonov, mix)


def _penalty(
    kind: str,
    th: np.ndarray,
    tikhonov: Optional[np.ndarray],
    mix: Optional[float],
) -> float:
    """:func:`regularizer` of a contiguous complex vector ``th``, with
    every check of the other arguments.  :func:`regularizer` calls it
    once it has its vector, and both losses call it on the model's own
    coefficients, so the three agree bitwise."""
    # array methods and ufuncs rather than the numpy wrappers (np.sum,
    # np.vdot), and the common kinds first: on a short vector each numpy
    # call costs more than the arithmetic
    if kind not in REGULARIZERS:
        raise ValueError(
            f"unknown regularizer {kind!r}, expected one of {REGULARIZERS}"
        )
    if tikhonov is not None and kind != "ridge":
        raise ValueError("a tikhonov matrix only applies to kind='ridge'")
    if mix is not None and kind != "elastic":
        raise ValueError("a mixing parameter only applies to kind='elastic'")
    if kind == "ridge":
        if tikhonov is not None:
            t = np.asarray(tikhonov)
            if t.ndim != 2 or t.shape[1] != th.shape[0]:
                raise ValueError(
                    f"tikhonov matrix {t.shape} cannot act on theta of "
                    f"length {th.shape[0]}"
                )
            th = (t @ th).astype(np.complex128, copy=False)
        v = th.view(np.float64)
        return float(v.dot(v))
    if kind == "elastic":
        if mix is None:
            raise ValueError("elastic penalty needs a mixing parameter")
        mix = float(mix)
        if not 0.0 <= mix <= 1.0:
            raise ValueError(f"mixing parameter {mix!r} outside [0, 1]")
        a = np.abs(th)
        return mix * _total(a) + (1.0 - mix) * float(a.dot(a))
    if kind == "none":
        return 0.0
    if kind == "lasso":
        return _total(np.abs(th))
    return float(np.count_nonzero(th))


# Ones for _total, grown as needed and never written.
_ONES = np.ones(256)


def _total(a: np.ndarray) -> float:
    """The sum of the real vector a, as a dot product with ones: on 41
    entries 0.47 us, against 1.0 us for ``np.add.reduce`` (numpy's
    per-call cost of a reduction)."""
    global _ONES
    ones = _ONES
    if len(ones) < len(a):
        ones = _ONES = np.ones(2 * len(a))
    return float(a.dot(ones[:len(a)]))


def _penalty_weight(lam) -> float:
    """``lam`` as a float, checked to be finite and non-negative."""
    lam = float(lam)
    if not 0.0 <= lam < math.inf:
        raise ValueError(
            f"penalty weight lam must be finite and non-negative, got {lam!r}"
        )
    return lam


@dataclass(frozen=True)
class LossReport:
    """A quadratic loss split into its three data terms plus penalty.

    ``value`` always equals ``quadratic - 2 * cross + constant +
    lam * reg`` exactly, because it is assembled from the stored parts.
    On a model that fits, those terms nearly cancel and ``value`` keeps
    only the digits the cancellation leaves.  ``residual``, when given
    (by :func:`exact_loss`), is the mean squared residual summed
    directly, ``mean |f - y|^2``, free of that cancellation; it leaves
    out the penalty.
    """

    value: float
    quadratic: float
    cross: float
    constant: float
    reg: float
    lam: float
    residual: Optional[float] = None

    @classmethod
    def assemble(
        cls,
        quadratic: float,
        cross: float,
        constant: float,
        reg: float,
        lam: float,
        residual: Optional[float] = None,
    ) -> "LossReport":
        rep = cls._of(
            float(quadratic), float(cross), float(constant), float(reg),
            float(lam),
        )
        if residual is not None:
            rep.__dict__["residual"] = float(residual)
        return rep

    @classmethod
    def _of(
        cls,
        quadratic: float,
        cross: float,
        constant: float,
        reg: float,
        lam: float,
    ) -> "LossReport":
        """:meth:`assemble` for Python floats, without a residual.  The
        fields go straight into the instance's dict: the frozen
        ``__init__`` would set each one through ``object.__setattr__``,
        which costs more than the loss of a small model."""
        rep = object.__new__(cls)
        d = rep.__dict__
        d["value"] = quadratic - 2.0 * cross + constant + lam * reg
        d["quadratic"] = quadratic
        d["cross"] = cross
        d["constant"] = constant
        d["reg"] = reg
        d["lam"] = lam
        return rep

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "quadratic": self.quadratic,
            "cross": self.cross,
            "constant": self.constant,
            "reg": self.reg,
            "lam": self.lam,
        }
        if self.residual is not None:
            out["residual"] = self.residual
        return out


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
    quadratic term.  The report's ``residual`` is the same mean squared
    residual summed directly from ``f - y``: on a model that fits, the
    three terms nearly cancel in ``value``, which then keeps fewer
    correct digits than ``residual`` (on paper-2d's reference model the
    quadratic and cross terms are about 1.08 and the residual 3.3e-7).
    """
    lam = _penalty_weight(lam)
    f = eval_model(model, data.X)
    pen = _penalty(reg, model.theta, tikhonov, mix)
    if float(np.max(np.abs(f.imag))) <= _IMAG_TOL:
        fr = f.real
        quad = float(np.mean(fr * fr))
        crs = float(np.mean(fr * data.Y))
        r = fr - data.Y
    else:
        quad = float(np.mean(np.abs(f) ** 2))
        crs = float(np.mean(f.real * data.Y))
        r = np.abs(f - data.Y)
    return LossReport.assemble(
        quad, crs, data.mean_y2, pen, lam, float(np.mean(r * r))
    )


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

    Cost O(M (M + |U|)) per call for a model of M coefficients whose
    residues occupy the classes U: one product with a matrix of at most
    2^17 entries, built once per support and :class:`WeightSet` (O(d M +
    M^2)) from one O(L log L) spectrum per weight set.  A support too
    large for that matrix costs O(M + L log L): its coefficients summed
    per residue class, then one real FFT of those sums at a length of
    at most 4L against a kernel made once per support and weight set.
    It never touches the original samples.

    On a support that fits the matrix, a call past the first does four
    things beside its argument checks: the product of the matrix with
    the coefficients, one dot product that shows the model real (the
    1-norm and 2-norm tests, and the node values, only for a model that
    it leaves in doubt), one dot product for the quadratic term, and
    the penalty from the model's coefficients.  The support keeps the
    matrix or kernel of the last weight set it met, with the checks that
    the weights are real and of the model's dimension; it is built again
    for another weight set, or when the weight set's vectors or rule are
    reassigned.

    Args:
        model: model under evaluation; must be real on the nodes.
        weights: compressed data (real vectors required).
        rule: optional cross-check; must equal the rule stored in the
            weights when given.
        lam: penalty weight, finite and non-negative.
        reg, tikhonov, mix: the penalty, as for :func:`regularizer`.
    """
    if rule is not None and rule is not weights.rule and rule != weights.rule:
        raise ValueError(
            "the supplied rule is not the one the weights were built on"
        )
    lam = _penalty_weight(lam)
    quad, crs = _data_terms(model, weights)
    pen = _penalty(reg, model.theta, tikhonov, mix)
    return LossReport._of(quad, crs, float(weights.mean_y2), pen, lam)


# When a support's loss runs as a product with its matrix W
# (:func:`_loss_matrix`) rather than on its class sums: while W's entries
# are at most the larger of _MATRIX_ENTRIES and _CALL_ENTRIES +
# _TERM_ENTRIES (M + P log2 P) for M rows and the class sums' FFT length
# P (:func:`_kernel_length`).  Fitted on BENCH_loss_dispatch.json's
# matrix_cap figures (medians of three, 2-core host, one BLAS thread): a
# W call took 17-18 us at 129,948 entries and 44 us at 242,808 at every
# L, priced at the larger rate, 1.82e-4 us an entry; the class sums took
# 22-24, 30-32, 152-158 and 166-178 us at L = 509, 1021, 4099 and 8191
# (P = 1024, 2048, 16,384 and 16,384), 15.8 + 6.5e-4 (M + P log2 P) us by
# least squares.  So W is taken up to about 123,000 entries at L = 509,
# 167,000 at 1021 and 903,000 (7 MB) past 4099, the last beyond the
# largest W timed; and always up to 2^17 (1 MiB), where W won at every L
# timed, so the boundary at L = 509 stays where ``test_size_rule`` pins
# it.
_MATRIX_ENTRIES = 1 << 17
_CALL_ENTRIES = 86_000
_TERM_ENTRIES = 3.56


def _data_terms(model: TrigModel, weights: WeightSet) -> tuple[float, float]:
    """The quadratic and cross terms of the compressed loss.

    Let ``b`` be the coefficients summed per residue class and ``h_r =
    (b_r - conj b_{-r}) / 2``.  At node l the model's imaginary part is
    ``-i sum_r h_r exp(2 pi i r l / L)``, so its largest modulus over the
    nodes lies between ``sqrt(sum |h|^2)`` (Parseval) and ``sum |h|``.
    When ``sum (|Re h| + |Im h|)``, at least the second, is at most the
    realness tolerance, the real part of the model has the coefficients
    ``b' = b - h`` and both terms come from them: from one product with
    the support's loss matrix, or, for a support too large for the
    matrix, from ``b'`` itself (:func:`_loss_kernel`), with no node
    value made.  When ``sqrt(sum |h|^2)`` exceeds the tolerance the model
    is not real.  Otherwise the model is evaluated on the nodes.

    The 1-norm is rarely summed: by Cauchy-Schwarz it is at most
    ``sqrt(n s)`` for the n real numbers of the realness part and their
    sum of squares s, one dot product, so ``n s`` at most half the
    squared tolerance (``real_sq``) shows a model real.  Only a model
    that this leaves in doubt takes the 1-norm, the 2-norm and the nodes,
    in that order, so every model takes the branch it took with the
    1-norm alone; the half covers the rounding of both sums.
    """
    c = _support(model)
    e = c.loss
    if (e is None or e.w_xz is not weights.w_xz
            or e.w_xyz is not weights.w_xyz or e.rule is not weights.rule):
        e = c.loss = _loss_entry(model, weights)
    if e.W is not None:
        v = model.theta.view(np.float64)
        y = e.W.dot(v)
        n = len(v) + 1
        h = y[n:]
        if h.dot(h) <= e.real_sq or np.abs(h).sum() <= _IMAG_TOL:
            return float(v.dot(y[1:n])), float(y[0])
        if math.sqrt(float((h * h) @ e.h_weights)) > _IMAG_TOL:
            raise _not_real()
    else:
        # Regrouping the coefficients by class (the take and the reduceat)
        # is about half of a call at 16,641 rows on 509 classes: 26-31 us.
        # Measured against it at that size (one BLAS thread), and slower:
        # bincount over the interleaved float view (52-60 us), a scipy CSR
        # matrix-vector product (34 us), and a take padded to the largest
        # class with a sum over rows (53 us).
        L = e.rule.L
        cl = e.classes
        sums = np.add.reduceat(model.theta.take(cl.order), cl.starts)
        if len(sums) == L:
            b = sums
        else:
            b = np.zeros(L, dtype=np.complex128)
            b[cl.occupied] = sums
        # conj b_{-r}, then 2 h and 2 b': the bounds and the terms take
        # the factors of 2, which are exact
        bn = b[e.neg]
        np.conjugate(bn, out=bn)
        h2 = b - bn
        x = h2.view(np.float64)
        if x.dot(x) <= e.real_sq or np.abs(x).sum() <= 2.0 * _IMAG_TOL:
            b += bn
            crs = float(b.dot(e.s_xyz).real) / (2 * L)
            x = b[:L // 2 + 1]
            P = len(e.U)
            if L % 2 == 0 and P > L:
                x[-1] *= 0.5  # the class L/2 stands at L/2 and at -L/2
            B = np.fft.hfft(x, P)
            return float((B * B).dot(e.U)), crs
        if math.sqrt(float(np.vdot(h2, h2).real)) > 2.0 * _IMAG_TOL:
            raise _not_real()
    rule = weights.rule
    f = _node_values(model, rule)
    if float(np.max(np.abs(f.imag))) > _IMAG_TOL:
        raise _not_real()
    fr = f.real
    quad = float((fr * fr) @ weights.w_xz / rule.L)
    crs = float(fr @ weights.w_xyz / rule.L)
    return quad, crs


def _loss_entry(model: TrigModel, weights: WeightSet) -> _LossEntry:
    """The loss entry of the model's support and ``weights``, after the
    checks that the weights are real and share the model's dimension."""
    if not weights.is_real:
        raise ValueError(
            "compressed loss needs real weight vectors; rebuild with a "
            "symmetric index set"
        )
    rule = weights.rule
    if model.d != rule.d:
        raise ValueError(
            f"model has {model.d} coordinates, the weights' rule {rule.d}"
        )
    s_xz, s_xyz = weights._node_spectra()
    key = (weights.w_xz, weights.w_xyz, rule)
    matrix = _loss_matrix(_support(model).freq, rule, s_xz, s_xyz)
    if matrix is not None:
        W, h_weights = matrix
        # n reals in the realness part, against the tolerance
        return _LossEntry(*key, 0.5 * _IMAG_TOL**2 / len(h_weights), W,
                          h_weights)
    L = rule.L
    # 2 L reals in 2 h, against twice the tolerance
    return _LossEntry(
        *key, 0.5 * (2.0 * _IMAG_TOL) ** 2 / (2 * L),
        classes=_node_classes(model, rule),
        neg=(-np.arange(L)) % L,
        U=_loss_kernel(L, s_xz),
        s_xyz=s_xyz,
    )


def _loss_matrix(
    freq: np.ndarray,
    rule: LatticeRule,
    s_xz: np.ndarray,
    s_xyz: np.ndarray,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The compressed loss on the support ``freq`` as one real matrix W
    acting on ``v = theta.view(float64)``, the coefficients' real and
    imaginary parts interleaved.

    With ``phi_j = 2 pi r_j l / L`` for the residue r_j of row j, the
    real part of the model at node l is ``sum_j (Re theta_j cos phi_j -
    Im theta_j sin phi_j)``, and ``sum_l w_l cos phi_j cos phi_k`` is
    ``Re(S[r_j + r_k] + S[r_j - r_k]) / 2``, and so on; so its weighted
    square is ``v . Q v`` and its weighted sum ``c . v``, with Q and c
    read from ``S_xz`` and ``S_xyz`` at the sums and differences of the
    residues (the same terms as ``b - h`` over the classes gives).  The
    rows of W are c, Q and then the realness part, over the classes u
    (the residues the rows occupy together with their negations): ``2
    Re h_u`` on the first class u < L - u of a pair, ``2 Im h_{-u}`` on
    the second, ``Im h_u`` on a class u = -u (mod L), so the 1-norm of
    that part is ``sum_u (|Re h_u| + |Im h_u|)`` over all the classes.
    W has ``(2 M + n + 1) 2 M`` entries for n classes, and is left out
    (None) beyond ``_MATRIX_ENTRIES``; O(M d + M^2) to build, as n <= 2
    M.  Returns W and ``h_weights`` (:class:`_LossEntry`).
    """
    L = rule.L
    M = len(freq)
    P = _kernel_length(L)
    cap = max(_MATRIX_ENTRIES,
              _CALL_ENTRIES + _TERM_ENTRIES * (M + P * math.log2(P)))
    # n >= 1: a support too large for W with one class needs no residues
    if (2 * M + 2) * 2 * M > cap:
        return None
    r = _residues(freq, rule)
    u = _distinct(np.concatenate([r, -r % L]))
    n = len(u)
    if (2 * M + n + 1) * 2 * M > cap:
        return None
    W = np.zeros((2 * M + n + 1, 2 * M))
    W[0] = s_xyz[r].conj().view(np.float64) / L
    plus = s_xz[np.add.outer(r, r) % L]
    minus = s_xz[np.subtract.outer(r, r) % L]
    Q = W[1:2 * M + 1].reshape(M, 2, M, 2)
    Q[:, 0, :, 0] = plus.real + minus.real
    Q[:, 0, :, 1] = minus.imag - plus.imag
    Q[:, 1, :, 0] = -minus.imag - plus.imag
    Q[:, 1, :, 1] = minus.real - plus.real
    Q *= 0.5 / L
    # row j adds its coefficient to the class a_j of its residue; b_j is
    # the class of -r_j, where the same coefficient enters conjugated
    neg = np.searchsorted(u, -u % L)
    k = np.arange(n)
    first, second = k < neg, k > neg
    half = np.where(second, 1.0, np.where(first, 0.0, 0.5))
    a = np.searchsorted(u, r)
    b = neg[a]
    j = np.arange(M)
    E = W[2 * M + 1:].reshape(n, M, 2)
    E[a, j, 0] = first[a]
    E[b, j, 0] -= first[b]
    E[a, j, 1] = half[a]
    E[b, j, 1] += half[b]
    return W, np.where(first | second, 0.5, 1.0)


def _loss_kernel(L: int, s_xz: np.ndarray) -> np.ndarray:
    """The real kernel U that gives the quadratic term from the class
    sums ``b`` of a real model, with no node value made.

    That term is ``sum_{r,s} b_r b_s S_xz[(r + s) mod L] / L``: the
    autoconvolution c of b, ``c_m = sum_{r+s=m} b_r b_s``, summed
    against ``T[m] = S_xz[m mod L]``.  By Parseval, with ``B`` the
    length-P FFT of b, that sum is ``sum_k B_k^2 ifft_P(T)_k / L``.
    When L has no prime factor above 7, P = L and the convolution is
    cyclic, T = S_xz.  Otherwise numpy would take a length-L FFT by
    Bluestein's algorithm, at the cost of two FFTs of length 2L - 1 or
    more, and P is the smallest power of two of at least 2L - 1: b is
    laid out over the residues ``-L/2 <= r <= L/2`` (a class L/2 half at
    each end), so c spans ``-L <= m <= L`` and none of it wraps, with T
    zero beyond.  A real model has ``b_{-r} = conj b_r``, and
    ``S_xz[-m] = conj S_xz[m]`` for real weights, so both B and
    ``ifft_P(T)`` are real and B is one ``hfft`` of the classes ``0 <=
    r <= L/2``.  U holds ``ifft_P(T) / (4 L)``, as :func:`_data_terms`
    transforms ``2 b``.  So a loss costs one fast real FFT of length P =
    O(L); U is made once per support and weight set.
    """
    P = _kernel_length(L)
    if P == L:
        T = s_xz
    else:
        T = np.zeros(P, dtype=np.complex128)
        T[:L + 1] = s_xz[np.arange(L + 1) % L]
        T[P - L:] = T[L:0:-1].conj()
    return np.fft.ifft(T).real / (4 * L)


def _kernel_length(L: int) -> int:
    """The FFT length P of :func:`_loss_kernel`: L when L has no prime
    factor above 7, else the smallest power of two of at least 2L - 1."""
    return L if _smooth(L) else 1 << (2 * L - 2).bit_length()


def _smooth(n: int) -> bool:
    """Whether ``n`` has no prime factor above 7."""
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


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
