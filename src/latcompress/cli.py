"""Command-line interface.

Subcommands: ``cbc`` (construct a generating vector), ``index-set``
(enumerate or size a frequency set), ``compress`` (turn a dataset into
weight vectors), ``eval`` (loss reports from weights), ``verify``
(built-in invariant suites) and ``bench`` (step-cross weight timings).

Exit codes: 0 success, 2 bad input or validation failure, 3 a verify
suite failed, 4 a cardinality cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
import time

import numpy as np

from .analysis import BoundQuery, select_parameter
from .compression import (
    Dataset,
    WeightSet,
    _compress,
    _route_choice,
    weights_step_cross_pair,
)
from .index_sets import DEFAULT_CAP, CapExceeded, IndexSet
from .lattice import LatticeRule, ProductWeights, cbc_construct
from .model import TrigModel, compressed_loss, exact_loss
from .verify import SUITES, run_all

__all__ = ["main", "build_parser", "load_dataset", "save_dataset"]

_DATASET_MAGIC = b"LCD1"


def parse_gamma(spec: str, d: int) -> ProductWeights:
    """Weight grammar: 'one', 'geo:R', 'poly:P', or an explicit list."""
    spec = spec.strip()
    if spec in ("one", "ones"):
        return ProductWeights.ones(d)
    if spec.startswith("geo:"):
        return ProductWeights.geometric(float(spec[4:]), d)
    if spec.startswith("poly:"):
        return ProductWeights.polynomial(float(spec[5:]), d)
    vals = [float(v) for v in spec.split(",") if v.strip()]
    if len(vals) != d:
        raise ValueError(
            f"gamma list has {len(vals)} entries, need {d}"
        )
    return ProductWeights(tuple(vals))


def save_dataset(data: Dataset, path: str) -> None:
    """Write samples in the binary matrix format (magic ``LCD1``)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _DATASET_MAGIC, data.N, data.d))
        rows = np.concatenate([data.X, data.Y[:, None]], axis=1)
        fh.write(rows.astype("<f8").tobytes())


def _load_dataset_binary(path: str) -> Dataset:
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) != 12:
            raise ValueError(f"{path}: truncated header")
        magic, n, d = struct.unpack("<4sII", head)
        if magic != _DATASET_MAGIC:
            raise ValueError(
                f"{path}: bad magic {magic!r}, expected {_DATASET_MAGIC!r}"
            )
        body = fh.read(8 * n * (d + 1))
        if len(body) != 8 * n * (d + 1):
            raise ValueError(f"{path}: truncated payload")
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the payload")
    rows = np.frombuffer(body, dtype="<f8").reshape(n, d + 1)
    return Dataset(rows[:, :d].copy(), rows[:, d].copy())


def _load_dataset_csv(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    rows: list[list[float]] = []
    line_numbers: list[int] = []
    width = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        fields = [f.strip() for f in text.split(",")]
        if width is None:
            width = len(fields)
            try:
                parsed = [float(f) for f in fields]
            except ValueError:
                continue  # header line
        else:
            if len(fields) != width:
                raise ValueError(
                    f"{path}: line {lineno}: {len(fields)} fields, "
                    f"expected {width}"
                )
            parsed = []
            for j, f in enumerate(fields):
                try:
                    parsed.append(float(f))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: field {j + 1} ({f!r}) "
                        f"is not a number"
                    ) from None
        rows.append(parsed)
        line_numbers.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if width is not None and width < 2:
        raise ValueError(
            f"{path}: need at least one coordinate column plus responses"
        )
    for parsed, lineno in zip(rows, line_numbers):
        for j, v in enumerate(parsed[:-1]):
            if not (0.0 <= v < 1.0) or not math.isfinite(v):
                raise ValueError(
                    f"{path}: line {lineno}: coordinate {j + 1} value "
                    f"{v!r} outside [0, 1)"
                )
        if not math.isfinite(parsed[-1]):
            raise ValueError(
                f"{path}: line {lineno}: response {parsed[-1]!r} not finite"
            )
    arr = np.asarray(rows, dtype=np.float64)
    return Dataset(arr[:, :-1], arr[:, -1])


def load_dataset(path: str) -> Dataset:
    """Load samples from CSV (last column the response) or binary
    ``LCD1`` matrix files; the format is sniffed from the content."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _DATASET_MAGIC:
        return _load_dataset_binary(path)
    return _load_dataset_csv(path)


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_rule(args, d: int) -> LatticeRule:
    if getattr(args, "rule", None):
        with open(args.rule, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return LatticeRule.from_json(obj.get("rule", obj))
    if getattr(args, "generator", None):
        if args.modulus is None:
            raise ValueError("--generator needs --modulus")
        g = tuple(int(v) for v in args.generator.split(","))
        return LatticeRule(args.modulus, g)
    if getattr(args, "cbc", False):
        if args.modulus is None:
            raise ValueError("--cbc needs --modulus")
        alpha = args.cbc_alpha if args.cbc_alpha is not None else args.alpha
        return cbc_construct(
            args.modulus, d, alpha, parse_gamma(args.gamma, d)
        )
    raise ValueError(
        "no lattice specified: use --rule, --generator with --modulus, "
        "or --cbc with --modulus"
    )


def _resolve_index_set(args, d: int, cap: int) -> tuple[IndexSet, float]:
    gamma = parse_gamma(args.gamma, d)
    if args.family == "custom":
        if not args.frequencies_file:
            raise ValueError("family custom needs --frequencies-file")
        with open(args.frequencies_file, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
        return IndexSet.custom(np.asarray(rows), args.alpha, gamma), 0.0
    if args.family == "step-cross":
        raw = args.order
        if raw is None:
            raise ValueError("family step-cross needs --order (or 'auto')")
    else:
        raw = args.level
        if raw is None:
            raise ValueError(
                f"family {args.family} needs --level (or 'auto')"
            )
    if raw == "auto":
        q = BoundQuery(
            args.space, args.family, args.alpha, gamma,
            args.modulus_hint, 1.0, 1.0, sigma=args.sigma,
        )
        level = select_parameter(q)
    else:
        level = float(raw)
    if args.family == "cross":
        return IndexSet.cross(
            args.alpha, gamma, level, materialize=False
        ), float(level)
    if args.family == "rectangle":
        return IndexSet.rectangle(
            args.alpha, gamma, level, materialize=False
        ), float(level)
    return IndexSet.step_cross(
        args.alpha, gamma, int(level), materialize=False
    ), float(int(level))


def _cmd_cbc(args) -> int:
    gamma = parse_gamma(args.gamma, args.dim)
    rule = cbc_construct(
        args.modulus, args.dim, args.alpha, gamma,
        fast=not args.standard_scan,
    )
    _emit(rule.to_json(), args.out)
    return 0


def _cmd_index_set(args) -> int:
    args.modulus_hint = args.modulus_hint or 101
    spec, _ = _resolve_index_set(args, args.dim, args.cap_frequencies)
    spec = spec.materialized(args.cap_frequencies)
    obj = spec.to_json()
    if args.frequencies and spec.family != "custom":
        obj["frequencies"] = spec.frequencies.tolist()
    _emit(obj, args.out)
    return 0


def _cmd_compress(args) -> int:
    data = load_dataset(args.data)
    rule = _resolve_rule(args, data.d)
    args.modulus_hint = rule.L
    spec, level = _resolve_index_set(args, data.d, args.cap_frequencies)
    # priced once: compress takes the route and general-FFT's split
    priced = _route_choice(data.N, rule, spec, args.cap_frequencies)
    route_choice = priced[0]
    start = time.perf_counter()
    ws = _compress(
        data, rule, spec, args.algorithm, args.threads,
        args.cap_frequencies, priced,
    )
    seconds = time.perf_counter() - start
    ws.save(args.out, sidecar=args.sidecar)
    _emit(
        {
            "out": args.out,
            "rule": rule.to_json(),
            "index_set": ws.index_set.to_json(),
            "algorithm": ws.algorithm,
            "route_choice": route_choice,
            "level": level,
            "count": ws.index_set.count,
            "N": data.N,
            "L": rule.L,
            "seconds": seconds,
        },
        None,
    )
    return 0


def _cmd_eval(args) -> int:
    model = TrigModel.load(args.model)
    ws = WeightSet.load(args.weights)
    approx = compressed_loss(
        model, ws, lam=args.lam, reg=args.reg, mix=args.mix
    )
    report = {"compressed": approx.to_json()}
    if args.data:
        data = load_dataset(args.data)
        exact = exact_loss(
            model, data, lam=args.lam, reg=args.reg, mix=args.mix
        )
        report["exact"] = exact.to_json()
        report["gap"] = abs(exact.value - approx.value)
    _emit(report, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.inject_fault and args.suite not in ("all", "oracle"):
        raise ValueError(
            f"--inject-fault perturbs the oracle suite; "
            f"--suite {args.suite} would run without it"
        )
    if args.suite == "all":
        results = run_all(
            args.seed, inject_fault=args.inject_fault,
            threads=args.threads,
        )
    elif args.suite == "oracle":
        results = [
            SUITES["oracle"](
                args.seed, inject_fault=args.inject_fault,
                threads=args.threads,
            )
        ]
    elif args.suite == "envelope":
        results = [SUITES["envelope"](args.seed, threads=args.threads)]
    else:
        results = [SUITES[args.suite](args.seed)]
    passed = all(r["passed"] for r in results)
    _emit({"passed": passed, "suites": results}, args.out)
    return 0 if passed else 3


def _coprime_generator(rng, L: int, d: int) -> tuple[int, ...]:
    pool = [a for a in range(1, L) if math.gcd(a, L) == 1]
    if len(pool) < d:
        raise ValueError(
            f"only {len(pool)} residues coprime to {L}, need {d}"
        )
    pick = rng.choice(len(pool), size=d, replace=False)
    return tuple(pool[i] for i in pick)


def _cmd_bench(args) -> int:
    lines = ["d,L,m,seconds,shape_count"]
    for d in range(2, 9):
        rng_data = np.random.default_rng([args.seed, 17, d])
        data = Dataset(
            rng_data.random((1000, d)), rng_data.standard_normal(1000)
        )
        gamma = ProductWeights.ones(d)
        for L in (32, 64, 128):
            rng_g = np.random.default_rng([args.seed, 23, d, L])
            rule = LatticeRule(L, _coprime_generator(rng_g, L, d))
            for m in (2, 4, 6):
                spec = IndexSet.step_cross(
                    1.001, gamma, m, materialize=False
                )
                start = time.perf_counter()
                weights_step_cross_pair(
                    data, rule, spec, threads=args.threads
                )
                seconds = time.perf_counter() - start
                shapes = math.comb(d - 1 + m, d - 1)
                lines.append(f"{d},{L},{m},{seconds:.6f},{shapes}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for anything randomised")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads (results are identical)")
    sub.add_argument("--cap-frequencies", type=int, default=DEFAULT_CAP,
                     help="largest index-set cardinality tolerated")
    sub.add_argument("--out", default=None, help="output file")


def _add_space_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True,
                     help="smoothness parameter")
    sub.add_argument("--gamma", default="one",
                     help="weights: one | geo:R | poly:P | v1,v2,...")


def _add_set_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True,
                     choices=["cross", "rectangle", "step-cross", "custom"])
    sub.add_argument("--level", default=None,
                     help="level nu for cross/rectangle, or 'auto'")
    sub.add_argument("--order", default=None,
                     help="order m for step-cross, or 'auto'")
    sub.add_argument("--frequencies-file", default=None,
                     help="JSON rows for family custom")
    sub.add_argument("--space", default="wiener",
                     choices=["wiener", "korobov"],
                     help="norm used when a level is chosen automatically")
    sub.add_argument("--sigma", type=float, default=0.01,
                     help="rate give-up for automatic levels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcompress",
        description="Compress datasets onto rank-1 lattices for fast "
                    "loss evaluation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cbc", help="construct a generating vector")
    _add_common(p)
    _add_space_args(p)
    p.add_argument("--modulus", type=int, required=True,
                   help="prime number of lattice points")
    p.add_argument("--dim", type=int, required=True, help="dimension")
    p.add_argument("--standard-scan", action="store_true",
                   help="use the plain quadratic scan")
    p.set_defaults(func=_cmd_cbc)

    p = subs.add_parser("index-set", help="enumerate a frequency set")
    _add_common(p)
    _add_space_args(p)
    _add_set_args(p)
    p.add_argument("--dim", type=int, required=True, help="dimension")
    p.add_argument("--frequencies", action="store_true",
                   help="include the rows in the output")
    p.add_argument("--modulus-hint", type=int, default=None,
                   help="lattice size assumed by automatic levels")
    p.set_defaults(func=_cmd_index_set)

    p = subs.add_parser("compress", help="compress a dataset to weights")
    _add_common(p)
    _add_space_args(p)
    _add_set_args(p)
    p.add_argument("--data", required=True, help="CSV or LCD1 dataset")
    p.add_argument("--rule", default=None, help="lattice rule JSON file")
    p.add_argument("--modulus", type=int, default=None,
                   help="lattice size for --generator or --cbc")
    p.add_argument("--generator", default=None,
                   help="comma-separated generating vector")
    p.add_argument("--cbc", action="store_true",
                   help="construct the rule on the fly")
    p.add_argument("--cbc-alpha", type=float, default=None,
                   help="smoothness for --cbc (defaults to --alpha)")
    p.add_argument("--algorithm", default="auto",
                   choices=["auto", "naive", "general-fft", "rectangle",
                            "step-cross"])
    p.add_argument("--sidecar", action="store_true",
                   help="write weights to a binary .w64 sidecar")
    p.set_defaults(func=_cmd_compress)
    # compress writes the weight file to --out
    p.set_defaults(out_required=True)

    p = subs.add_parser("eval", help="evaluate losses from weights")
    _add_common(p)
    p.add_argument("--model", required=True, help="trig-model JSON file")
    p.add_argument("--weights", required=True, help="weight-set file")
    p.add_argument("--data", default=None,
                   help="dataset for the exact loss and the gap")
    p.add_argument("--reg", default="none",
                   choices=["none", "best_subset", "lasso", "ridge",
                            "elastic"])
    p.add_argument("--lam", type=float, default=0.0,
                   help="regularisation strength")
    p.add_argument("--mix", type=float, default=None,
                   help="elastic mixing parameter")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("verify", help="run the invariant suites")
    _add_common(p)
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(SUITES))
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one weight to prove the oracle catches it "
                        "(oracle and all only)")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("bench", help="time step-cross weight builds")
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_required", False) and not args.out:
        parser.error("compress needs --out for the weight file")
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
