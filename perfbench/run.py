#!/usr/bin/env python3
"""Benchmark of latcompress: one workload, from one seed, in one run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-2d --seed 1 --seconds 5 --trace 0

The run drives the program through its public functions (rule, weights,
compressed and exact losses) and through its command line (``cbc``,
``compress``, ``eval``), checks every output against computations made
apart from the program (``checks.py``) and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, taken from
spans the run records around its calls into each module, plus the
tracing overhead.  Spans are written to ``.perfbench/`` when the run
ends.  See README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

# One thread everywhere: the machine has two shared cores, and BLAS or
# OpenMP pools sized to them make timings depend on the neighbours.  Set
# before numpy starts its pools.
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(SINGLE_THREAD)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 120.0
MIN_TIMED_S = 2.0         # a short operation repeats until this much time
LOSS_CHUNK_S = 0.25       # loss throughput is the median over chunks this long
EVAL_ROUNDS = 8           # rounds of eval_model_on_lattice in a library pass
CHECK_NODES = 64          # nodes compared one by one when L |K| is large
CHECK_CHARS = 8           # node projections compared
ALL_NODES_WORK = 20_000_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_child(argv: list, workdir: Path) -> tuple[float, str, float]:
    """Run argv to its end: (wall seconds, stdout, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{' '.join(map(str, argv[1:4]))} exited {proc.returncode}: {tail}")
    return wall, out_path.read_text(), usage.ru_maxrss / 1024.0


class Run:
    """State of one benchmark run: inputs, program objects, measurements."""

    def __init__(self, args, lc, workdir: Path):
        self.args, self.lc, self.workdir = args, lc, workdir
        self.w = w = workloads.WORKLOADS[args.workload]
        self.tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        self.checker = checks.Checker()
        self.metrics: dict[str, float] = {}
        self.inputs = workloads.make_inputs(w, args.seed)
        self.data = lc.Dataset(self.inputs.X, self.inputs.Y)
        self.plan = workloads.plan(w, lc)
        self.lazy = workloads.index_set(w, self.plan, lc)
        self.gamma = lc.ProductWeights(w.gamma)
        self.truth = lc.TrigModel(self.inputs.freq, self.inputs.truth)
        self.models = [lc.TrigModel(self.inputs.freq, th) for th in self.inputs.sequence]
        self.loss_kw = {"lam": w.lam, "reg": w.reg, "mix": w.mix}
        self.loss_values: list = []   # (model index array, values) per loop
        self.pass_weights: list = []  # weights built in each library pass
        self.cli_outputs: list = []   # (rule, weights, loss) per command-line path
        self.paths: list = []         # what each library-path process reported
        self.loss_rates: list = []    # calls per second of each loss stretch
        self.exact_times: list = []
        self.cli_walls: list = []
        self.cli_rss: list = []
        self.rng = np.random.default_rng([args.seed, 7])

    # -- library path, each time in a fresh process ----------------------

    def library_path(self, i: int) -> None:
        """Set-up and the library path in fresh process number ``i``."""
        weights = self.workdir / f"weights-{i}.json"
        argv = [sys.executable, str(HERE / "libpath.py"), self.w.name,
                str(self.args.seed), str(weights)] + (["plain"] if i == 0 else [])
        with self.tracer.span("libpath"):
            _, out, _ = run_child(argv, self.workdir)
            path = json.loads(out.strip().splitlines()[-1])
            for name, start, end in path["spans"]:
                self.tracer.add(name, start, end)
        path["weights"] = self.lc.WeightSet.load(str(weights))
        self.paths.append(path)
        if i == 0:
            self.rule = self.lc.LatticeRule(self.w.L, path["g"])
            self.ws = path["weights"]

    def library_metrics(self) -> None:
        """Medians over the library-path processes."""
        med = statistics.median
        for name in ("setup_s", "compress_s", "api_s", "peak_rss_mb"):
            self.metrics[name] = med(p[name] for p in self.paths)
        spans = [{n: e - s for n, s, e in p["spans"]} for p in self.paths]
        self.metrics["lattice.phi_table_s"] = med(
            s["lattice.cbc_cold"] - s["lattice.cbc_warm"] for s in spans)
        self.metrics["lattice.cbc_scan_s"] = med(s["lattice.cbc_warm"] for s in spans)

    # -- compressed and exact losses in this process ---------------------

    def loss_loop(self, tracer, ws, rounds=None, seconds=0.0) -> list[float]:
        """compressed_loss over the model sequence, in whole rounds.

        Runs ``rounds`` rounds, or whole rounds until ``seconds`` have
        passed.  Keeps every value for the checks; returns the call rate
        of each stretch of at least ``LOSS_CHUNK_S``.
        """
        lc = self.lc
        values, rates = [], []
        done = calls = 0
        start = chunk = time.perf_counter()
        while True:
            for model in self.models:
                with tracer.span("model.compressed_loss"):
                    values.append(lc.compressed_loss(model, ws, **self.loss_kw).value)
            done += 1
            calls += len(self.models)
            now = time.perf_counter()
            if now - chunk >= LOSS_CHUNK_S:
                rates.append(calls / (now - chunk))
                calls, chunk = 0, now
            if done == rounds or (rounds is None and now - start >= seconds):
                break
        index = np.tile(np.arange(len(self.models)), done)
        self.loss_values.append((index, np.array(values)))
        self.loss_rounds = done
        return rates

    def end_to_end(self) -> None:
        """The untraced run, with each metric's samples spread over it.

        The machine's speed swings by a quarter within seconds and by
        about a tenth between minutes, so the library-path processes and
        the command-line paths alternate, and after each of them comes a
        stretch of the loss loop and of exact losses; every metric is the
        median over the whole run.
        """
        w = self.w
        steps = w.libpath_runs + w.cli_runs
        cli_steps = {round((i + 0.5) * steps / w.cli_runs) for i in range(w.cli_runs)}
        untraced = tracing.NullTracer()
        for step in range(steps):
            if step in cli_steps:
                self.cli_path()
            else:
                self.library_path(len(self.paths))
            if step == 0:
                self.loss_loop(untraced, self.ws, rounds=1)   # warm-up
            self.loss_rates += self.loss_loop(untraced, self.ws,
                                              seconds=self.args.seconds / steps)
            self.exact(MIN_TIMED_S * (step + 1) / steps)
        self.library_metrics()
        self.metrics["loss_evals_per_s"] = statistics.median(self.loss_rates)

    def exact(self, until: float) -> None:
        """exact_loss of the reference model until ``until`` seconds in all."""
        while not self.exact_times or sum(self.exact_times) < until:
            with self.tracer.span("model.exact_loss"):
                t0 = time.perf_counter()
                self.exact_report = self.lc.exact_loss(self.truth, self.data, **self.loss_kw)
                self.exact_times.append(time.perf_counter() - t0)
        self.metrics["exact_s"] = statistics.median(self.exact_times)
        self.metrics["loss_gap"] = abs(self.paths[0]["ref_loss"] - self.exact_report.value)

    def bound_inputs(self) -> None:
        """Norms and mean response the envelope needs (bounded workloads)."""
        lc = self.lc
        if self.plan.query is None:
            return
        self.norm_f = lc.wiener_norm(self.truth, self.w.alpha, self.gamma)
        self.norm_f2 = lc.wiener_norm(lc.model_squared(self.truth), self.w.alpha, self.gamma)
        self.mu_y = float(np.mean(np.abs(self.inputs.Y)))

    # -- per-layer figures -------------------------------------------------

    def library_pass(self, tracer, rounds=None) -> float:
        """One call into each module's public functions; returns the wall.

        Run once untraced and once traced; the difference of the two
        walls is the tracing overhead.
        """
        lc = self.lc
        start = time.perf_counter()
        with tracer.span("analysis.select"):
            if self.plan.query is not None:
                lc.select_parameter(self.plan.query)
                lc.loss_gap_envelope(self.plan.query, self.plan.level,
                                     self.norm_f, self.norm_f2, self.mu_y)
        with tracer.span("index_sets.enumerate"):
            full = self.lazy.materialized()
        if tracer.enabled:
            tracemalloc.start()
        with tracer.span("compression.weights"):
            ws = lc.compress(self.data, self.rule, full, algorithm="auto", threads=1)
        if tracer.enabled:
            self.metrics["compression.alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        for _ in range(EVAL_ROUNDS):
            for model in self.models:
                with tracer.span("model.lattice_eval"):
                    lc.eval_model_on_lattice(model, self.rule)
        self.loss_loop(tracer, ws, rounds=rounds, seconds=self.args.seconds)
        with tracer.span("model.eval_model"):
            lc.eval_model(self.truth, self.data.X)
        self.pass_weights.append(ws)
        return time.perf_counter() - start

    def per_layer(self) -> None:
        """The traced run: per-layer figures and the tracing overhead."""
        for r in range(self.w.libpath_runs):
            self.library_path(r)
        self.library_metrics()
        untraced = self.library_pass(tracing.NullTracer())
        with self.tracer.span("library_pass"):
            traced = self.library_pass(self.tracer, rounds=self.loss_rounds)
        self.metrics["trace.overhead_s"] = traced - untraced
        self.overhead = (traced, untraced)
        d = self.tracer.durations
        losses = np.array(d("model.compressed_loss")) * 1e6
        self.metrics.update({
            "analysis.select_s": d("analysis.select")[0],
            "index_sets.enumerate_s": d("index_sets.enumerate")[0],
            "compression.weights_s": d("compression.weights")[0],
            "model.lattice_eval_us": statistics.median(d("model.lattice_eval")) * 1e6,
            "model.loss_us_p50": float(np.percentile(losses, 50)),
            "model.loss_us_p99": float(np.percentile(losses, 99)),
            "model.eval_model_s": d("model.eval_model")[0],
        })
        self.exact(MIN_TIMED_S)
        self.cli_path()
        with self.tracer.span("cli.import"):
            wall, _, _ = run_child([sys.executable, "-c", "import latcompress.cli"], self.workdir)
        self.metrics["cli.import_s"] = wall

    # -- command line ------------------------------------------------------

    def cli_path(self) -> None:
        """cbc -> compress -> eval as subprocesses, dataset in LCD1 form."""
        if not self.cli_outputs:
            self.write_cli_inputs()
        files = self.cli_files
        start = time.perf_counter()
        for name, argv in self.cli_steps:
            with self.tracer.span(name):
                wall, out, peak = run_child(argv, self.workdir)
            self.metrics[name + "_s"] = wall
            self.cli_rss.append(peak)
        self.cli_walls.append(time.perf_counter() - start)
        self.cli_outputs.append((
            self.lc.LatticeRule.load(str(files["rule.json"])),
            self.lc.WeightSet.load(str(files["weights.json"])),
            json.loads(out)["compressed"]["value"],
        ))
        self.metrics["cli_s"] = statistics.median(self.cli_walls)
        self.metrics["cli.peak_rss_mb"] = max(self.cli_rss)
        self.metrics["cli.weights_bytes"] = float(files["weights.json"].stat().st_size)

    def write_cli_inputs(self) -> None:
        """The dataset file, the model file and the three command lines."""
        w = self.w
        files = {k: self.workdir / k for k in ("data.lcd", "model.json", "rule.json", "weights.json")}
        with open(files["data.lcd"], "wb") as fh:
            fh.write(struct.pack("<4sII", b"LCD1", self.data.N, self.data.d))
            rows = np.concatenate([self.inputs.X, self.inputs.Y[:, None]], axis=1)
            fh.write(rows.astype("<f8").tobytes())
        theta = np.stack([self.inputs.truth, np.zeros(len(self.inputs.truth))], axis=1)
        with open(files["model.json"], "w", encoding="utf-8") as fh:
            json.dump({"format": "trig-model", "version": 1,
                       "frequencies": self.inputs.freq.tolist(),
                       "theta": theta.ravel().tolist()}, fh)
        gamma = ",".join(repr(v) for v in w.gamma)
        if w.family == "step-cross":
            set_args = ["--family", "step-cross", "--order", str(self.plan.level)]
        else:
            set_args = ["--family", w.family, "--level", repr(self.plan.level)]
        mix = [] if w.mix is None else ["--mix", repr(w.mix)]
        base = [sys.executable, "-m", "latcompress.cli"]
        self.cli_files = files
        self.cli_steps = [
            ("cli.cbc", base + ["cbc", "--modulus", str(w.L), "--dim", str(w.d),
                                "--alpha", repr(self.plan.cbc_alpha), "--gamma", gamma,
                                "--out", str(files["rule.json"])]),
            ("cli.compress", base + ["compress", "--data", str(files["data.lcd"]),
                                     "--rule", str(files["rule.json"]),
                                     "--alpha", repr(w.alpha), "--gamma", gamma, *set_args,
                                     "--threads", "1", "--out", str(files["weights.json"])]),
            ("cli.eval", base + ["eval", "--model", str(files["model.json"]),
                                 "--weights", str(files["weights.json"]),
                                 "--reg", w.reg, "--lam", repr(w.lam), *mix]),
        ]

    # -- checks ------------------------------------------------------------

    def check(self) -> None:
        """Compare every output with computations made apart from the program."""
        lc, w = self.lc, self.w
        rec = self.checker.record
        g, L = self.rule.g, w.L
        ref_loss = self.paths[0]["ref_loss"]
        rec("lattice.fast_equals_plain", tuple(self.paths[0]["g_plain"]) == g,
            f"plain scan {self.paths[0]['g_plain']} vs fast {list(g)}")
        for p in self.paths[1:]:
            same = (tuple(p["g"]) == g and p["ref_loss"] == ref_loss
                    and all(np.array_equal(getattr(p["weights"], n), getattr(self.ws, n))
                            for n in ("w_xz", "w_xyz")))
            rec("libpath.repeatable", same, "library-path processes disagree")

        # Weights: the full dataset where direct sums are cheap, else a
        # subsample compressed through the same route.
        freq = checks.enumerate_set(w.family, w.alpha, w.gamma, self.plan.level)
        rec("index_sets.count", len(freq) == self.ws.index_set.count,
            f"{self.ws.index_set.count} rows reported, {len(freq)} by definition")
        if w.check_samples is None:
            X, Y, ws = self.inputs.X, self.inputs.Y, self.ws
        else:
            pick = np.sort(self.rng.choice(w.N, size=w.check_samples, replace=False))
            X, Y = self.inputs.X[pick], self.inputs.Y[pick]
            ws = lc.compress(lc.Dataset(X, Y), self.rule, self.lazy, algorithm="auto", threads=1)
        rec("compression.route", ws.algorithm == self.ws.algorithm,
            f"subsample took {ws.algorithm}, full data {self.ws.algorithm}")
        phi = checks.fourier_data(X, np.stack([np.ones(len(Y)), Y], axis=1), freq)
        if L * len(freq) <= ALL_NODES_WORK:
            picked = np.arange(L)
        else:
            picked = np.sort(self.rng.choice(L, size=CHECK_NODES, replace=False))
        chars = np.concatenate([[0], self.rng.choice(np.arange(1, L), CHECK_CHARS - 1,
                                                     replace=False)])
        for i, name in enumerate(("w_xz", "w_xyz")):
            miss = checks.weights_miss(getattr(ws, name), phi[:, i], freq, L, g, picked, chars)
            rec(f"compression.{name}", not miss, miss)
        for other in self.pass_weights:
            same = all(checks.close_arrays(getattr(other, n), getattr(self.ws, n))
                       for n in ("w_xz", "w_xyz"))
            rec("compression.materialized_set", same, "weights differ from the lazy set's")

        # Losses: model values summed directly, at the samples and nodes.
        mean_y2 = float(np.mean(self.inputs.Y ** 2))
        f = checks.model_values(self.inputs.freq, self.inputs.truth[None, :], self.inputs.X)[:, 0]
        pen = checks.penalty(self.inputs.truth, w.reg, w.mix)
        value, scale = checks.loss_terms(f.real, 1.0, self.inputs.Y, mean_y2, pen, w.lam)
        rec("model.exact_loss", checks.close(self.exact_report.value, value, scale),
            f"{self.exact_report.value!r} vs {value!r}")
        thetas = np.concatenate([self.inputs.truth[None, :], self.inputs.sequence])
        fz = checks.model_values(self.inputs.freq, thetas, checks.nodes(L, g)).real
        expected, scales = np.array([
            checks.loss_terms(fz[:, s], self.ws.w_xz, self.ws.w_xyz, mean_y2,
                          checks.penalty(theta, w.reg, w.mix), w.lam)
            for s, theta in enumerate(thetas)]).T
        rec("model.compressed_loss.reference", checks.close(ref_loss, expected[0], scales[0]),
            f"{ref_loss!r} vs {expected[0]!r}")
        for index, values in self.loss_values:
            self.checker.record_each(
                "model.compressed_loss",
                np.abs(values - expected[1:][index]) <= checks.REL_TOL * scales[1:][index])

        # Command line against the library path.
        for rule, weights, loss in self.cli_outputs:
            rec("cli.rule", rule.g == g, f"{rule.g} vs {g}")
            same = all(np.array_equal(getattr(weights, n), getattr(self.ws, n))
                       for n in ("w_xz", "w_xyz"))
            rec("cli.weights", same, "weight file differs from the library's vectors")
            rec("cli.eval", checks.close(loss, ref_loss, scales[0]), f"{loss!r} vs {ref_loss!r}")

        # Properties of the method.
        gap = abs(ref_loss - self.exact_report.value)
        if self.plan.query is not None:
            env = lc.loss_gap_envelope(self.plan.query, self.plan.level,
                                       self.norm_f, self.norm_f2, self.mu_y)
            rec("analysis.envelope", gap <= env.total, f"gap {gap:.3e} above {env.total:.3e}")
        if checks.alias_free(freq, L, g):
            for c in (1.0, -2.5):
                const = lc.TrigModel(np.zeros((1, w.d), dtype=np.int64), [c])
                gap_c = abs(lc.exact_loss(const, self.data).value
                            - lc.compressed_loss(const, self.ws).value)
                rec("model.constant_exact", gap_c <= 1e-10, f"constant {c}: gap {gap_c:.2e}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latcompress" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # Byte-compile up front so that no timed import pays for compilation.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    sys.path.insert(0, str(SRC))
    import latcompress as lc

    if Path(lc.__file__).resolve().parent != SRC / "latcompress":
        print(f"error: imported latcompress from {lc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, lc, workdir)
        run.bound_inputs()
        if args.trace:
            run.per_layer()
        else:
            run.end_to_end()
        run.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for miss in run.checker.misses:
        print(f"check failed: {miss}", file=sys.stderr)
    metrics = {}
    for m in declared:
        value = float(run.metrics[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} seed {args.seed}: {m['name']} = {value:.6g} {m['unit']}")
    if args.trace:
        traced, untraced = run.overhead
        print(f"{args.workload} seed {args.seed}: tracing overhead "
              f"{traced - untraced:+.4f} s on a {untraced:.4f} s library pass")
        run.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed,
                          "traced_pass_s": traced, "untraced_pass_s": untraced})
    print(json.dumps({
        "correct": run.checker.failed == 0,
        "attempted": run.checker.attempted,
        "failed": run.checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
