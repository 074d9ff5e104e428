"""The library path in a fresh process, as every `cbc` process starts.

Usage: python3 perfbench/libpath.py <workload> <seed> <weights-file> [plain]
(with src on PYTHONPATH).  It imports the program, generates the
workload's inputs from the seed, runs ``select_parameter`` where the
bounds apply and ``cbc_construct`` with a cold phi table: that is the
set-up.  It then goes on along the library path (rule -> weights ->
compressed loss of the reference model), saves the weights, and builds
the rule once more with the phi table warm (and, given ``plain``, with
the plain scan too).  It prints one JSON object with the times, the
peak RSS of the library path, the generating vectors, the reference
loss and its spans.
"""

import json
import resource
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import latcompress as lc
    import workloads

    imported = time.perf_counter()
    w = workloads.WORKLOADS[sys.argv[1]]
    inputs = workloads.make_inputs(w, int(sys.argv[2]))
    data = lc.Dataset(inputs.X, inputs.Y)
    generated = time.perf_counter()
    plan = workloads.plan(w, lc)
    lazy = workloads.index_set(w, plan, lc)
    gamma = lc.ProductWeights(w.gamma)
    truth = lc.TrigModel(inputs.freq, inputs.truth)
    planned = time.perf_counter()
    rule = lc.cbc_construct(w.L, w.d, plan.cbc_alpha, gamma)
    cold = time.perf_counter()
    ws = lc.compress(data, rule, lazy, algorithm="auto", threads=1)
    compressed = time.perf_counter()
    ref = lc.compressed_loss(truth, ws, lam=w.lam, reg=w.reg, mix=w.mix)
    done = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lc.cbc_construct(w.L, w.d, plan.cbc_alpha, gamma)
    warm = time.perf_counter()
    ws.save(sys.argv[3])
    plain = None
    if sys.argv[4:] == ["plain"]:
        plain = list(lc.cbc_construct(w.L, w.d, plan.cbc_alpha, gamma, fast=False).g)
    print(json.dumps({
        "setup_s": cold - start,
        "compress_s": compressed - cold,
        "api_s": done - planned,
        "peak_rss_mb": peak_mb,
        "g": list(rule.g),
        "g_plain": plain,
        "ref_loss": ref.value,
        "spans": [
            ("libpath.import", start, imported),
            ("libpath.inputs", imported, generated),
            ("libpath.select", generated, planned),
            ("lattice.cbc_cold", planned, cold),
            ("libpath.compress", cold, compressed),
            ("libpath.compressed_loss", compressed, done),
            ("lattice.cbc_warm", done, warm),
        ],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
