"""decoybb84 benchmark: one workload per invocation, from the checkout's src/.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {coverage,scan,keyrun} --seed N \
        --seconds S --trace {0,1}

Set-up (importing the package and building the workload's parameters) is timed
in this process and in fresh child interpreters, and its median is reported.
Then the hashing layer is checked against its reference construction and test
vectors, and the workload runs batches of ops until ``--seconds`` have passed.
Every op output is checked; an op that raises or fails its check counts as
failed and the run carries on.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each batch
plain and then traced (same inputs), reports the per-layer metrics from the
traced ops, the tracing overhead, and writes the spans to perfbench/out/.
The metric names and units printed on the last line are those listed in
BENCHMARK.json; the human-readable lines before it carry the rest.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
LAYERS = (
    "numerics", "decoy", "keylength", "hashing", "protocol", "simulator", "optimizer", "config",
)
THROUGHPUT_NAMES = {"coverage": "trials_per_s", "scan": "points_per_s", "keyrun": "key_bits_per_s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def setup(workload: str, seed: int):
    """Import the package from the checkout and build the workload; returns
    the workload and the seconds this took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import decoybb84

    if not Path(decoybb84.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"decoybb84 imported from {decoybb84.__file__}, not from {SRC}")
    import workloads

    instance = workloads.WORKLOADS[workload](seed)
    return instance, time.perf_counter() - start


def probe_setup_s(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, so the import is not cached."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def machine_record(seed: int, workload) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "workload": workload.name,
        "why": " ".join(workload.__doc__.split("Why:", 1)[1].split()),
    }


def git_commit() -> str:
    """The checkout's HEAD commit. The ceiling stops git from reporting the
    commit of a repository that merely contains the checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


# Counts that hooks add at traced call boundaries; reported as 0 when the
# workload never makes the call.
COUNTS = ("simulator.generate_rounds.rounds", "hashing.hash_bits.bits_in",
          "hashing.hash_bits.conv_ops_computed", "protocol.accepted", "optimizer.feasible")


def computed_conv_ops(in_len: int, out_len: int) -> float:
    """Operation count of one Toeplitz product, derived from sizes, not
    measured: in_len * out_len on the direct path, nfft * log2(nfft) on the
    FFT path, which hashing takes when seed_len * in_len exceeds 2**22."""
    if out_len == 0:
        return 0.0
    seed_len = in_len + out_len - 1
    if seed_len * in_len <= 1 << 22:
        return float(in_len * out_len)
    nfft = 1 << (seed_len + in_len - 2).bit_length()
    return nfft * math.log2(nfft)


def make_hooks():
    def add(counts, name, value):
        counts[name] = counts.get(name, 0) + value

    def generate_rounds(args, kwargs, result, counts):
        add(counts, "simulator.generate_rounds.rounds", len(result))

    def hash_bits(args, kwargs, result, counts):
        seed = args[0] if args else kwargs["seed"]
        add(counts, "hashing.hash_bits.bits_in", seed.in_len)
        add(counts, "hashing.hash_bits.conv_ops_computed",
            computed_conv_ops(seed.in_len, seed.out_len))

    def run_protocol(args, kwargs, result, counts):
        add(counts, "protocol.accepted", result.outcome == "key")

    def evaluate(args, kwargs, result, counts):
        add(counts, "optimizer.feasible", result[1] is not None)

    return {
        "simulator.generate_rounds": generate_rounds,
        "hashing.hash_bits": hash_bits,
        "protocol.run_protocol": run_protocol,
        "optimizer.evaluate": evaluate,
    }


class Row(NamedTuple):
    label: str
    seconds: float
    traced: bool
    verdict: object


def run_batches(instance, seconds: float, tracer=None) -> List[Row]:
    """Run batches until ``seconds`` have passed; one row per op run."""
    rows = []
    start = time.perf_counter()
    k = 0
    while True:
        ops = instance.batch(k)
        # Traced runs alternate which of the plain and traced passes goes first,
        # so warm-up does not bias the overhead ratio.
        phases = (False,) if tracer is None else ((False, True), (True, False))[k % 2]
        for traced in phases:
            outputs, times = [], []
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.op(len(rows) + i):
                            outputs.append(op())
                    else:
                        outputs.append(op())
                except Exception as exc:  # a failed op is counted, the run goes on
                    outputs.append(exc)
                times.append(time.perf_counter() - t0)
            for op, dt, verdict in zip(ops, times, instance.check(outputs)):
                rows.append(Row(op.label, dt, traced, verdict))
        k += 1
        if time.perf_counter() - start >= seconds:
            return rows


def end_to_end_metrics(instance, rows, setup_samples):
    plain = [r for r in rows if not r.traced]
    seconds = [r.seconds for r in plain]
    failed = sum(not r.verdict.ok for r in plain)
    work = sum(r.verdict.work for r in plain if r.verdict.ok)
    return {
        "work_per_s": (work / sum(seconds), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_frac": (1.0 - failed / len(plain), "ratio"),
    }, {
        THROUGHPUT_NAMES[instance.name]: (work / sum(seconds), f"{instance.unit}/s"),
        "run_s_p50" if instance.name == "keyrun" else "op_s_p50": (statistics.median(seconds), "s"),
        "failed_frac": (failed / len(plain), "ratio"),
        "ops": (len(plain), "count"),
    }


def per_layer_metrics(tracer, rows):
    stats, counts = tracer.stats, tracer.counts
    wall = tracer.traced_wall_s
    out = {}
    for layer in LAYERS:
        names = [n for n in stats if n.split(".", 1)[0] == layer]
        self_s = sum(stats[n][2] for n in names)
        out[f"{layer}.calls"] = (sum(stats[n][0] for n in names), "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.self_frac"] = (self_s / wall, "ratio")
    for name in stats:
        out[f"{name}.calls"] = (stats[name][0], "count")
        out[f"{name}.self_s"] = (stats[name][2], "s")
        out[f"{name}.total_s"] = (stats[name][1], "s")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")

    def share(hits, calls):
        return hits / calls if calls else 0.0

    # Verification hashes both keys inside verify_keys; privacy amplification
    # hashes Alice's key inside privacy_amplify and Bob's in run_protocol.
    edge_s = tracer.edge_s
    out["hashing.verification_s"] = (stats["hashing.verify_keys"][1], "s")
    out["hashing.amplification_s"] = (
        stats["hashing.privacy_amplify"][1]
        + edge_s.get(("protocol.run_protocol", "hashing.hash_bits"), 0.0), "s")
    out["protocol.accept_frac"] = (
        share(counts.get("protocol.accepted", 0), stats["protocol.run_protocol"][0]), "ratio")
    out["optimizer.feasible_frac"] = (
        share(counts.get("optimizer.feasible", 0), stats["optimizer.evaluate"][0]), "ratio")
    plain_s = sum(r.seconds for r in rows if not r.traced)
    traced_s = sum(r.seconds for r in rows if r.traced)
    out["trace.overhead"] = (traced_s / plain_s, "ratio")
    return out


def select(metrics, listed):
    """The metrics BENCHMARK.json lists, with the units it gives."""
    chosen = {}
    for entry in listed:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"metric {name} listed in BENCHMARK.json is not measured")
        value, unit = metrics[name]
        if unit != entry["unit"]:
            raise BenchError(f"metric {name} has unit {unit}, BENCHMARK.json says {entry['unit']}")
        chosen[name] = {"value": value, "unit": unit}
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(THROUGHPUT_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this interpreter, print it and exit")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))

    instance, first_setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(first_setup_s))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_samples = [first_setup_s] + [
        probe_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]

    import numpy as np
    import workloads

    machine = machine_record(args.seed, instance)
    print(f"workload {instance.name}: {machine['why']}")
    print("machine " + json.dumps(machine, sort_keys=True))
    vector_text = (ROOT / "tests" / "data" / "toeplitz_vectors.txt").read_text()
    t0 = time.perf_counter()
    problems = workloads.check_hashing(vector_text, np.random.default_rng([args.seed, 2**31]))
    check_s = time.perf_counter() - t0
    print(f"pre-timing hashing checks: {'ok' if not problems else 'FAILED'}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        modules = {layer: importlib.import_module(f"decoybb84.{layer}") for layer in LAYERS}
        tracer = Tracer(modules, make_hooks())
    rows = run_batches(instance, args.seconds, tracer)
    # A failed pre-timing check counts as one failed op.
    if problems:
        rows.append(Row("pre-timing hashing check", check_s, False,
                        workloads.Verdict(False, 0, "; ".join(problems))))

    failures = [f"{r.label}{' (traced)' if r.traced else ''}: {r.verdict.note}"
                for r in rows if not r.verdict.ok]
    for failure in failures:
        print(f"failed op {failure}")
    # An op that raised is a failure, not a wrong output.
    correct = all(r.verdict.ok or r.verdict.raised for r in rows)
    e2e, extra = end_to_end_metrics(instance, rows, setup_samples)
    shown = {**e2e, **extra}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{instance.name}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = select(e2e, spec["end_to_end"])
    else:
        layer = per_layer_metrics(tracer, rows)
        metrics = select(layer, spec["per_layer"])
        # One spans file per workload, overwritten, so repeated runs do not
        # pile up tens of megabytes each.
        spans_path = OUT_DIR / f"spans-{instance.name}.csv"
        tracer.write_spans(spans_path)
        print(f"spans: {tracer.spans_kept} kept, {tracer.spans_dropped} dropped, written to "
              f"{spans_path.relative_to(ROOT)}")
        # Function-level lines only for functions the workload called.
        called = {name for name, stat in tracer.stats.items() if stat[0]}
        shown.update((name, value) for name, value in layer.items()
                     if name.count(".") < 2 or name.rsplit(".", 1)[0] in called)
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup_samples)}")
    for name, (value, unit) in sorted(shown.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    result = {"correct": correct, "attempted": len(rows),
              "failed": sum(not r.verdict.ok for r in rows), "metrics": metrics}
    record = {**result, "machine": machine, "failures": failures, "setup_samples_s": setup_samples,
              "ops": [[r.label, r.seconds, r.traced, r.verdict.ok] for r in rows],
              "all_metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()}}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
