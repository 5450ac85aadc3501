"""Benchmark runner for the sadiclab command-line workloads.

    python3 perfbench/run.py --workload {survey,cloud,forms} --seed N \
        --seconds S --trace {0,1}

One client, one process, closed loop: each op is a `sadiclab.cli.run`
call on a config generated from (seed, op index), started as soon as the
previous op returns, until the workload's target of clean ops for S
seconds is met.  Times are scaled to a reference machine speed (see
Speed).  Outputs are checked after the timed loop.  `--trace 0` prints the end-to-end metrics; `--trace
1` runs a fixed, seed-determined list of ops once plain and once traced
(see tracer.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object; the lines above it are for people.
Working files go to .perfbench_out/ at the root of the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5
# Every reported end-to-end time is scaled to a reference machine speed:
# seconds x PROBE_REF_S / probe(), with the probe timed around the measured
# work.  On a shared host a CPU's speed flips by up to 1.7x within seconds,
# and the probe slows down with it; the constant is about the probe's time
# on a 2-core sandbox in its fast state.
PROBE_REF_S = 0.006
PROBE_EVERY_S = 0.25
MAX_ATTEMPTS = 20

# Fresh-interpreter set-up: import the CLI and parse one config.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sadiclab.cli as cli
cli.parse_config(sys.argv[2])
t1 = time.perf_counter()
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit("sadiclab imported from " + cli.__file__)
print(t1 - t0)
"""

CALL_METRICS = [
    "cli.parse_config", "numberfield.FieldElement.mul",
    "numberfield.FieldElement.new", "numberfield.FinitePlace.valuation",
    "numberfield.FinitePlace.refined", "polyarith.int_resultant",
    "lattice.norms_under", "lattice.format_point", "dynamics.trajectory",
    "forms.value_spectrum", "forms.magnitudes", "surd.QuadraticSurd.mul",
    "surd.QuadraticSurd.to_mpf",
]
SELF_METRICS = [
    "cli.parse_config", "cli.emit_report", "numberfield.FieldElement.mul",
    "numberfield.FinitePlace.valuation", "numberfield.finite_places",
    "polyarith.int_resultant", "polyarith.hensel_lift_factors",
    "lattice.PointCloud.build", "lattice.norms_under", "lattice.format_point",
    "dynamics.trajectory", "dynamics.divergence_survey",
    "forms.value_spectrum", "forms.magnitudes",
    "forms.rationality_reconstruct", "forms.discreteness_report",
]
COUNTER_METRICS = {
    "lattice.PointCloud.points": "points/op",
    "lattice.norms_under.point_evals": "points/op",
    "lattice.norms_under.bytes_computed": "B/op",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "sadiclab", "cli.py")):
        fail(f"no sadiclab sources under {SRC}")
    sys.path.insert(0, SRC)
    import sadiclab
    import sadiclab.cli
    if not os.path.abspath(sadiclab.__file__).startswith(SRC + os.sep):
        fail(f"sadiclab was imported from {sadiclab.__file__}, not {SRC}")
    return sadiclab


def probe():
    """Seconds of a fixed loop of exact rational arithmetic, the kind of work
    sadiclab does (best of two)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(1, 600):
            x = (x * Fraction(i, i + 1) + Fraction(1, i)) % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Probes the machine between ops, at most every PROBE_EVERY_S, and
    scales each op by the mean of the probes just before and after it."""

    def __init__(self):
        self.probes = []
        self._pending = []
        self._last = -math.inf

    def maybe_probe(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._take()

    def ran(self, op):
        self._pending.append(op)

    def finish(self):
        if self._pending:
            self._take()

    def _take(self):
        p = probe()
        for op in self._pending:
            op["scaled"] = op["seconds"] * PROBE_REF_S * 2 / (self.probes[-1] + p)
        self._pending = []
        self.probes.append(p)
        self._last = time.perf_counter()

    def summary(self):
        return (f"probe median {statistics.median(self.probes) * 1e3:.3f} ms "
                f"over {len(self.probes)} probes, reference "
                f"{PROBE_REF_S * 1e3:g} ms")


def measure_setup(config):
    """Seconds a fresh interpreter takes to import the CLI and parse config,
    as measured and scaled to the reference speed."""
    before = probe()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, json.dumps(config)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up interpreter failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout)
    return {"seconds": seconds,
            "scaled": seconds * PROBE_REF_S * 2 / (before + probe())}


def exception_reason(exc):
    return f"{type(exc).__name__}: {exc}"


def run_op(cli, workload, config, outdir):
    """(seconds, failure reason or None) for one CLI call."""
    text = json.dumps(config)
    t0 = time.perf_counter()
    try:
        rc = cli.run(workload.subcommand, text, outdir)
    except Exception as exc:   # the benchmark tallies every failure
        return time.perf_counter() - t0, exception_reason(exc)
    seconds = time.perf_counter() - t0
    return seconds, None if rc == 0 else f"exit code {rc}"


def artifact_digests(outdir):
    if not os.path.isdir(outdir):
        return {}
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_ops(workload, ops):
    """Digest every op's artifacts and run the workload's output check on
    every op that exited cleanly.

    Returns the total check time; failed checks become the op's reason.
    """
    t0 = time.perf_counter()
    first = True
    for op in ops:
        op["digests"] = artifact_digests(op["dir"])
        if op["reason"] is not None:
            continue
        try:
            reason = workload.check(op["config"], op["dir"], first)
        except Exception as exc:   # a check that cannot run has failed
            reason = "check raised " + exception_reason(exc)
        first = False
        if reason is not None:
            op["reason"] = reason
            op["check_failed"] = True
    return time.perf_counter() - t0


def tail(latencies):
    """(value, percentile, n): highest whole percentile with at least ten
    samples above it, by the nearest-rank rule; the maximum below 11."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    pct = 100 * (n - 10) // n
    rank = math.ceil(pct * n / 100)
    return xs[rank - 1], pct, n


def failure_lines(ops):
    """Failure tally by reason, numbers masked so that like failures group."""
    tally = Counter(re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", op["reason"])
                    for op in ops if op["reason"] is not None)
    return [f"    {count:6d}  {reason}" for reason, count in tally.most_common()]


def metric(value, unit):
    return {"value": value, "unit": unit}


def write_digests(path, ops):
    with open(path, "w", encoding="utf-8") as fh:
        for op in ops:
            fh.write(json.dumps({"op": op["index"], "artifacts": op["digests"]},
                                sort_keys=True) + "\n")
    combined = hashlib.sha256()
    for op in ops:
        combined.update(json.dumps(op["digests"], sort_keys=True).encode())
    return combined.hexdigest()


def new_op(index, config, outdir, seconds, reason):
    return {"index": index, "config": config, "dir": outdir,
            "seconds": seconds, "reason": reason, "check_failed": False}


def end_to_end(cli, workload, seed, seconds, work):
    target = max(2, round(seconds * workload.ops_per_s))
    first_config = workload.config(seed, 0)
    setups = [measure_setup(first_config)]
    run_op(cli, workload, workload.config(seed, -1), os.path.join(work, "warmup"))
    # Ops come from the seeded stream, in order, until `target` of them have
    # returned cleanly (or MAX_ATTEMPTS * target were tried).  Every op tried
    # counts, failed or not, and the stream does not depend on outcomes, so
    # two runs with one seed attempt and fail the same ops, and every run
    # measures the same number of successful ops.  Set-up is re-measured at
    # even points through the run, so that its median spans the same
    # stretch of machine time as the ops.
    speed = Speed()
    ops = []
    clean = 0
    while clean < target and len(ops) < MAX_ATTEMPTS * target:
        if clean * SETUP_RUNS >= len(setups) * target:
            setups.append(measure_setup(first_config))
        speed.maybe_probe()
        index = len(ops)
        config = workload.config(seed, index)
        outdir = os.path.join(work, f"op{index}")
        took, reason = run_op(cli, workload, config, outdir)
        ops.append(new_op(index, config, outdir, took, reason))
        speed.ran(ops[-1])
        clean += reason is None
    speed.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_s = check_ops(workload, ops)

    ok = [op for op in ops if op["reason"] is None]
    failed = len(ops) - len(ok)
    digest = write_digests(os.path.join(work, "digests.jsonl"), ops)
    metrics, raw = {}, {}
    for values, key in ((metrics, "scaled"), (raw, "seconds")):
        lat = [op[key] for op in ok]
        wall = sum(op[key] for op in ops)
        tail_s, pct, n = tail(lat) if lat else (0.0, 0, 0)
        values["op_latency_p50_s"] = metric(
            statistics.median(lat) if lat else 0.0, "s")
        values["op_latency_tail_s"] = metric(tail_s, "s")
        values["throughput_ops_per_s"] = metric(len(ok) / wall, "1/s")
        values["setup_s"] = metric(
            statistics.median(s[key] for s in setups), "s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    print(f"workload {workload.name}, seed {seed}: {len(ops)} ops attempted, "
          f"{len(ok)} succeeded, {failed} failed, in "
          f"{sum(op['seconds'] for op in ops):.3f} s of op time "
          "(closed loop, one client)")
    print(f"  times are reference-speed seconds (wall seconds in brackets); "
          f"machine speed {speed.summary()}")
    notes = {
        "op_latency_p50_s": f"n={len(ok)}",
        "op_latency_tail_s": f"p{pct}, n={n}",
        "throughput_ops_per_s": "successful ops per second of op time",
        "setup_s": f"median of {len(setups)} fresh interpreters",
    }
    for name, note in notes.items():
        m = metrics[name]
        print(f"  {name:21s} {m['value']:.6f} {m['unit']}  "
              f"[{raw[name]['value']:.6f}]  ({note})")
    print(f"  {'peak_rss_mb':21s} {peak_rss_mb:.3f} MB")
    print(f"  error_rate            {failed / len(ops):.6f}  "
          f"({failed}/{len(ops)})")
    print(*(failure_lines(ops) or ["    none"]), sep="\n")
    print(f"  output checks         {check_s:.3f} s, outside op latency")
    print(f"  artifacts sha256      {digest}  (ops 0..{len(ops) - 1}, per op "
          "in digests.jsonl)")
    correct = bool(ok) and not any(op["check_failed"] for op in ops)
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def traced(sadiclab, workload, seed, seconds, work):
    from tracer import Tracer

    cli = sadiclab.cli
    tracer = Tracer(sadiclab)
    count = max(2, round(seconds * workload.trace_ops_per_s))
    run_op(cli, workload, workload.config(seed, -1), os.path.join(work, "warmup"))
    plain, traced_ops = [], []
    for index in range(count):
        config = workload.config(seed, index)
        # alternate which pass goes first, so warm caches favour neither
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            label = "traced" if traced_pass else "plain"
            outdir = os.path.join(work, f"op{index}-{label}")
            if traced_pass:
                tracer.install(index)
            try:
                took, reason = run_op(cli, workload, config, outdir)
            finally:
                tracer.uninstall()
            (traced_ops if traced_pass else plain).append(
                new_op(index, config, outdir, took, reason))
    check_s = check_ops(workload, plain)
    for op in traced_ops:
        op["digests"] = artifact_digests(op["dir"])
    for a, b in zip(plain, traced_ops):
        if a["reason"] is None and a["digests"] != b["digests"]:
            b["reason"] = "traced artifacts differ from the plain run"
            b["check_failed"] = True
        elif b["reason"] is None and a["reason"] is not None:
            b["reason"] = a["reason"]

    tracer.save(os.path.join(work, "spans.npz"))
    digest = write_digests(os.path.join(work, "digests.jsonl"), plain)
    own = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = metric(counts[name] / count, "calls/op")
    for name in SELF_METRICS:
        metrics[f"{name}.self_s"] = metric(own[name] / count, "s/op")
    for name, unit in COUNTER_METRICS.items():
        metrics[name] = metric(counts[name] / count, unit)
    mags = counts["forms.magnitudes"]
    metrics["forms.refine.useful_ratio"] = metric(
        counts["forms.refine.points_kept"] / mags if mags else 0.0, "ratio")
    ok_plain = [op["seconds"] for op in plain if op["reason"] is None]
    ok_traced = [op["seconds"] for op in traced_ops if op["reason"] is None]
    overhead = (statistics.median(ok_traced) - statistics.median(ok_plain)
                if ok_plain and ok_traced else 0.0)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["check.overhead_s"] = metric(check_s / count, "s/op")

    ops = plain + traced_ops
    failed = sum(op["reason"] is not None for op in ops)
    print(f"workload {workload.name}, seed {seed}: traced run of {count} ops, "
          f"each run plain and traced; {len(tracer.start)} spans written to "
          f"{os.path.relpath(os.path.join(work, 'spans.npz'), ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.9g} {m['unit']}")
    print(f"  error_rate {failed / len(ops):.6f} ({failed}/{len(ops)})")
    print(*(failure_lines(ops) or ["    none"]), sep="\n")
    print(f"  artifacts sha256 {digest}  (plain ops 0..{count - 1})")
    correct = bool(ok_plain) and not any(op["check_failed"] for op in ops)
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["survey", "cloud", "forms"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Keep the ops, the probes and the set-up interpreters on one CPU, so
    # that each probe sees the speed of the CPU the work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sadiclab = import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.trace:
        result = traced(sadiclab, workload, args.seed, args.seconds, work)
    else:
        result = end_to_end(sadiclab.cli, workload, args.seed, args.seconds, work)
    for entry in os.scandir(work):
        if entry.is_dir():
            shutil.rmtree(entry.path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
