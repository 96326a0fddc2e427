"""Benchmark for mcdm-toolkit: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload {cli-cold,rank-large,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
REQUIRED = (
    "src/mcdm/__init__.py",
    "src/mcdm/data/table1.csv",
    "tests/oracle.py",
    "docs/repro_report.txt",
    "docs/repro_report.json",
)
# No workload may use more than two threads; numpy's BLAS pool follows these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "2")
sys.dont_write_bytecode = True  # bytecode is compiled once, explicitly, below

from spans import Tracer  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, CliCold, RankLarge, Sweep, run_child  # noqa: E402

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with the gated metrics but left out of the JSON: failed_ratio is 0
# for a correct program and op_p90_ms spreads too widely between runs to
# gate (see README.md).
REPORTED_UNITS = {"op_p90_ms": "ms", "failed_ratio": "ratio"}
PER_LAYER_UNITS = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "repro.import_ms": "ms",
    "cli.main_ms": "ms",
    "ingest.parse_matrix_ms": "ms",
    "ingest.cells_per_s": "1/s",
    "model.new_matrix_ms": "ms",
    "model.matrix_kib": "KiB",
    "weighting.std_dev_ms": "ms",
    "topsis.normalize_ms": "ms",
    "topsis.apply_weights_ms": "ms",
    "topsis.ideal_points_ms": "ms",
    "topsis.separations_ms": "ms",
    "topsis.closeness_ms": "ms",
    "topsis.rank_ms": "ms",
    "topsis.topsis_rank_ms": "ms",
    "topsis.per_eval_us": "us",
    "sensitivity.rank_stability_fixture_ms": "ms",
    "sensitivity.rank_stability_200x10_ms": "ms",
    "sensitivity.leave_one_out_ms": "ms",
    "sensitivity.evals": "count",
    "sensitivity.pairs_compared": "count",
    "reporting.table_ms": "ms",
    "reporting.json_ms": "ms",
    "reporting.bytes_out": "bytes",
    "repro.run_sweep_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tally:
    """Operations attempted and failed; a raised exception counts as a failure."""

    def __init__(self):
        self.attempted = self.failed = 0
        self._reported = False

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def run(self, fn, *args):
        """Call fn; on an exception, report it once on stderr and return None."""
        try:
            return fn(*args)
        except Exception:
            if not self._reported:
                traceback.print_exc()
                self._reported = True
            return None


def timed_op(workload, tally: Tally) -> float:
    t0 = perf_counter()
    out = tally.run(workload.op)
    elapsed = perf_counter() - t0
    tally.record(out is not None and bool(tally.run(workload.check, out)))
    return elapsed


def measure(workload, seconds: float, tally: Tally) -> list[float]:
    """Closed loop, one operation at a time, in whole rounds.

    Stops after the round that brings the timed total nearest to ``seconds``:
    once another round, at the mean round time so far, would overshoot by
    more than it would fall short.
    """
    samples: list[float] = []
    while True:
        for _ in range(workload.round_size):
            samples.append(timed_op(workload, tally))
        total = sum(samples)
        if total + total * workload.round_size / len(samples) / 2 >= seconds:
            return samples


def setup_seconds(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = run_child(ROOT, [str(ROOT / "perfbench" / "child.py"), "setup", name, str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr.decode()}")
        times.append(float(proc.stdout.decode().splitlines()[-1]))
    return times


def end_to_end(workload, seed: int, seconds: float, tally: Tally):
    setup = setup_seconds(workload.name, seed)
    workload.load()
    for ok in workload.prepare_checks():
        tally.record(ok)
    timed_op(workload, tally)  # untimed warm-up, checked like any other operation
    samples = measure(workload, seconds, tally)
    usage = resource.RUSAGE_CHILDREN if isinstance(workload, CliCold) else resource.RUSAGE_SELF
    p50 = statistics.median(samples)
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1] if len(samples) > 1 else p50
    metrics = {
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "ops_per_s": len(samples) / sum(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    notes = [
        f"{len(samples)} timed operations, {sum(s > p90 for s in samples)} above p90",
        f"setup runs {SETUP_REPEATS}: " + " ".join(f"{s:.3f}" for s in setup) + " s",
    ]
    return metrics, notes


def traced(workload, seed: int, seconds: float, tally: Tally):
    """Trace-overhead phase on this workload, then a layer pass over every workload."""
    tracer = Tracer()
    workload.load()
    for ok in workload.prepare_checks():
        tally.record(ok)
    timed_op(workload, tally)  # warm-up

    tracer.phase = "overhead"
    plain, spanned = [], []
    while sum(plain) + sum(spanned) < seconds or len(plain) < 2:
        plain.append(timed_op(workload, tally))
        tracer.next_op()
        tally.record(bool(tally.run(workload.traced_op, tracer)))
        spanned.append(tracer.last_duration("op"))

    tracer.phase = "layers"
    metrics = {}
    for cls in (CliCold, RankLarge, Sweep):
        instance = workload if isinstance(workload, cls) else cls(ROOT, seed)
        if instance is not workload:
            instance.load()
            for ok in instance.prepare_checks():
                tally.record(ok)
        attempted, failed, layer = instance.layer_pass(tracer)
        tally.attempted += attempted
        tally.failed += failed
        metrics.update(layer)
    metrics["trace.overhead_pct"] = 100 * (statistics.median(spanned) / statistics.median(plain) - 1)

    path = ROOT / OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(path)
    notes = [
        f"overhead phase: {len(plain)} untraced and {len(spanned)} traced operations",
        f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of mcdm-toolkit, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("error: src does not compile", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    tally = Tally()
    if args.trace:
        metrics, notes = traced(workload, args.seed, args.seconds, tally)
        units = PER_LAYER_UNITS
    else:
        metrics, notes = end_to_end(workload, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS
    metrics["failed_ratio"] = tally.failed / tally.attempted

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in notes + [f"{tally.failed} of {tally.attempted} operations failed"]:
        print("  " + line)
    for name, unit in {**units, **REPORTED_UNITS}.items():
        if name in metrics:
            print(f"  {name:<40} {metrics[name]!r:>24} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
