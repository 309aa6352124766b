"""Benchmark of mppabsorber: one workload per run, end-to-end or per-layer.

    python3 perfbench/run.py --workload anneal5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. --trace 0 measures the
end-to-end metrics with tracing off. --trace 1 runs the workload three
times, untraced, traced (the layer functions wrapped, spans.py) and
untraced again, and reports the per-layer metrics of the traced pass and
the tracing overhead against the mean of the untraced passes, which
cancels a steady drift in host speed; spans are written to perfbench/out/.
Metric names and units come from BENCHMARK.json. The last line of
standard output is the JSON result.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
# Set-up as a user pays it: a fresh interpreter imports the package, loads
# the bundled configs and runs one objective evaluation.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
import mppabsorber as m
configs = [m.load_config(f"{sys.argv[1]}/configs/{name}.json") for name in
           ("three_chamber_baseline", "three_chamber_optimized", "single_chamber")]
c = configs[0]
print(m.objective(c.structure.design, c.structure.mpps, c.medium, c.grid))
"""
# Span names that get <name>.calls_per_op and <name>.self_ms_per_op metrics.
LAYERS = (
    "acoustics.mpp_impedance", "acoustics.pipe_matrix", "acoustics.element_matrix",
    "acoustics.compose", "acoustics.reflection", "acoustics.chain_matrix",
    "spectrum.validate", "spectrum.band", "structure.build_chain",
    "annealing.objective", "annealing.move", "annealing.accept", "annealing.loop",
    "annealing.multi", "configio.load", "cli.csv", "cli.report", "cli.simulate",
    "cli.main", "bench.op",
)
SELF_SUM_TOL = 0.01


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    src = ROOT / "src"
    if not (src / "mppabsorber" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"no mppabsorber source tree (src/, configs/) under {ROOT}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import mppabsorber

    if Path(mppabsorber.__file__).resolve().parent != (src / "mppabsorber").resolve():
        fail(f"imported mppabsorber from {mppabsorber.__file__}, not from {src}")
    return mppabsorber


def measure_setup():
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if done.returncode != 0:
            fail(f"set-up failed:\n{done.stderr}")
    return statistics.median(times), times


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, nearest-rank; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, outcome, setup_s):
    p, tail_s = tail(outcome.op_s)
    values = {
        "setup_s": setup_s,
        "work_per_s": outcome.work / outcome.wall_s,
        "band_width_hz": outcome.band_width_hz,
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [
        f"{workload.aliases['op_s']}: median {statistics.median(outcome.op_s):.6g} s,"
        f" p{p} {tail_s:.6g} s, n={len(outcome.op_s)} ({workload.op_unit}s)",
        f"{workload.aliases['work_per_s']}: {values['work_per_s']:.6g} 1/s",
        f"{workload.aliases['band_width_hz']}: {values['band_width_hz']:.6f} Hz",
    ]
    return values, lines


def per_layer(workload, untraced, traced, tracer):
    """Per-layer metrics of the traced pass; `untraced` holds the passes around it."""
    profile = tracer.profile()
    ops = traced.attempted
    values, lines = {}, []
    for layer in LAYERS:
        span = profile.get(layer, {})
        values[f"{layer}.calls_per_op"] = span.get("calls", 0) / ops
        values[f"{layer}.self_ms_per_op"] = span.get("self_ns", 0.0) / 1e6 / ops
    spectrum = profile.get("acoustics.reflection", {})
    points = tracer.counts.get("acoustics.reflection", 0)
    values["acoustics.points_per_op"] = points / ops
    values["acoustics.ns_per_point"] = spectrum.get("total_ns", 0.0) / points if points else 0.0
    for name in ("acoustics.chain_matrix", "acoustics.reflection", "annealing.objective"):
        values[f"{name}.total_ms_per_op"] = profile.get(name, {}).get("total_ns", 0.0) / 1e6 / ops
    accept_calls = profile.get("annealing.accept", {}).get("calls", 0)
    values["annealing.accept_ratio"] = (
        tracer.counts.get("annealing.accept", 0) / accept_calls if accept_calls else 0.0)
    proposed = traced.counts.get("proposed", 0)
    values["annealing.improve_ratio"] = traced.counts.get("improved", 0) / proposed if proposed else 0.0
    values["cli.csv.bytes_per_op"] = tracer.counts.get("cli.csv", 0) / ops
    values["acoustics.det_miss_ratio"] = traced.counts.get("det_misses", 0) / ops
    values["acoustics.det_max_err"] = traced.counts.get("det_max_err", 0.0)

    untraced_s, traced_s = statistics.mean(u.wall_s for u in untraced), traced.wall_s
    absent = sorted(tracer.missing + [s for s in workload.expected if s not in profile])
    values["trace.wall_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    values["trace.spans"] = float(len(tracer.start))
    values["trace.absent"] = float(len(absent))

    self_sum_s = sum(v["self_ns"] for v in profile.values()) / 1e9
    problems = []
    misnested = tracer.nesting_errors()
    if misnested:
        problems.append(f"{misnested} spans lie outside their parent")
    if not abs(self_sum_s - traced_s) <= SELF_SUM_TOL * traced_s:
        problems.append(f"layer self times sum to {self_sum_s:.6g} s, traced wall {traced_s:.6g} s")

    lines.append(f"{'span':28} {'calls':>9} {'total ms':>11} {'self ms':>11} {'self %':>7}"
                 f" {'us/call':>9} {'self us/call':>12}")
    for name, v in sorted(profile.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(
            f"{name:28} {v['calls']:9d} {v['total_ns'] / 1e6:11.3f} {v['self_ns'] / 1e6:11.3f}"
            f" {100 * v['self_ns'] / 1e9 / traced_s:7.2f} {v['total_ns'] / 1e3 / v['calls']:9.2f}"
            f" {v['self_ns'] / 1e3 / v['calls']:12.2f}")
    lines.append(f"layer self times sum to {self_sum_s:.6f} s; traced wall {traced_s:.6f} s")
    lines.append(f"tracing overhead: {values['trace.overhead_s']:.6f} s"
                 f" ({values['trace.overhead_pct']:.2f} %) over untraced {untraced_s:.6f} s"
                 f" (mean of {', '.join(f'{u.wall_s:.3f}' for u in untraced)} s before and after)"
                 f" for the same {traced.attempted} {workload.op_unit}s")
    lines.append("absent spans: " + (", ".join(absent) if absent else "none"))
    return values, lines, problems


def _finite(value):
    """A measured value, or 0.0 when nothing was measured (every operation failed)."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def emit(metrics, spec, correct, attempted, failed):
    units = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    pkg = import_package()
    import numpy as np
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](pkg, ROOT, args.seed, args.seconds)
    print(f"host: nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {np.__version__},"
          f" long double precision {np.finfo(np.longdouble).precision} digits")
    print(f"workload {workload.name}, seed {args.seed}: "
          + ", ".join(f"{k} {v}" for k, v in workload.sizes.items()))

    untraced = workload.run()
    problems = []
    if args.trace == 0:
        setup_s, setup_times = measure_setup()
        metrics, lines = end_to_end(workload, untraced, setup_s)
        lines.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
        lines.append("setup_s: median {:.6f} s of {}".format(
            setup_s, ", ".join(f"{t:.4f}" for t in setup_times)))
        outcomes = [untraced]
        kind = "end_to_end"
    else:
        tracer = spans.Tracer()
        tracer.install(pkg)
        try:
            traced = workload.run(tracer)
        finally:
            tracer.uninstall()
        after = workload.run()
        out = ROOT / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"spans_{workload.name}.npz")
        metrics, lines, problems = per_layer(workload, [untraced, after], traced, tracer)
        outcomes = [untraced, traced, after]
        kind = "per_layer"
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    lines += untraced.lines
    lines.append(f"fail_ratio: {failed}/{attempted}")
    for problem in problems:
        lines.append(f"check failed: {problem}")
    print("\n".join(lines))
    emit(metrics, spec[kind], failed == 0 and not problems, attempted, failed)


if __name__ == "__main__":
    main()
