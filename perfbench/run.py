"""Benchmark of the rlatt CLI: verified points, labeled spectra and nome sweeps.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of `rlatt.cli.main` calls (one pass), run in
this process at a new coupling per pass, taken from a screened pool in the
order the seed gives, until --seconds have elapsed; a pass started is always
finished.  Every output is checked.  The last line of
standard output is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics of a traced run (--trace 1).  See README.md.
"""

import os

# One BLAS thread: the default of two on two CPUs doubles CPU time and makes
# wall time jump between runs.  Set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import rlatt.cli\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s_geomean": "s", "peak_rss_mb": "MB"}

LAYER_COUNTS = (
    "partitions.add_strip",
    "partitions.enumerate_lattice",
    "elliptic.bracket",
    "coeffs.hop_coefficient",
    "coeffs.weight_vector",
    "coeffs.pieri_coefficient",
    "operators.build_hop_operator",
    "spectral.joint_diagonalize",
    "eigenpoly.value_table",
    "macdonald.macdonald_coeffs",
)
LAYER_SELF_TIMES = (
    "coeffs.hop_coefficient",
    "coeffs.weight_vector",
    "operators.build_hop_operator",
    "spectral.joint_diagonalize",
    "spectral.continue_labels",
    "eigenpoly.build_polynomials",
    "eigenpoly.pieri_residual",
    "macdonald.compare_trig",
    "weightlattice.crosscheck_hop_coefficients",
)

LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in LAYER_COUNTS},
    **{f"{name}.self_s": "s" for name in LAYER_SELF_TIMES},
    "spectral.solves_per_point": "solves/point",
    **{f"report.check.{name}.s": "s" for name in checks.VERIFY_CHECKS},
    "cli.emit_s": "s",
    "trace.overhead": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seed of the couplings g")
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    return parser.parse_args(argv)


def import_cli():
    """Import rlatt.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "rlatt" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no rlatt sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rlatt.cli

    if Path(rlatt.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported rlatt from {rlatt.cli.__file__}, not from {SRC}")
    return rlatt.cli


def measure_setup(repeats: int) -> list:
    """Seconds to import rlatt.cli in fresh interpreters, as every CLI call does."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class PassResult:
    def __init__(self):
        self.op_seconds = []
        self.failed = 0
        self.check_seconds = {name: 0.0 for name in checks.VERIFY_CHECKS}

    @property
    def wall(self) -> float:
        return sum(self.op_seconds)

    @property
    def geomean(self) -> float:
        return math.exp(statistics.fmean(math.log(t) for t in self.op_seconds))


def run_op(cli, op, out_path: Path):
    """Time one CLI call; returns its seconds and its exit code, or the crash."""
    argv = op.argv() + ["--out", str(out_path)]
    # start from a collected heap, as a fresh CLI process does, so that the
    # collector runs at the same points of the call in every pass
    gc.collect()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash of the program is one failed operation
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code


def check_op(op, out_path: Path, code, result: PassResult):
    """Check one operation's output; only the known failure may exit non-zero."""
    if code != 0 and not (op.known_to_fail and code == 1):
        raise checks.CheckFailure(f"failed with {code}")
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    if op.command == "verify":
        for c in payload["checks"]:
            result.check_seconds[c["name"]] += c["seconds"]
        if code == 0:
            checks.check_verify(payload, op.n, op.m, op.g, op.p_values[0])
        else:
            checks.check_known_failure(payload, op.n, op.m, op.g, op.p_values[0])
    else:
        checks.check_spectrum(payload, op.n, op.m, op.g, op.p_values)


def run_pass(cli, ops, out_path: Path, errors: list) -> PassResult:
    """Run and check one pass; every wrong output or unexpected failure goes to errors."""
    result = PassResult()
    for op in ops:
        out_path.unlink(missing_ok=True)
        seconds, code = run_op(cli, op, out_path)
        result.op_seconds.append(seconds)
        if code != 0:
            result.failed += 1
        try:
            check_op(op, out_path, code, result)
        except (checks.CheckFailure, OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"{' '.join(op.argv())}: {type(exc).__name__}: {exc}")
    return result


def layer_metrics(tracer: Tracer, result: PassResult) -> dict:
    counts = tracer.counts
    self_s = tracer.self_seconds()
    metrics = {f"{name}.calls": counts[name] for name in LAYER_COUNTS}
    metrics.update({f"{name}.self_s": self_s[name] for name in LAYER_SELF_TIMES})
    # a labeled point is a label_spectrum call or one continuation step of a sweep
    points = counts["spectral.label_spectrum"] + tracer.count_children(
        "spectral.continue_labels", "spectral.sweep_spectra"
    )
    metrics["spectral.solves_per_point"] = counts["spectral.joint_diagonalize"] / points if points else 0.0
    metrics.update({f"report.check.{name}.s": s for name, s in result.check_seconds.items()})
    metrics["cli.emit_s"] = self_s["cli.main"]
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"op-{os.getpid()}.json"
    couplings = workloads.coupling_order(args.seed)
    errors = []

    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    run_pass(cli, [workloads.warmup_op(args.workload, couplings[0])], out_path, errors)

    tracer = Tracer() if args.trace else None
    passes, traced, layer_passes, trace_passes = [], [], [], []
    start = time.perf_counter()
    for k, g in enumerate(couplings):
        ops = workloads.make_pass(args.workload, g)
        # a traced run alternates untraced and traced passes, so that the
        # overhead compares medians of passes made over the same minutes
        if tracer is None or k % 2 == 0:
            passes.append(run_pass(cli, ops, out_path, errors))
        else:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(cli, ops, out_path, errors)
            finally:
                tracer.uninstall()
            traced.append(result)
            layer_passes.append(layer_metrics(tracer, result))
            trace_passes.append({"spans": tracer.span_records(), "counts": dict(tracer.counts)})
        if (tracer is None or k % 2 == 1) and time.perf_counter() - start >= args.seconds:
            break
    out_path.unlink(missing_ok=True)

    for message in errors[:10]:
        print(f"perfbench: {message}", file=sys.stderr)
    every = passes + traced
    attempted = sum(len(r.op_seconds) for r in every)
    failed = sum(r.failed for r in every)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall for r in passes),
            "op_s_geomean": statistics.median(r.geomean for r in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        values = {
            name: (statistics.median_low if name.endswith(".calls") else statistics.median)(
                p[name] for p in layer_passes
            )
            for name in layer_passes[0]
        }
        values["trace.overhead"] = (
            statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in passes) - 1.0
        )
        units = LAYER_UNITS
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "passes": trace_passes}))
        print(f"spans written to {trace_file}")

    print(f"{args.workload}: {len(passes)} untraced and {len(traced)} traced passes, "
          f"{attempted} operations, {failed} failed")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
