"""Benchmark entry point for deltavar: one workload, one seed, one JSON result.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 45 --trace 0

The package is imported from ``src/`` of the current directory, never from
an installed copy; without ``src/deltavar`` the run exits with code 2. The
process pins ``DELTAVAR_THREADS`` to the usable core count and BLAS to one
thread, measures set-up, then repeats the workload's fixed work for about
``--seconds`` seconds, checking every answer. With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` the run spends
half its time untraced and half traced and reports per-module metrics.
Scratch files, the span log, a result record and the store of answers that
must repeat (``checks.json``) go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("queries", "batch")
# Set-up is repeated (median reported): 5 times, or 3 once 5 s are spent.
SETUP_REPEATS, SETUP_MIN_REPEATS, SETUP_BUDGET_S = 5, 3, 5.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("queries_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_CALLS_SELF = ("calls", "self_s")
PER_LAYER_FIELDS = (
    ("autodiff.Tape.grad", _CALLS_SELF),
    ("autodiff.Tape.hessian", _CALLS_SELF),
    ("models.train", ("calls", "self_s", "steps")),
    ("models.mean_loglik_grad", ("calls",)),
    ("models.loglik_grad_batch", _CALLS_SELF),
    ("covariance.empirical_fisher", _CALLS_SELF),
    ("covariance.loss_hessian", _CALLS_SELF),
    ("covariance.invert", _CALLS_SELF),
    ("covariance.sandwich", _CALLS_SELF),
    ("covariance.save_covariance", ("self_s", "bytes")),
    ("covariance.load_covariance", ("self_s", "bytes")),
    ("qoi.values_and_deltas", _CALLS_SELF),
    ("qoi.qoi_value_and_delta", _CALLS_SELF),
    ("qoi.value_batch_params", _CALLS_SELF),
    ("qoi._eigen_value_batch", _CALLS_SELF),
    ("delta_variance.delta_variance", _CALLS_SELF),
    ("delta_variance.finetune_scales", ("calls", "self_s", "steps")),
    ("evaluation.fit_laplace_calibration", _CALLS_SELF),
    ("evaluation.retention_auc", _CALLS_SELF),
    ("baselines.train_ensemble", ("self_s",)),
    ("baselines.ensemble_variance_batch", ("self_s",)),
    ("baselines.dropout_variance_batch", ("self_s",)),
    ("oracles.richardson_eps_loo", ("self_s",)),
    ("oracles.adversarial_shift", ("self_s",)),
    ("oracles.gaussian_posterior_mc", ("self_s",)),
    ("oracles.mahalanobis_gradient_distance", ("self_s",)),
    ("bench._select_regularizer", ("self_s", "calibration_fits")),
    ("bench.run_scenario", ("self_s",)),
    ("cli.train", ("self_s",)),
    ("cli.sigma", ("self_s",)),
    ("cli.deltavar", ("self_s",)),
    ("cli.load_model_dir", ("self_s",)),
    ("util.ordered_parallel_map", ("calls", "wall_s", "efficiency")),
)
# share of traced CPU time spent inside these layers (inclusive)
SHARES = {
    "share.evaluation": ("evaluation.fit_laplace_calibration",
                         "evaluation.retention_auc"),
    "share.delta_variance.finetune_scales": ("delta_variance.finetune_scales",),
    "share.baselines.train_ensemble": ("baselines.train_ensemble",),
}
# the jobs of the batch workload, each timed on its own
JOBS = ("dynamics", "curvature", "oracles")
_UNITS = {"calls": "count", "steps": "count", "calibration_fits": "count",
          "self_s": "s", "wall_s": "s", "bytes": "B", "efficiency": "ratio"}


def per_layer_metrics() -> list:
    """(name, unit) of every metric the traced run reports, in order."""
    out = [(f"{layer}.{f}", _UNITS[f])
           for layer, fields in PER_LAYER_FIELDS for f in fields]
    out += [(name, "ratio") for name in SHARES]
    out += [(f"job.{job}.run_s", "s") for job in JOBS]
    out += [("trace.run_s", "s"), ("trace.overhead_s", "s")]
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code path on toy sizes (tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_threads() -> int:
    """DELTAVAR_THREADS = usable cores, BLAS single-threaded. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["DELTAVAR_THREADS"] = str(nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def fresh_import_seconds(root: Path) -> float:
    """Wall time of a new interpreter importing the package (and its CLI)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import deltavar.cli"], cwd=root,
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_done(times: list, size: str) -> bool:
    if size == "tiny":
        return len(times) >= 1
    return len(times) >= SETUP_REPEATS or (
        len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_BUDGET_S)


def speed_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the machine runs
    right now. Recorded beside each result, since shared machines drift."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def measure(workload, state, rec, seconds: float, tracer=None) -> list:
    """Repeat passes while another one still fits in the time budget.

    Returns the request latencies of each pass. Their sum is the pass's
    timed seconds, which leave out the untimed checks.
    """
    passes = []
    start = time.perf_counter()
    while True:
        first = len(rec.latencies)
        if tracer is not None:
            tracer.install()
        try:
            workload.run_pass(state, rec)
        finally:
            if tracer is not None:
                tracer.remove()
        rec.run_deferred()
        passes.append(rec.latencies[first:])
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > 1.1 * seconds:
            return passes


def quantile(values: list, q: int) -> float:
    """The q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def upper_quartile(values: list) -> float:
    """The 75th percentile: how long the work takes in the machine's usual
    state. A shared machine also runs in fast bursts of a few seconds that
    come and go with its other tenants; how many of them fall into a run is
    chance, and a median over passes jumps with it."""
    return quantile(values, 75)


def slot_latencies(passes: list) -> list:
    """The latency of each request of a pass, upper quartile over passes.

    Every pass makes the same requests in the same order, so the slots are
    a fixed set. Percentiles over them do not depend on how many passes fit
    into the run, which matters where a pass mixes millisecond and
    multi-second calls.
    """
    return [upper_quartile([p[i] for p in passes if len(p) > i])
            for i in range(max(map(len, passes)))]


def pass_seconds(passes: list) -> list:
    return [sum(p) for p in passes]


def end_to_end_values(setup_times, passes, rec, peak_rss_mb) -> dict:
    run_s = upper_quartile(pass_seconds(passes))
    slots = slot_latencies(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        # every pass returns the same values
        "queries_per_s": rec.values / len(passes) / run_s,
        "request_p50_ms": 1e3 * quantile(slots, 50),
        "request_p90_ms": 1e3 * quantile(slots, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_values(summary: dict, traced: list, untraced: list,
                     job_seconds: dict) -> dict:
    layers, counters = summary["layers"], summary["counters"]
    cpu_total = summary["cpu_total"] or 1.0
    out = {}
    for layer, fields in PER_LAYER_FIELDS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for f in fields:
            if f in ("calls", "self_s"):
                value = entry[f]
            elif f == "wall_s":
                value = entry["total_s"]
            elif f == "efficiency":
                value = summary["map_efficiency"]
            elif f == "calibration_fits":
                value = summary["select_calibration_fits"]
            else:
                value = counters.get(f"{layer}.{f}", 0)
            out[f"{layer}.{f}"] = value
    for name, members in SHARES.items():
        out[name] = sum(layers.get(m, {}).get("cpu_s", 0.0)
                        for m in members) / cpu_total
    for job in JOBS:
        # a job's seconds in the untraced passes, which come first
        seconds = job_seconds.get(job, [])[:len(untraced)]
        out[f"job.{job}.run_s"] = upper_quartile(seconds) if seconds else 0.0
    traced_s = statistics.median(pass_seconds(traced))
    out["trace.run_s"] = traced_s
    out["trace.overhead_s"] = traced_s - statistics.median(
        pass_seconds(untraced))
    return out


def seconds_by_kind(rec) -> dict:
    """Summed request latency per request kind, over the whole run."""
    out: dict = {}
    for kind, lat in zip(rec.kinds, rec.latencies):
        out[kind] = out.get(kind, 0.0) + lat
    return out


def code_fingerprint(root: Path) -> str:
    """sha256 over the package sources and the Python, numpy and scipy
    versions: all that a report's bytes depend on besides its inputs."""
    import numpy
    import scipy

    src = root / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    h.update(" ".join((platform.python_version(), numpy.__version__,
                       scipy.__version__)).encode())
    return h.hexdigest()


def environment(root: Path, args, nproc: int, fingerprint: str) -> dict:
    import numpy  # imported late: the thread pins must come first
    import scipy

    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "nproc": nproc,
        "DELTAVAR_THREADS": os.environ["DELTAVAR_THREADS"],
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "code_fingerprint": fingerprint,
        "src_lines": src_lines,
    }


def git_commit(root: Path):
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    lines = top.stdout.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "deltavar" / "__init__.py").is_file():
        print(f"no src/deltavar under {root}: run from a repository checkout",
              file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(src))
    import deltavar

    if Path(deltavar.__file__).resolve().parent != (src / "deltavar").resolve():
        print(f"deltavar imported from {deltavar.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, CheckStore, Recorder

    out_root = root / ".perfbench"
    out_root.mkdir(exist_ok=True)
    work = out_root / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload]
    probes = [speed_probe_s()]
    try:
        setup_times = []
        while not setup_done(setup_times, args.size):
            import_s = fresh_import_seconds(root)
            start = time.perf_counter()
            state = workload.setup(args.seed, work, args.size)
            setup_times.append(import_s + time.perf_counter() - start)
        rec = Recorder()
        if args.trace:
            untraced = measure(workload, state, rec, args.seconds / 2)
            tracer = Tracer()
            traced = measure(workload, state, rec, args.seconds / 2, tracer)
            passes = untraced + traced
        else:
            passes = measure(workload, state, rec, args.seconds)
        # read before the checks: dynamics may run a larger check scenario
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        fingerprint = code_fingerprint(root)
        store = CheckStore(out_root / "checks.json", fingerprint)
        workload.finish(state, rec, store)
        store.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probes.append(speed_probe_s())

    if args.trace:
        values = per_layer_values(tracer.summary(), traced, untraced,
                                  rec.job_seconds)
        units = dict(per_layer_metrics())
        (out_root / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out_root / "trace" /
                           f"{args.workload}-seed{args.seed}.jsonl")
    else:
        values = end_to_end_values(setup_times, passes, rec, peak_rss_mb)
        units = dict(END_TO_END)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {"env": environment(root, args, nproc, fingerprint),
              "speed_probe_s": probes,
              "failed_ratio": rec.failed / rec.attempted,
              "pass_seconds": pass_seconds(passes),
              "setup_seconds": setup_times,
              "requests": len(rec.latencies),
              "seconds_by_kind": seconds_by_kind(rec),
              "job_seconds": rec.job_seconds,
              "notes": rec.notes,
              "misses": rec.misses, "result": result}
    (out_root / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_root / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
