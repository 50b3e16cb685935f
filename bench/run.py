"""tabsynth benchmark: seeded workloads against the public API.

    python3 bench/run.py --workload fit-wide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each run sets up its workload SETUP_REPEATS times (inputs, fixture training,
warm-up) and reports the median as setup_s, then runs iterations one after
another for --seconds seconds. With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json (wall_s, the fastest of these untraced iterations,
and peak_mem_mb from a fresh process that runs one more iteration); with
--trace 1 it alternates untraced and traced iterations and prints the
per-layer metrics. The last line of stdout is the JSON result; a fuller
record, with percentiles, environment and output digests, goes to
.bench_out/. `--workload all` runs each workload in its own process.
"""

import os

# numpy links a threaded OpenBLAS; pin it to one thread before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "train_rows_per_s": "rows/s",
    "generate_rows_per_s": "rows/s", "load_rows_per_s": "rows/s", "cdf_s": "s",
    "report_s": "s", "mia_s": "s", "peak_mem_mb": "MB", "error_rate": "ratio",
}


def _import_program():
    """Import tabsynth from this checkout's src/, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import tabsynth
    except ImportError as err:
        sys.exit(f"bench: cannot import tabsynth from {src}: {err}")
    if not Path(tabsynth.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: tabsynth resolved to {tabsynth.__file__}, not under {src}")


_import_program()

import numpy as np  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git so
    nothing outside the checkout is searched."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    with contextlib.redirect_stdout(None):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def summarize(values) -> dict:
    """Median, minimum, and the highest listed percentile with >= 10 samples
    beyond it."""
    values = [float(v) for v in values]
    out = {"median": float(np.median(values)), "min": min(values), "n": len(values), "tail": None}
    for p in PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            out["tail"] = {"p": p, "value": float(np.percentile(values, p))}
            break
    return out


@contextlib.contextmanager
def tagged(tracer, tag):
    if tracer is None:
        yield
        return
    tracer.iteration = tag
    with tracer:
        yield


def set_up(workload, seed, workdir, checks, info, tracer):
    times, tags, fx = [], [], None
    for i in range(SETUP_REPEATS):
        tag = f"setup{i}"
        with tagged(tracer, tag):
            t0 = time.perf_counter()
            workload.prepare(seed, workdir, checks, info)
            fx = workload.load(seed, workdir)
            workload.warm_up(fx, checks)
            times.append(time.perf_counter() - t0)
        tags.append(tag)
    return fx, times, tags


def measure(workload, fx, seconds, checks, info, tracer):
    """Closed loop: each iteration starts when the previous one returns.

    Returns (untraced, traced, traced_tags); each timing is a dict of the
    iteration's API call durations. With a tracer, iterations alternate
    untraced and traced. No iteration starts that the previous one's
    duration says would end past the deadline, once the minimum is done.
    """
    untraced, traced, traced_tags = [], [], []
    attempts = {False: 0, True: 0}
    start = time.perf_counter()
    last = 0.0
    i = 0
    while True:
        enough = (attempts[False] >= 1 and attempts[True] >= 1) if tracer else attempts[False] >= MIN_ITERATIONS
        if enough and time.perf_counter() - start + last > seconds:
            break
        use_trace = tracer is not None and i % 2 == 1
        tag = f"it{i}"
        t0 = time.perf_counter()
        with tagged(tracer if use_trace else None, tag):
            try:
                timing = workload.run(fx, checks, info)
            except Exception:
                traceback.print_exc()
                checks.check(f"iteration {tag} completed", False)
                timing = None
        last = time.perf_counter() - t0
        attempts[use_trace] += 1
        if timing is not None:
            (traced if use_trace else untraced).append(timing)
            if use_trace:
                traced_tags.append(tag)
        i += 1
    return untraced, traced, traced_tags


def memory_probe(name, seed, workdir, checks) -> float:
    """Peak RSS of a fresh untraced process running one iteration."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--memory-probe", "--workload", name,
           "--seed", str(seed), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"memory probe for {name} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    checks.attempted += result["attempted"]
    checks.failures += result["failures"]
    return result["peak_mem_mb"]


def probe_main(name, seed, workdir) -> int:
    workload = WORKLOADS[name]
    checks = Checks()
    workload.run(workload.load(seed, workdir), checks, {"digests": {}})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_mem_mb": peak_kb / 1024.0, "attempted": checks.attempted,
                      "failures": checks.failures}))
    return 0


def walls(timings):
    return [sum(t.values()) for t in timings]


def run_workload(name, seed, seconds, trace) -> dict:
    workload = WORKLOADS[name]
    spec = benchmark_spec()
    checks = Checks()
    info = {"digests": {}, "checkpoint_bytes": 0}
    tracer = Tracer() if trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        fx, setup_times, setup_tags = set_up(workload, seed, workdir, checks, info, tracer)
        untraced, traced, traced_tags = measure(workload, fx, seconds, checks, info, tracer)
        peak_mb = None if trace else memory_probe(name, seed, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"setup_s": summarize(setup_times), "wall_s": summarize(walls(untraced))}
    derived = [workload.derived(fx, t) for t in untraced]
    for key in derived[0]:
        detail[key] = summarize([d[key] for d in derived])
    if trace:
        layers = layer_metrics(tracer, traced_tags, setup_tags)
        layers["checkpoint.bytes"] = float(info["checkpoint_bytes"])
        layers["trace.overhead_ratio"] = min(walls(traced)) / min(walls(untraced))
        wanted = spec["per_layer"]
        values = layers
    else:
        detail["peak_mem_mb"] = summarize([peak_mb])
        wanted = spec["end_to_end"]
        # Interference on a shared host only ever adds time, and here it
        # comes in bursts that can cover most of a run: the fastest
        # iteration is the steady estimate of the program's own cost.
        values = {"wall_s": detail["wall_s"]["min"], "setup_s": detail["setup_s"]["median"],
                  "peak_mem_mb": peak_mb}
    rate = checks.failed / max(checks.attempted, 1)
    detail["error_rate"] = {"median": rate, "min": rate, "n": checks.attempted, "tail": None}

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "result": result, "failures": checks.failures,
        "end_to_end": detail, "setup_times_s": setup_times,
        "iterations": {"untraced": untraced, "traced": traced},
        "digests": info["digests"],
    }
    stem = OUT_DIR / f"{name}-seed{seed}-trace{trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.write_tsv(f"{stem}-spans.tsv")

    print(f"# {name} seed={seed} trace={trace} {json.dumps(record['environment'], sort_keys=True)}")
    for key, s in detail.items():
        tail = f"p{s['tail']['p']:g} {s['tail']['value']:.6g}" if s["tail"] else "p- none"
        print(f"{key:<20} {E2E_UNITS[key]:<7} median {s['median']:<12.6g} min {s['min']:<12.6g} "
              f"{tail:<16} n={s['n']}")
    if trace:
        for m in wanted:
            print(f"{m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    for label in checks.failures:
        print(f"check failed: {label}")
    print(f"digests {json.dumps(info['digests'], sort_keys=True)}")
    return result


def run_all(seed, seconds, trace) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 30)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.memory_probe:
        return probe_main(args.workload, args.seed, args.workdir)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
