"""llx benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload jump|swirl|march --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the pipeline is imported from
its src/ directory and nowhere else. Before any measurement the run
starts bench/probe.py SETUP_REPEATS times to time set-up. Each probe and
each pass starts pinned to the allowed CPU that is fastest at that
moment.

--trace 0 repeats untraced passes while another pass fits in S seconds
(at least one) and reports the end-to-end metrics: wall_s (median pass),
setup_s (median probe) and peak_rss_mb (this process).
--trace 1 runs one untraced pass, then one pass with every layer
wrapped, and reports the per-layer metrics; trace.overhead_s is the
traced pass's wall time minus the untraced one's.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is the run record (versions, threads, commit, nx per
eps, every pass). Both, and the spans of a traced run, are also written
under bench/out/. A run that cannot set up the pipeline prints no result
and exits with code 2.
"""

import os

# one BLAS thread: the pipeline is serial, and more threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 7
CPUS = sorted(os.sched_getaffinity(0))
PROBE_TIMEOUT_S = 60
NAMES = ("jump", "swirl", "march")


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_pipeline():
    """Import llx from ROOT/src only; fail when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import llx
    except ImportError as exc:
        _fail(f"cannot import llx from {src}: {exc}")
    if not Path(llx.__file__).resolve().is_relative_to(src):
        _fail(f"llx was imported from {llx.__file__}, not from {src}")


def _pin_fastest_cpu() -> None:
    """Pin this process, and the children it starts, to the fastest CPU.

    On a shared host, other load slows one CPU at a time, for seconds to
    minutes. So each pass and each set-up probe starts on the CPU that
    ran a fixed banded solve fastest just before.
    """
    import numpy as np
    from scipy.linalg import solve_banded
    band = np.full((11, 3000), 0.1)
    band[5] = 2.0
    rhs = np.ones(3000)
    cost = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        laps = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(20):
                solve_banded((5, 5), band, rhs)
            laps.append(time.perf_counter() - start)
        cost[cpu] = statistics.median(laps)
    os.sched_setaffinity(0, {min(cost, key=cost.get)})


def _run_pass(workloads, inputs):
    _pin_fastest_cpu()
    return workloads.run_pass(inputs)


def _probe_setup(workload: str, seed: int) -> dict:
    """Start a fresh interpreter and time it until the pipeline is ready."""
    _pin_fastest_cpu()
    cmd = [sys.executable, str(BENCH / "probe.py"),
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or not line:
        _fail(f"set-up probe exited with code {code}")
    sample = json.loads(line)
    sample["setup_s"] = ready - start
    return sample


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by package."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    out[pkg.__name__] = int(getattr(lib, sym)())
                    break
    return out or {"env": int(os.environ["OPENBLAS_NUM_THREADS"])}


def _blas_version(pkg) -> str:
    deps = pkg.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    env.pop("GIT_DIR", None)
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _run_record(args, inputs) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "angle": inputs.angle, "epsilons": list(inputs.epsilons),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas": {"numpy": _blas_version(numpy),
                     "scipy": _blas_version(scipy)},
        "nproc": len(CPUS),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
    }


def _metrics(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists under kind, with its units.

    A layer that did no work on this workload has no entry and reads 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}


def _end_to_end(workloads, inputs, seconds, setup) -> tuple:
    passes = [_run_pass(workloads, inputs)]
    # after one pass: later passes only add allocator fragmentation
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while sum(p.wall_s for p in passes) + passes[-1].wall_s <= seconds:
        passes.append(_run_pass(workloads, inputs))
    return passes, _metrics("end_to_end", {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": rss_mb,
    }), None


def _per_layer(workloads, inputs, setup) -> tuple:
    import tracing
    reference = json.loads((BENCH / "reference.json").read_text())
    plain = _run_pass(workloads, inputs)
    tracer = tracing.Tracer()
    _pin_fastest_cpu()
    with tracer.installed(), tracer.region("pass"):
        traced = workloads.run_pass(inputs)
    passes = [plain, traced]

    layer = tracer.layer_metrics()
    steps = (layer.get("march.steps_accepted", 0)
             + layer.get("march.steps_rejected", 0))
    if steps:
        layer["march.step_yield"] = layer["march.steps_accepted"] / steps
        layer["march.node_steps_per_s"] = (layer["march.node_steps"]
                                           / layer["march.busy_s"])
    stage_sum = sum(layer.get(f"{stage}.busy_s", 0.0)
                    for stage in tracing.STAGES)
    devs = [workloads.max_rel_dev(p.outputs, reference[inputs.name])
            for p in passes if p.outputs]
    layer.update({
        "setup.import_s": statistics.median(p["import_s"] for p in setup),
        "setup.config_s": statistics.median(p["config_s"] for p in setup),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.covered_share": stage_sum / plain.wall_s,
        "out.max_rel_dev": max(devs, default=0.0),
        "fail_rate": (sum(p.failed for p in passes)
                      / sum(p.attempted for p in passes)),
    })
    return passes, _metrics("per_layer", layer), tracer.dump()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    _import_pipeline()
    sys.path.insert(0, str(BENCH))
    import workloads

    setup = [_probe_setup(args.workload, args.seed)
             for _ in range(SETUP_REPEATS)]
    inputs = workloads.prepare(args.workload, args.seed)
    if args.trace:
        passes, metrics, spans = _per_layer(workloads, inputs, setup)
    else:
        passes, metrics, spans = _end_to_end(workloads, inputs,
                                             args.seconds, setup)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for message in p.failures:
            print(f"failed: {message}", file=sys.stderr)
    record = _run_record(args, inputs)
    record["setup"] = setup
    record["nx"] = passes[0].nx
    record["passes"] = [vars(p) for p in passes]
    record["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
