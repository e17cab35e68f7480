"""Benchmark for krrbounds: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
``--trace 0`` measures the end-to-end metrics with no wrapper installed and
checks every output.  ``--trace 1`` runs two fresh child processes, one
with the inherited BLAS thread setting and one with a single BLAS thread,
wraps the package's public functions in each and prints the per-layer
metrics (the single-thread ones with a ``.blas1`` suffix).  The last line
of standard output is the result; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh interpreters started per run to measure set-up time (median reported)
SETUP_REPEATS = {"full": 5, "tiny": 1}
RUN_DEADLINE_S = 170.0
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _import_package():
    """Import krrbounds from this checkout's src/, refusing any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import krrbounds.cli

    if SRC.resolve() not in Path(krrbounds.__file__).resolve().parents:
        raise ImportError(f"krrbounds imported from {krrbounds.__file__}, not from {SRC}")
    return krrbounds


@contextlib.contextmanager
def _workdir():
    """A scratch directory inside the checkout for the files a workload writes."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def _warm_up(args) -> None:
    """One untimed pass at tiny size: imports, BLAS thread pools and code paths."""
    from workloads import WORKLOADS

    with _workdir() as workdir:
        WORKLOADS[args.workload](args.seed, "tiny", workdir).run_pass(0)


def _run_pass(workload, k):
    """One pass; an exception fails the pass's operations instead of the run."""
    from workloads import Pass

    start = time.perf_counter()
    try:
        return workload.run_pass(k)
    except Exception:  # noqa: BLE001 - counted as failed operations
        traceback.print_exc()
        seconds = time.perf_counter() - start
        return Pass(seconds, [seconds], workload.ops_per_pass, None)


def _repeat_for(seconds, step) -> None:
    """step(0), step(1), ... until the next step would end after ``seconds``."""
    start, k = time.perf_counter(), 0
    while True:
        step(k)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return


def _check(workload, passes):
    """(attempted, failed, max_rel_err) over every pass, failed passes included."""
    done = [p.output for p in passes if p.output is not None]
    lost = (len(passes) - len(done)) * workload.ops_per_pass
    checked = workload.check(done)
    return checked.attempted + lost, checked.failed + lost, checked.max_rel_err


def _probe_setup(args) -> int:
    """Child of an untraced run: build the workload's inputs, say 'ready', exit."""
    _import_package()
    from workloads import WORKLOADS

    with _workdir() as workdir:
        WORKLOADS[args.workload](args.seed, args.size, workdir)
        print("ready", flush=True)
    return 0


def _setup_seconds(args) -> float:
    """Fresh interpreter to inputs ready, measured from outside."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "setup", "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def run_untraced(args) -> dict:
    setup = [_setup_seconds(args) for _ in range(SETUP_REPEATS[args.size])]
    _import_package()
    from machine import machine_facts
    from metrics import percentile
    from workloads import WORKLOADS

    _warm_up(args)
    with _workdir() as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        passes = []
        _repeat_for(args.seconds, lambda k: passes.append(_run_pass(workload, k)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, max_rel_err = _check(workload, passes)

    calls_ms = [s * 1e3 for p in passes for s in p.call_seconds]
    busy = sum(p.seconds for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.seconds for p in passes),
        "ops_per_s": sum(p.ops for p in passes) / busy,
        "op_ms_p50": percentile(calls_ms, 50),
        "op_ms_p90": percentile(calls_ms, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload}: {len(passes)} passes in {busy:.3f} s, "
          f"{len(calls_ms)} timed calls for op_ms, {len(setup)} set-up samples")
    print(f"checks: failed_frac {failed / attempted:.6g} ({failed}/{attempted}), "
          f"max_rel_err {max_rel_err:.3e}")
    print("facts " + json.dumps(machine_facts(ROOT)))
    return _result(failed, attempted, values)


def _probe_trace(args) -> int:
    """Child of a traced run: traced passes (and untraced ones for the overhead)."""
    start = time.perf_counter()
    _import_package()
    import_ms = (time.perf_counter() - start) * 1e3
    import oracle
    from machine import machine_facts
    from metrics import HOOKS, layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(on_result=HOOKS, reference=oracle.load_effdim_reference())
    plain, traced = [], []
    _warm_up(args)
    with _workdir() as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)

        def pair(k):
            if args.overhead:
                plain.append(_run_pass(workload, k))
            tracer.pass_id = k
            with tracer.installed():
                traced.append(_run_pass(workload, k))

        _repeat_for(args.seconds, pair)
        attempted, failed, _ = _check(workload, plain + traced)

    values = layer_metrics(tracer, len(traced), [p.seconds for p in traced], import_ms)
    if args.overhead:
        values["trace.overhead_frac"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in plain) - 1.0
        )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": values, "passes": len(traced), "facts": machine_facts(ROOT)}
    print(json.dumps(result))
    return 0


def _trace_child(args, seconds, env, overhead, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "trace", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--size", args.size,
           "--overhead", str(int(overhead))]
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"traced child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_traced(args) -> dict:
    from metrics import BLAS1_SUFFIX, per_layer_catalog

    deadline = time.perf_counter() + RUN_DEADLINE_S
    inherited = _trace_child(args, args.seconds / 2, dict(os.environ), True, deadline)
    single = _trace_child(args, args.seconds / 2, dict(os.environ, **BLAS1_ENV), False, deadline)
    values = {}
    for name, _, _ in per_layer_catalog():
        if name.endswith(BLAS1_SUFFIX):
            values[name] = single["metrics"][name[: -len(BLAS1_SUFFIX)]]
        else:
            values[name] = inherited["metrics"][name]
    for label, child in (("inherited", inherited), ("blas1", single)):
        threads = [lib.get("threads") for lib in child["facts"]["openblas_runtime"]]
        print(f"traced {label}: {child['passes']} passes, OpenBLAS threads {threads}, "
              f"failed {child['failed']}/{child['attempted']}")
    print("facts " + json.dumps(inherited["facts"]))
    failed = inherited["failed"] + single["failed"]
    attempted = inherited["attempted"] + single["attempted"]
    return _result(failed, attempted, values)


def _result(failed: int, attempted: int, values: dict) -> dict:
    from metrics import END_TO_END, per_layer_catalog

    units = {name: unit for name, unit, *_ in END_TO_END + tuple(per_layer_catalog())}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-desk", "sweep-small", "bounds-grid", "effdim-empirical"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own tests")
    parser.add_argument("--probe", choices=("setup", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--overhead", type=int, default=0, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "krrbounds" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'krrbounds'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.probe == "setup":
        return _probe_setup(args)
    if args.probe == "trace":
        return _probe_trace(args)
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
