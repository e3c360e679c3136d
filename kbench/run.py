"""kolmo benchmark: CLI job streams run in-process, end to end and per layer.

Usage (from the root of a checkout)::

    python3 kbench/run.py --workload steer-chain --seed 1 --seconds 15 --trace 0

The run writes the model files and a seeded job list under ``.kbench_work/``,
runs the jobs through ``kolmo.cli.main(argv)`` in a closed loop with one
client, checks every job's outputs, and prints one JSON object as its last
line of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same jobs untraced and then traced, checks that both
passes wrote byte-identical files, and reports the per-layer metrics.

The program under test is ``src/kolmo`` of the checkout; the benchmark sets
no thread knob (neither ``KOLMO_THREADS`` nor a BLAS variable).  Without
``src/kolmo`` it exits with code 2 and prints no result.  NOTES.md lists the
known failures that every run counts in ``failed``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".kbench_work"
OUTPUT_EXTS = (".csv", ".json", ".manifest.json")

# Blocks a run executes at least.  At --seconds 15 every workload stops right
# after these, at least 10% of a block away from stopping one block earlier
# or later, so the job count is the same on every run.  The tail percentile is
# the highest one with at least ten jobs beyond it at that count.
MIN_BLOCKS = {"steer-chain": 3, "exact-kernel": 5, "mc-gauss": 4, "mc-variable": 3}


def tail_percentile(n):
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n)))


# A shared host's speed drifts: on the reference host (NOTES.md) the same
# job's wall time moves by 10-25% over tens of seconds, and CPU time moves
# with it.  A fixed numpy kernel, timed before and after every job, tracks
# that drift.  Every end-to-end timing is scaled by REFERENCE_S, the kernel's
# median time on the unloaded reference host, over the kernel's time around
# it.  The raw figures are on the "# run" line.
REFERENCE_S = 0.95e-3
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_SHIFT = np.diag(np.ones(4), -1)
_KERNEL_FACTOR = np.tril(_KERNEL_RNG.random((5, 5))) + np.eye(5)


def host_speed():
    """Median time of a fixed kernel: small-matrix calls and one bulk product."""
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        for i in range(16):
            M = _KERNEL_SHIFT * (i / 16.0)
            np.linalg.eigvalsh(M + M.T)
            np.linalg.solve(np.eye(5) + M, np.ones(5))
        _KERNEL_RNG.standard_normal((8192, 5)) @ _KERNEL_FACTOR.T
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


IMPORT_SAMPLES = 7
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy\n"
    "t0 = time.perf_counter()\n"
    "import scipy.linalg\n"
    "t1 = time.perf_counter()\n"
    "import kolmo.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


def import_kolmo():
    """Import ``kolmo.cli`` from the checkout; return it and the import sample."""
    sys.path.insert(0, str(SRC))
    before = host_speed()
    t0 = time.perf_counter()
    import scipy.linalg  # noqa: F401

    t1 = time.perf_counter()
    import kolmo.cli

    t2 = time.perf_counter()
    return kolmo.cli, (t1 - t0, t2 - t1, 0.5 * (before + host_speed()))


def import_samples(first, n):
    """The in-process import sample plus ``n - 1`` from fresh interpreters.

    A sample is (scipy.linalg import s, kolmo import s, host kernel s).
    """
    samples = [first]
    for _ in range(n - 1):
        before = host_speed()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        a, b = proc.stdout.split()
        samples.append((float(a), float(b), 0.5 * (before + host_speed())))
    return samples


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "KOLMO_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class JobResult:
    def __init__(self, job, latency, rc, stderr):
        self.job = job
        self.latency = latency
        self.rc = rc
        self.stderr = stderr
        self.reason = None
        self.known = None
        self.hashes = {}
        self.bytes_written = 0
        self.chain_steps = 0
        self.clauses = {}
        self.stats = None
        self.scaled = None  # latency at the reference host speed

    @property
    def failed(self):
        return self.rc != 0 or self.reason is not None


def run_job(main, job, inject_failure=False):
    """Run one job in the current directory, check and then delete its outputs."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(job.argv("../models"))
        except Exception:  # a crash is recorded as a failed job, not raised
            rc = None
            traceback.print_exc(file=err)
        latency = time.perf_counter() - t0
    res = JobResult(job, latency, rc, err.getvalue())
    files = {}
    for ext in OUTPUT_EXTS:
        path = Path(job.name + ext)
        if path.exists():
            data = path.read_bytes()
            path.unlink()
            res.hashes[ext] = hashlib.sha256(data).hexdigest()
            res.bytes_written += len(data)
            files[ext] = data.decode()
    if rc == 0:
        try:
            res.reason = checks.CHECKS[job.sub](job, files)
        except (KeyError, ValueError, IndexError, np.linalg.LinAlgError) as exc:
            res.reason = f"outputs unreadable: {exc!r}"
        if inject_failure:
            res.reason = "injected output-check failure"
    if res.failed:
        text = res.stderr + (res.reason or "")
        res.known = checks.known_failure(job.sub, text)
    elif job.sub == "chain":
        res.chain_steps = json.loads(files[".json"])["J"]
        _, rows = checks.read_csv(files[".csv"])
        for row in rows[:-1]:
            res.clauses[row[-1]] = res.clauses.get(row[-1], 0) + 1
    return res


def run_pass(main, directory, next_jobs, inject_failure=False, tracer=None):
    """Run jobs with ``directory`` as cwd.

    ``next_jobs(results)`` returns the next list of jobs, or None to stop.
    """
    directory.mkdir(parents=True)
    results = []
    call = main if tracer is None else tracer.job(main)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        speed = host_speed()
        while (jobs := next_jobs(results)) is not None:
            for job in jobs:
                res = run_job(call, job, inject_failure and not results)
                if tracer is not None:
                    res.stats = tracer.take_job_stats()
                after = host_speed()
                res.scaled = res.latency * REFERENCE_S / (0.5 * (speed + after))
                speed = after
                results.append(res)
    finally:
        os.chdir(cwd)
    return results


def timed_blocks(gen, seconds, min_blocks):
    """Whole blocks until ``min_blocks`` are done and the jobs have taken
    ``seconds`` at the reference host speed.

    Counting scaled time, not wall time, makes the number of blocks, and so
    the job count, the same on every run whatever the host's load.
    """
    index = 0

    def next_jobs(results):
        nonlocal index
        if index >= min_blocks and sum(r.scaled for r in results) >= seconds:
            return None
        index += 1
        return gen.block(index - 1)

    return next_jobs


def once(jobs):
    return lambda results: None if results else jobs


def rerun_identical(main, directory, results):
    """Rerun the first job that succeeded; its files must be byte-identical."""
    first = next((r for r in results if not r.failed), None)
    if first is None:
        return True
    again = run_pass(main, directory, once([first.job]))[0]
    return again.rc == 0 and again.hashes == first.hashes


def timings(latencies, tail):
    lat = np.array(latencies)
    return {
        "jobs_per_s": (len(lat) / float(lat.sum()), "1/s"),
        "job_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
        "job_tail_ms": (float(np.percentile(lat, tail)) * 1e3, "ms"),
    }


def end_to_end(results, setup_s, tail):
    return {
        "setup_s": (setup_s, "s"),
        **timings([r.scaled for r in results], tail),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(results, untraced, imports):
    st = tracing.JobStats()
    ok_chain = tracing.JobStats()
    for r in results:
        st.merge(r.stats)
        if r.job.sub == "chain" and not r.failed:
            ok_chain.merge(r.stats)
    steps = sum(r.chain_steps for r in results)
    clauses = {k: sum(r.clauses.get(k, 0) for r in results)
               for k in ("cost-budget", "time-budget", "terminal")}

    def ms(ns):
        return ns / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    n = len(results)
    path_steps = st.path_steps
    out = {
        "import.scipy_linalg_s": (statistics.median(a for a, _, _ in imports), "s"),
        "import.kolmo_s": (statistics.median(b for _, b, _ in imports), "s"),
        "model.calls": (st.layer_calls["model"], "count"),
        "model.busy_ms": (ms(st.layer_busy_ns["model"]), "ms"),
        "gramian.calls": (st.layer_calls["gramian"], "count"),
        "gramian.busy_ms": (ms(st.layer_busy_ns["gramian"]), "ms"),
        "gramian.self_ms": (ms(st.layer_self_ns["gramian"]), "ms"),
        "expm_calls": (st.expm_calls, "count"),
        "expm_per_job": (ratio(st.expm_calls, n), "count"),
        "expm.busy_ms": (ms(st.layer_busy_ns["linalg"]), "ms"),
        "control.calls": (st.layer_calls["control"], "count"),
        "control.busy_ms": (ms(st.layer_busy_ns["control"]), "ms"),
        "control.kappa.busy_ms": (ms(st.key_busy_ns["control.kappa"]), "ms"),
        "chain.busy_ms": (ms(st.layer_busy_ns["chain"]), "ms"),
        "chain.steps": (steps, "count"),
        "chain.ms_per_step": (ratio(ms(ok_chain.layer_busy_ns["chain"]), steps), "ms"),
        "chain.expm_per_step": (ratio(ok_chain.expm_in_layer["chain"], steps), "count"),
        **{f"chain.clause.{k}": (v, "count") for k, v in clauses.items()},
        "kernel.calls": (st.layer_calls["kernel"], "count"),
        "kernel.busy_ms": (ms(st.layer_busy_ns["kernel"]), "ms"),
        "kernel.targets": (st.kernel_targets, "count"),
        "mc.simulate.calls": (st.key_calls["mc.simulate"], "count"),
        "mc.simulate.busy_ms": (ms(st.key_busy_ns["mc.simulate"]), "ms"),
        "mc.path_steps": (path_steps, "count"),
        "mc.simulate.ns_per_path_step": (ratio(st.key_busy_ns["mc.simulate"], path_steps), "ns"),
        "mc.rng.busy_ms": (ms(st.rng_ns), "ms"),
        "mc.normal_draws": (st.normal_draws, "count"),
        "mc.draws_per_path_step": (ratio(st.normal_draws, path_steps), "1"),
        "mc.paths_useful_ratio": (ratio(st.paths_returned, st.rows_simulated), "1"),
        "mc.density.calls": (st.key_calls["mc.density"], "count"),
        "mc.density.busy_ms": (ms(st.key_busy_ns["mc.density"]), "ms"),
        "mc.verify.busy_ms": (ms(st.key_busy_ns["mc.verify"]), "ms"),
        "mc.simulations_per_verify": (
            ratio(st.simulations_in_verify, st.key_calls["mc.verify"]), "1"),
        "cli.self_ms": (ms(st.layer_self_ns["cli"]), "ms"),
        "cli.bytes_written": (sum(r.bytes_written for r in results), "B"),
        "trace.overhead_ratio": (
            ratio(sum(r.scaled for r in results), sum(r.scaled for r in untraced)), "1"),
        "failed_ratio": (ratio(sum(r.failed for r in results), n), "1"),
    }
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="one minimal block and one import sample (the benchmark's own tests)")
    p.add_argument("--inject-failure", action="store_true",
                   help="fail the first job's output check (the benchmark's own tests)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kolmo" / "cli.py").is_file():
        print(f"kbench: no kolmo sources under {SRC}", file=sys.stderr)
        return 2
    cli, first_import = import_kolmo()
    imports = import_samples(first_import, 1 if args.small else IMPORT_SAMPLES)
    setup_s = statistics.median((a + b) * REFERENCE_S / speed for a, b, speed in imports)

    gen = workloads.Generator(args.workload, args.seed, small=args.small)
    min_blocks = 1 if args.small else MIN_BLOCKS[args.workload]
    tail = tail_percentile(min_blocks * len(gen.block(0)))  # block 0 also registers the models
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        models = work / "models"
        models.mkdir(parents=True)
        for name, cfg in gen.models.items():
            (models / f"{name}.json").write_text(json.dumps(cfg, indent=2) + "\n")

        if args.trace:
            seconds = 0.0 if args.small else args.seconds / 2.0
            plain = run_pass(cli.main, work / "untraced", timed_blocks(gen, seconds, 1),
                             args.inject_failure)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                results = run_pass(cli.main, work / "traced", once([r.job for r in plain]),
                                   args.inject_failure, tracer)
            finally:
                tracer.uninstall()
            identical = all(a.hashes == b.hashes and a.rc == b.rc for a, b in zip(plain, results))
            metrics = per_layer(results, plain, imports)
        else:
            seconds = 0.0 if args.small else args.seconds
            results = run_pass(cli.main, work / "untraced", timed_blocks(gen, seconds, min_blocks),
                               args.inject_failure)
            identical = True
            metrics = end_to_end(results, setup_s, tail)
        identical = identical and rerun_identical(cli.main, work / "rerun", results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = [r for r in results if r.failed]
    unknown = [r for r in failed if r.known is None]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(results),
        "tail_percentile": tail,
        "scaled_loop_s": sum(r.scaled for r in results),
        "raw": {k: v for k, (v, _) in timings([r.latency for r in results], tail).items()},
        "host_slowdown": statistics.median(r.latency / r.scaled for r in results),
        "byte_identical": identical,
        "known_failures": collections.Counter(
            f"{r.job.sub} {r.job.model_name}: {r.known}" for r in failed if r.known),
        "unknown_failures": [f"{r.job.name} {r.job.model_name}: {(r.reason or r.stderr).strip()[-200:]}"
                             for r in unknown],
    }
    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# run " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": identical and not unknown,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
