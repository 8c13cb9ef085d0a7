"""One workload in one fresh process: set up, run the timed loop, check.

Usage (normally started by ``run.py``)::

    python3 bench/worker.py --workload audit --seed 1 --seconds 20 --trace 0

Prints one JSON object on its last line of standard output.  With
``--trace 0`` it holds the job and kernel times; with ``--trace 1`` the
same jobs run under the wrappers of :mod:`tracer` and it holds the
per-layer figures.  Both hold the peak RSS of the process and, as
``harness_rss_mb``, its peak before the program is imported.  A job that raises counts as failed; the worker exits
with code 1 when the program cannot be imported, and 3 when the
reference kernel returns a wrong result.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import spec
import workloads
from kernel import KERNEL_CHECKSUM, reference_kernel
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


@contextlib.contextmanager
def capture():
    """Collect what the CLI prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        yield buf


def import_program(workload):
    sys.path.insert(0, str(SRC))
    for name in spec.MODULES[workload]:
        importlib.import_module(name)
    return sys.modules["triring"]


def job_class(job):
    kind = job["kind"]
    if kind == "audit":
        return f"audit {math.prod(d + 1 for d in job['profile'])} monomials"
    if kind == "expand":
        return f"expand point={job['point']} N={job['order']}"
    return kind


def describe(job):
    details = {k: v for k, v in job.items() if k not in ("kind", "triple")}
    return f"{job['kind']} ({workloads.triple_label(job['triple'])}) {details}"


def check(job, result, triring):
    if job["kind"] != "expand":
        return checks.CHECKS[job["kind"]](job, result)
    params = triring.validate(*workloads.triple_values(job["triple"]))
    bindings = triring.hypergeom.connection_constants(params).bindings
    return checks.check_expand(job, result, bindings)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    blocks = workloads.make_blocks(args.workload, args.seed)
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    triring = import_program(args.workload)
    spec.warm_up(triring, args.workload)
    worker_setup_s = time.perf_counter() - t0

    cache = triring.multiplicity.generator_series  # looked up before wrapping
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(triring)
    info0 = cache.cache_info()

    job_s, kernel_s, problems, failures = [], [], [], []
    by_class = {}
    output_bytes = 0
    done = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for job in blocks[done % len(blocks)]:
            inp = workloads.program_input(job, triring)
            k0 = time.perf_counter()
            checksum = reference_kernel()
            k1 = time.perf_counter()
            if tracer:
                tracer.active = True
            try:
                result = workloads.run_job(job, inp, triring, capture)
            except Exception:  # a failed operation is counted, not fatal
                result = None
                failures.append(f"{describe(job)}: {traceback.format_exc(limit=3)}")
            j1 = time.perf_counter()
            if tracer:
                tracer.active = False
            if checksum != KERNEL_CHECKSUM:
                print(f"reference kernel returned {checksum}", file=sys.stderr)
                return 3
            job_s.append(j1 - k1)
            kernel_s.append(k1 - k0)
            by_class.setdefault(job_class(job), []).append(j1 - k1)
            if result is not None:
                if job["kind"] == "expand":
                    output_bytes += len(result[1].encode())
                problems += [f"{describe(job)}: {p}" for p in check(job, result, triring)]
        done += 1
    loop_s = time.perf_counter() - start
    k0 = time.perf_counter()
    reference_kernel()
    after = kernel_s[1:] + [time.perf_counter() - k0]
    # each job over the mean of the kernel runs on either side of it
    ratios = [2 * j / (k + k_next) for j, k, k_next in zip(job_s, kernel_s, after)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info1 = cache.cache_info()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": len(job_s),
        "blocks": done,
        "loop_s": loop_s,
        "worker_setup_s": worker_setup_s,
        "problems": problems[:20],
        "problem_count": len(problems),
        "failures": failures[:5],
        "failed": len(failures),
        "job_s": job_s,
        "kernel_s": kernel_s,
        "ratios": ratios,
        "job_s_by_class": {k: statistics.median(v) for k, v in sorted(by_class.items())},
        "peak_rss_mb": peak_rss_mb,
        "harness_rss_mb": harness_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        report["per_layer"] = tracer.metrics(
            len(job_s), info1.hits - info0.hits, info1.misses - info0.misses, output_bytes
        )
        report["spans"] = tracer.spans(len(job_s))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
