"""The benchmark of the triring toolkit.

Usage::

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # all four workloads in turn

Each workload runs in a fresh single-threaded process (``worker.py``),
one after another.  The set-up time comes from several more fresh
processes (``setup_probe.py``), each timing one set-up against the
reference kernel.  The command prints every metric
with its unit, then reference figures, and as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of
a traced run with ``--trace 1``.  Each run's full record is written to
``bench/results/``.  It exits with a code other than 0, and prints no
result, when the program is missing or a process fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracer  # noqa: E402

#: the processes of one workload must end within --seconds plus this margin:
#: the last block, the checks and the set-up probes
DEADLINE_MARGIN_S = 145
#: set-up probes counted before the worker, and as many after it
SETUP_PROBES = 10
#: seconds that one set-up reference of ``setup_probe.py`` stands for: its
#: median on the host of the recorded figures; never change it
SETUP_REF_SECONDS = 0.030

END_TO_END = {
    "latency_p50_ref": "ref",
    "latency_mean_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class RunFailed(Exception):
    pass


def _python(script, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{script} {' '.join(args)} did not end in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(
            f"{script} {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return proc.stdout.strip().splitlines()[-1]


def setup_probes(workload, count, deadline):
    """(set-up seconds, reference seconds) from ``count`` fresh processes."""
    return [
        tuple(map(float, _python("setup_probe.py", [workload], deadline).split()))
        for _ in range(count)
    ]


def run_workload(workload, seed, seconds, trace, deadline):
    """One run: set-up probes, the worker, and more set-up probes.

    The host's speed changes by a third between runs and holds for
    seconds to minutes at a time.  ``setup_s`` is the median over the probes of
    set-up ÷ the probe's reference around it, given in seconds at
    ``SETUP_REF_SECONDS`` per reference, so that the speed cancels out
    as it does in the latency metrics, and half the probes run before the
    worker and half after it, so that they meet two states of the host.
    The first probe is not counted, in case it still compiles the
    program's bytecode."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    probes = [] if trace else setup_probes(workload, 1 + SETUP_PROBES, deadline)[1:]
    record = json.loads(_python("worker.py", args, deadline))
    if not trace:
        probes += setup_probes(workload, SETUP_PROBES, deadline)
    jobs = record["jobs"]
    if trace:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": tracer.metric_unit(name)}
            for name in tracer.PER_LAYER
        }
    else:
        values = {
            "latency_p50_ref": statistics.median(record["ratios"]),
            "latency_mean_ref": sum(record["job_s"]) / sum(record["kernel_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "setup_s": statistics.median(s / r for s, r in probes) * SETUP_REF_SECONDS,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        record["setup_samples_s"] = [s for s, _ in probes]
        record["setup_reference_s"] = [r for _, r in probes]
    result = {
        "correct": record["problem_count"] == 0,
        "attempted": jobs,
        "failed": record["failed"],
        "metrics": metrics,
    }
    return result, record


def report(workload, result, record):
    print(f"== {workload} (seed {record['seed']}, trace {record['trace']}): "
          f"{record['jobs']} jobs in {record['blocks']} blocks, {record['loop_s']:.1f} s")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for p in record["problems"] + record["failures"]:
        print(f"  PROBLEM {p}")
    job_s, kernel_s = record["job_s"], record["kernel_s"]
    print("  reference figures (no bound):")
    print(f"    peak RSS {record['peak_rss_mb']:.1f} MB, of which "
          f"{record['harness_rss_mb']:.1f} MB before the program was imported")
    if "setup_samples_s" in record:
        print(f"    set-up seconds p50 {statistics.median(record['setup_samples_s']):.4f}, "
              f"reference seconds p50 {statistics.median(record['setup_reference_s']):.5f}")
    print(f"    job seconds p50 {statistics.median(job_s):.4f}, mean {statistics.fmean(job_s):.4f}")
    print(f"    kernel seconds p50 {statistics.median(kernel_s):.5f} (1 ref)")
    for cls, s in record["job_s_by_class"].items():
        print(f"    {cls:36s} p50 {s:.4f} s")
    if "spans" in record:
        print("  largest self times per job:")
        for name, span in list(record["spans"].items())[:12]:
            print(f"    {name:44s} {span['self_s']:.5f} s  {span['calls']:.1f} calls")


def main(argv=None):
    ap = argparse.ArgumentParser(description="triring benchmark")
    ap.add_argument("--workload", choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "triring" / "__init__.py").is_file():
        print(f"error: the program's source is not at {ROOT / 'src' / 'triring'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    results = {}
    for workload in [args.workload] if args.workload else spec.WORKLOADS:
        deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
        try:
            result, record = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(workload, result, record)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (RESULTS / name).write_text(json.dumps(dict(record, result=result)))
        results[workload] = result
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
