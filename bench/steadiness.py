"""Steadiness of the end-to-end metrics over seeds and over repeated sets.

Usage::

    python3 bench/steadiness.py      # 2 sets x 10 runs x 4 workloads

Runs ``run.py`` for ``run_seconds`` of ``BENCHMARK.json`` with a
different seed each time, alternating between the two sets (set A takes
seeds 101-110, set B seeds 111-120) and alternating which set goes
first.  For every (workload, metric) pair it prints each set's median
and quartiles, the spread (third minus first quartile, as a share of the
median) against a third of the metric's bound in ``BENCHMARK.json``, and
how far set B's median moved from set A's against the bound; a ``!``
marks a figure past its limit.  It also prints each set's share of
failed operations.  The record goes to
``bench/results/steadiness-<time>.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 101
SETS = "AB"


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs, bench):
    """Rows of (workload, metric, per-set stats, spread verdicts, shift)."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rows = []
    for workload, sets in runs.items():
        for metric, bound in bounds.items():
            stats = []
            for results in sets:
                values = [r["metrics"][metric]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                stats.append({"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                              "values": values})
            shift = stats[1]["median"] / stats[0]["median"] - 1
            rows.append({"workload": workload, "metric": metric, "bound": bound,
                         "sets": stats, "shift": shift})
    return rows


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = {w: [[] for _ in SETS] for w in names}
    started = time.time()
    for i in range(RUNS):
        for workload in names:
            for s in (0, 1) if i % 2 == 0 else (1, 0):
                seed = FIRST_SEED + s * RUNS + i
                result = one_run(workload, seed, seconds)
                runs[workload][s].append(dict(result, seed=seed))
                m = result["metrics"]
                print(f"[{time.time() - started:7.0f} s] set {SETS[s]} {workload:8s} seed {seed:4d} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in m.items())
                      + f" attempted={result['attempted']} failed={result['failed']}"
                      + ("" if result["correct"] else " INCORRECT"), flush=True)

    rows = summarize(runs, bench)
    print(f"\n2 sets of {RUNS} runs, {seconds} s each; spread = (q3 - q1) / median; "
          "target spread < bound / 3 and |shift| < bound")
    print(f"{'workload':9s} {'metric':17s} {'bound':>5s}  "
          + "  ".join(f"{'set ' + name + ' median [q1, q3]':>30s} {'spread':>7s}" for name in SETS)
          + "  shift B/A")
    for row in rows:
        cells = []
        for st in row["sets"]:
            flag = " " if st["spread"] < row["bound"] / 3 else "!"
            cells.append(f"{st['median']:10.5g} [{st['q1']:8.5g}, {st['q3']:8.5g}] {st['spread']:6.2%}{flag}")
        flag = "" if abs(row["shift"]) <= row["bound"] else "!"
        print(f"{row['workload']:9s} {row['metric']:17s} {row['bound']:5.2f}  " + "  ".join(cells)
              + f"  {row['shift']:+8.2%}{flag}")
    for workload, sets in runs.items():
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        print(f"{workload:9s} failed share per set: {shares}; all outputs correct: {correct}")
    out = HERE / "results" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "rows": rows, "runs": runs}, indent=1))
    print(f"record: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
