"""Series mul, invert and exp at N = 24, 48 and 96, in seconds and in ref.

Usage::

    python3 bench/series_micro.py

The operands are the exact z = 0 expansions of the triple
1/5, 1/4, 1/2: ``u0 * u1``, ``u0.invert()`` and ``tau.exp()``.  Each
figure is the median of seven timings, each divided by the reference
kernel run just before it.  These are reference figures for the README;
they are not part of the benchmark's metrics.
"""

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import triring  # noqa: E402
from kernel import reference_kernel  # noqa: E402

REPEATS = 7


def timed(fn):
    seconds, refs = [], []
    for _ in range(REPEATS):
        k0 = time.perf_counter()
        reference_kernel()
        k1 = time.perf_counter()
        fn()
        t = time.perf_counter() - k1
        seconds.append(t)
        refs.append(t / (k1 - k0))
    return statistics.median(seconds), statistics.median(refs)


def main():
    params = triring.validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
    print(f"{'N':>4s} {'op':8s} {'seconds':>10s} {'ref':>8s}")
    for n in (24, 48, 96):
        u0 = triring.u_series("u0", params, n)
        u1 = triring.u_series("u1", params, n)
        tau, _ = triring.tau_q_series_at_zero(params, n)
        for op, fn in (("mul", lambda: u0 * u1), ("invert", u0.invert), ("exp", tau.exp)):
            s, r = timed(fn)
            print(f"{n:4d} {op:8s} {s:10.5f} {r:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
