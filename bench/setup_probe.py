"""Time one set-up of a workload in a fresh process.

Usage::

    python3 bench/setup_probe.py <workload>

Set-up is the import of the modules the workload calls plus the
warm-up that fills their lazy caches (the generator series of the
workload's triples).  The clock starts before ``import triring``; the
only module the program needs that is loaded earlier is ``fractions``,
which the reference kernel uses too.

Just before the clock starts and just after it stops, the probe times
its reference in the same process: one run of the reference kernel
(arithmetic, like the warm-up) plus one compile-and-run of a fixed
module source (loading code, like the import).  Prints the set-up
seconds and the mean of the two reference times on one line.
"""

import os
import sys
import time

import spec
from kernel import reference_kernel

#: the fixed module of the reference: small classes and functions, no
#: imports; never change it, like the kernel
MODULE = "\n".join(
    f"class C{i}:\n"
    f"    def __init__(self, a={i}, b='x{i}'):\n"
    f"        self.a, self.b = a, b\n"
    f"    def __repr__(self):\n"
    f"        return f'C{i}({{self.a!r}}, {{self.b!r}})'\n"
    f"def f{i}(x, y={i}):\n"
    f"    return [x * y + k for k in range({i % 7 + 1})]\n"
    f"T{i} = {{k: f{i}(k) for k in range(4)}}\n"
    for i in range(56)
)


def reference_seconds():
    start = time.perf_counter()
    reference_kernel()
    exec(compile(MODULE, "<reference>", "exec"), {})
    return time.perf_counter() - start


sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
before = reference_seconds()
start = time.perf_counter()
for name in spec.MODULES[sys.argv[1]]:
    __import__(name)
spec.warm_up(sys.modules["triring"], sys.argv[1])
setup_s = time.perf_counter() - start
after = reference_seconds()
print(repr(setup_s), repr((before + after) / 2))
