"""Reference kernels for machine-speed normalisation.

On a shared host the speed of a vCPU changes by up to 2x from one second to
the next (other guests on the same core, caches and memory bandwidth).  The
workloads time their operations next to a fixed kernel and scale them by
nominal / kernel time, so that a scaled time reads as CPU time on a core
where the kernel takes its nominal time.  Different work slows down by
different factors, so each workload uses the kernel that resembles it:
``kernel_ns`` is a sparse product of Fraction-valued dictionaries, like the
library's own arithmetic (`numeric`, `skew`, and `verify`, where
bench/child.py samples it on a CPU timer), and ``startup_kernel_ns``
unmarshals and executes a module of function and class definitions, like
interpreter start and imports (`cli`).  Both are benchmark code, so no
library change can move them.
"""

import gc
import marshal
import time
from fractions import Fraction
from operator import add

# CPU times of the kernels on an uncontended Intel Xeon core at 2.0 GHz,
# Python 3.11.
NOMINAL_NS = 800_000
NOMINAL_STARTUP_NS = 1_600_000

_A = {(i, 5 - i % 3, i % 2): Fraction(i * 7 - 40, i + 1) for i in range(14)}
_B = {(i % 4, i, 3): Fraction(11 - i, 3) for i in range(12)}
_MODULE = marshal.dumps(compile("".join(
    f"def f{i}(a, b=({i}, '{i}'), *c, **d):\n"
    f"    return [a + x for x in b if x] or {{'k{i}': c}}\n"
    f"class C{i}:\n"
    f"    x = {i}\n"
    f"    def m(self, y):\n"
    f"        return self.x * y\n" for i in range(150)), "<kernel>", "exec"))


def _timed(work) -> int:
    """CPU nanoseconds of work().  The collector is off meanwhile, so the
    size of the library's heap cannot leak into the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time_ns()
        work()
        return time.thread_time_ns() - t0
    finally:
        if enabled:
            gc.enable()


def _products():
    for _ in range(2):
        out = {}
        for ea, ca in _A.items():
            for eb, cb in _B.items():
                e = tuple(map(add, ea, eb))
                c = ca * cb
                s = out.get(e)
                out[e] = c if s is None else s + c


def _module():
    exec(marshal.loads(_MODULE), {"__name__": "kernel"})


def kernel_ns() -> int:
    return _timed(_products)


def startup_kernel_ns() -> int:
    return _timed(_module)
