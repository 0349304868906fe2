"""Closed-loop worker for the `numeric` and `skew` workloads, and the set-up
probe for every workload.  Run by bench/run.py in a fresh interpreter with
the checkout's src/ on PYTHONPATH; one caller, one operation in flight.

  loop.py setup WORKLOAD SEED             print set-up seconds
  loop.py run WORKLOAD SEED SECONDS       warm up, then measure for SECONDS
  loop.py trace WORKLOAD SEED ROUNDS      ROUNDS untraced, then ROUNDS traced

`run` and `trace` write one record per operation to stdout,
``round<TAB>phase<TAB>kind<TAB>cpu_ns<TAB>wall_ns<TAB>kernel_ns<TAB>payload``,
and end with one JSON line.  An operation's time is the CPU time of this
thread: the loop is single-threaded and does no I/O, so that is its wall
time less the slices the host gives to other guests, which would otherwise
dominate the tail of sub-millisecond calls.  kernel_ns is the mean time of
the reference kernel of bench/speed.py, timed right before and right after
the operation.  The
payload is the result the checker needs, "ok" when it was checked here, or "FAIL: ..." when the call
raised or a check here failed.  Records are written, not kept, so memory
stays flat over the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from math import factorial
from pathlib import Path

import inputs
import speed
from child import peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
WARMUP_ROUNDS = {"numeric": 20, "skew": 60}
MIN_OPS = 1000                 # so that p99 has at least ten samples beyond it
COMPLETENESS_EVERY = 16        # skew: check the full decomposition of every 16th input

SHAPES = {"hd222": (2, 2, 2), "hd223": (2, 2, 3), "hd232": (2, 3, 2), "hd322": (3, 2, 2),
          "hd2222": (2, 2, 2, 2), "det6": (6, 6), "pk333": (3, 3, 3), "pk2222": (2, 2, 2, 2),
          "pk33": (3, 3)}
KEYS = {"hh111": (1, 1, 1), "hh1111": (1, 1, 1, 1)}


def import_library():
    hf = importlib.import_module("hyperforms")
    src = (ROOT / "src" / "hyperforms").resolve()
    if Path(hf.__file__).resolve().parent != src:
        raise SystemExit(f"hyperforms imported from {hf.__file__}, not from {src}")
    return hf


def build(hf, kind: str, data: tuple) -> tuple:
    """Library arguments for one generated input."""
    def form(cs):
        d = len(cs) - 1
        return hf.MultiPoly(inputs.XY, {(d - i, i): c for i, c in enumerate(cs)})

    def vectors(vs):
        return [vs[i:i + 3] for i in range(0, 9, 3)]

    if kind in SHAPES:
        t = hf.Tensor(SHAPES[kind], data[0])
        return (t, data[1]) if kind.startswith("pk") else (t,)
    if kind in ("gramm33", "sg33"):
        return (hf.Tensor((3, 3), data[0]), vectors(data[1])) + data[2:]
    forms = [form(cs) for cs in data]
    if kind.startswith("hr"):
        return (forms,)
    return tuple(forms)


def call(hf, kind: str, args: tuple):
    """The operation; names are looked up per call so tracing sees them."""
    if kind in SHAPES and not kind.startswith("pk"):
        return hf.det_square(*args) if kind == "det6" else hf.hyperdet(*args)
    if kind.startswith("disc"):
        return hf.binary_form_disc(*args)
    if kind in KEYS:
        return hf.hyperhessian(args[0], KEYS[kind], inputs.XY)
    if kind.startswith("hr"):
        return hf.hyperresultant(args[0], inputs.XY)
    if kind == "res44":
        return hf.sylvester_resultant(*args)
    if kind == "gramm33":
        return hf.gramm_form(*args)
    if kind.startswith("pk"):
        return hf.project_k(*args)
    if kind == "sg33":
        return hf.skew_gramm(*args)
    raise KeyError(kind)


def verdict(hf, kind: str, args: tuple, result, n: int) -> str:
    """Payload for the checker, or the outcome of the projector identities:
    each projection is idempotent, and the projections sum to the input."""
    if not kind.startswith("pk"):
        if isinstance(result, hf.GrammValue):
            return f"{result.base}|{result.exponent}"
        return str(result)
    t, k = args
    if hf.project_k(result, k) != result:
        return f"FAIL: projection {k} is not idempotent"
    if n % COMPLETENESS_EVERY == 0:
        total = result
        for j in range(factorial(t.ndim)):
            if j != k:
                total = total + hf.project_k(t, j)
        if total != t:
            return "FAIL: projections do not sum to the input"
    return "ok"


def run_rounds(hf, stream, rounds, phase: str, out, recorder=None):
    for r in rounds:
        for kind, data in stream.round(r):
            args = build(hf, kind, data)
            before = speed.kernel_ns()
            w0 = time.perf_counter_ns()
            t0 = time.thread_time_ns()
            try:
                result, payload = call(hf, kind, args), None
            except Exception as exc:  # counted as a failed operation
                payload = f"FAIL: {type(exc).__name__}: {exc}"
            cpu, wall = time.thread_time_ns() - t0, time.perf_counter_ns() - w0
            kernel = (before + speed.kernel_ns()) // 2
            if payload is None:
                if recorder is not None:
                    recorder.active[0] = False
                try:
                    payload = verdict(hf, kind, args, result, r)
                except Exception as exc:
                    payload = f"FAIL: check raised {type(exc).__name__}: {exc}"
                if recorder is not None:
                    recorder.active[0] = True
            payload = payload.replace("\n", " ").replace("\t", " ")
            out.write(f"{r}\t{phase}\t{kind}\t{cpu}\t{wall}\t{kernel}\t{payload}\n")


def setup(workload: str, seed: int) -> float:
    """CPU seconds to import the library and generate the first round of
    inputs, scaled by the startup kernel timed before and after."""
    before = speed.startup_kernel_ns()
    t0 = time.process_time()
    hf = import_library()
    if workload == "verify":
        next(inputs.verify_seeds(seed))
    elif workload == "cli":
        stream = inputs.Stream(workload, seed)
        [inputs.cli_invocation(kind, data) for kind, data in stream.round(0)]
    else:
        stream = inputs.Stream(workload, seed)
        [build(hf, kind, data) for kind, data in stream.round(0)]
    cpu = time.process_time() - t0
    after = speed.startup_kernel_ns()
    return cpu * speed.NOMINAL_STARTUP_NS * (1 / before + 1 / after) / 2


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        print(repr(setup(workload, seed)))
        return 0
    hf = import_library()
    stream = inputs.Stream(workload, seed)
    out = sys.stdout
    warm = WARMUP_ROUNDS[workload]
    run_rounds(hf, stream, range(warm), "warmup", out)
    summary = {"warmup_rounds": warm}
    if mode == "run":
        seconds = float(argv[3])
        r = warm
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or (r - warm) * len(stream.kinds) < MIN_OPS:
            run_rounds(hf, stream, (r,), "measure", out)
            r += 1
    else:
        import tracing

        rounds = int(argv[3])
        run_rounds(hf, stream, range(warm, warm + rounds), "untraced", out)
        recorder = tracing.Recorder().install()
        run_rounds(hf, stream, range(warm + rounds, warm + 2 * rounds), "traced", out, recorder)
        recorder.uninstall()
        summary["trace"] = recorder.export()
    summary["peak_rss_mb"] = peak_rss_mb()
    out.write(json.dumps(summary) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
