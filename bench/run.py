"""hyperforms benchmark.

  python3 bench/run.py --workload {verify,numeric,skew,cli} --seed N \
      --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  Every
workload is a closed loop with one client: one caller in one process, one
operation in flight.  With --trace 0 the run measures for S seconds and
reports the end-to-end metrics; with --trace 1 it runs a fixed amount of
work twice, untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  Outputs are checked outside the timed region; the
last stdout line is the JSON result, the line before it the run's
provenance and input properties.  See bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LOOP = str(BENCH / "loop.py")
CHILD = str(BENCH / "child.py")
MARKER = "BENCH-CHILD "
ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 150.0

SETUP_PROBES = 5
MIN_VERIFY_PASSES = 3
MIN_CLI_CALLS = 100            # so that p90 has at least ten samples beyond it
TRACE_ROUNDS = {"numeric": 150, "skew": 312, "verify": 2, "cli": 6}  # whole passes
SMOOTH_OPS = 8  # loop operations are scaled by the kernel mean over 8 on each side
CLI_PROBES = 5

VERIFY_ARGS = ["verify", "--suite", "all", "--json", "--seed"]
PINNED_SHA256 = "8190c2e544ae17a0ac679d49af2cf98e72efc01c2228c9d59a0ce2ca237f5e84"
# README's pinned constants; every other identity reports none.
README_CONSTANTS = {
    "hyperresultant-vs-resultant": "+2^4*3^0*(1/1)",
    "wronskian-square-ratio": "+2^3*3^0*(1/1)",
    "cubic-hyperhessian-vs-disc": "-2^4*3^1*(1/1)",
    "disc-of-iterated-hessian": "+2^36*3^6*(1/1)",
    "resultant-with-iterated-hessian": "+2^24*3^12*(1/1)",
    "polarised-pair-hessian-vs-hankel": "+2^3*3^0*(1/1)",
}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s", "ops_per_s": "1/s",
              "latency_p50_ms": "ms", "latency_p90_ms": "ms", "latency_p99_ms": "ms"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Child:
    """One finished child process: exit code, output, wall seconds and CPU
    seconds (user + system; time the host gives to other guests or processes
    is not in it).  Children started through bench/child.py also carry its
    report: reference-kernel times, peak RSS and traces."""

    def __init__(self, argv, stdin: str | None = None):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=ENV,
                                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            if stdin is not None:
                proc.stdin.write(stdin.encode())
                proc.stdin.close()
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        self.wall = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.out = out.decode()
        self.err = err.decode()
        self.cpu = usage.ru_utime + usage.ru_stime
        _, found, line = self.err.rpartition(MARKER)
        self.report = json.loads(line) if found else {}
        self.kernel_ns = self.report.get("kernel_ns", [])
        self.startup_kernel_ns = self.report.get("startup_kernel_ns", [])
        self.cpu -= (sum(self.kernel_ns) + sum(self.startup_kernel_ns)) / 1e9
        self.peak_rss_mb = self.report.get("peak_rss_mb", 0.0)

    def scaled_cpu(self, startup=False) -> float:
        """CPU seconds at reference speed, by the arithmetic or the startup
        kernel as timed inside the child (unscaled when it timed none)."""
        ks, nominal = ((self.startup_kernel_ns, speed.NOMINAL_STARTUP_NS) if startup
                       else (self.kernel_ns, speed.NOMINAL_NS))
        return self.cpu * nominal * statistics.fmean(1 / k for k in ks) if ks else self.cpu

    def ok(self) -> "Child":
        if self.code != 0:
            raise BenchError(f"child {self.code}: {self.err.strip()[-2000:]}")
        return self


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)


TAIL_SAMPLES = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, never closer to the top than the highest one
    with TAIL_SAMPLES samples beyond it; with too few samples for any such
    tail, the median."""
    xs = sorted(values)
    rank = min(math.ceil(p / 100 * len(xs)), len(xs) - TAIL_SAMPLES)
    return xs[max(rank, math.ceil(len(xs) / 2)) - 1]


def passes(round_times: dict[int, float], workload: str) -> list[float]:
    """Sums over complete passes of rounds (see inputs.pass_rounds)."""
    size = inputs.pass_rounds(workload)
    sums: dict[int, list[float]] = {}
    for r, t in round_times.items():
        sums.setdefault(r // size, []).append(t)
    return [sum(ts) for ts in sums.values() if len(ts) == size]


def timing_metrics(latencies_s, passes_s) -> dict[str, float]:
    return {"pass_s": statistics.median(passes_s),
            "ops_per_s": len(latencies_s) / sum(latencies_s),
            "latency_p50_ms": 1e3 * percentile(latencies_s, 50),
            "latency_p90_ms": 1e3 * percentile(latencies_s, 90),
            "latency_p99_ms": 1e3 * percentile(latencies_s, 99)}


def overhead(untraced, traced) -> dict[str, float]:
    """Traced minus untraced; each argument is (latencies_s, passes_s)."""
    a, b = timing_metrics(*untraced), timing_metrics(*traced)
    return {"trace.overhead_pass_s": b["pass_s"] - a["pass_s"],
            "trace.overhead_ops_per_s": b["ops_per_s"] - a["ops_per_s"]}


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters; the first, which also writes the
    bytecode cache, is not counted."""
    Child([LOOP, "setup", workload, str(seed)]).ok()
    return statistics.median(float(Child([LOOP, "setup", workload, str(seed)]).ok().out)
                             for _ in range(SETUP_PROBES))


def import_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from loop import import_library as load

    return load()


# -- provenance ----------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hyperforms").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance() -> dict:
    """Who ran what: interpreter, commit, cores, and the sha256 of
    `verify --suite all --seed 7 --json`.  The hash is a function of the
    source and the interpreter, so it is cached per source digest in
    .bench_cache/ rather than recomputed (about 7 s) by every run."""
    src = source_digest()
    cache = ROOT / ".bench_cache" / f"verify7-{src[:24]}-{platform.python_version()}.json"
    if cache.exists():
        verify7 = json.loads(cache.read_text())
    else:
        out = Child(["-m", "hyperforms", *VERIFY_ARGS, "7"]).out.encode()
        verify7 = {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
        cache.parent.mkdir(exist_ok=True)
        cache.write_text(json.dumps(verify7))
    return {"python": platform.python_version(), "commit": git_commit(),
            "nproc": os.cpu_count(), "source_sha256": src,
            "verify_seed7_sha256": verify7["sha256"], "verify_seed7_bytes": verify7["bytes"],
            "verify_seed7_matches_pin": verify7["sha256"] == PINNED_SHA256}


# -- verify ----------------------------------------------------------------------


def verify_problem(child: Child) -> str | None:
    """Exit code 0, every identity passes, every constant is README's."""
    if child.code != 0:
        return f"verify exited {child.code}: {child.err.strip()[-500:]}"
    try:
        report = json.loads(child.out)
        suites = [r["suite"] for r in report["reports"]]
        if suites != list(tracing.VERIFY_SUITES):
            return f"verify ran suites {suites}"
        for r in report["reports"]:
            for ident in r["identities"]:
                if not ident["pass"]:
                    return f"verify identity {ident['id']} failed"
                if ident["constant"] != README_CONSTANTS.get(ident["id"]):
                    return f"verify constant {ident['id']} = {ident['constant']}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"verify output unreadable: {exc}"
    return None if report["pass"] is True else "verify reported pass: false"


def verify_passes(seeds, tally: Tally, traced=False) -> list[Child]:
    children = []
    for seed in seeds:
        children.append(Child(child_argv(VERIFY_ARGS + [str(seed)], traced)))
        tally.add(verify_problem(children[-1]))
    return children


def child_argv(cli_args, traced=False) -> list[str]:
    """A cold CLI call through bench/child.py, which reports on itself."""
    return [CHILD, *(["--trace"] if traced else []), *cli_args]


def child_trace(child: Child) -> dict:
    if not child.report.get("trace"):
        raise BenchError(f"traced child left no trace: {child.err.strip()[-2000:]}")
    return child.report["trace"]


def verify_e2e(seed: int, seconds: float, tally: Tally, info: dict) -> dict:
    seeds = inputs.verify_seeds(seed)
    children, start = [], time.perf_counter()
    while time.perf_counter() - start < seconds or len(children) < MIN_VERIFY_PASSES:
        children += verify_passes([next(seeds)], tally)
    cpu = [c.scaled_cpu() for c in children]
    info["samples"] = {"passes": len(children)}
    info["unscaled"] = {"cpu_pass_s": statistics.median(c.cpu for c in children),
                        "wall_pass_s": statistics.median(c.wall for c in children)}
    return dict(timing_metrics(cpu, cpu), peak_rss_mb=max(c.peak_rss_mb for c in children))


def verify_trace(seed: int, tally: Tally, info: dict) -> dict:
    seeds = inputs.verify_seeds(seed)
    n = TRACE_ROUNDS["verify"]
    plain = [c.scaled_cpu() for c in verify_passes([next(seeds) for _ in range(n)], tally)]
    traced = verify_passes([next(seeds) for _ in range(n)], tally, traced=True)
    cpu = [c.scaled_cpu() for c in traced]
    values = tracing.layer_metrics(tracing.merge(child_trace(c) for c in traced), n)
    info["samples"] = {"untraced_passes": n, "traced_passes": n}
    info["inputs"]["int_coeff_share"] = values["poly.int_coeff_share"]
    return dict(values, **overhead((plain, plain), (cpu, cpu)))


# -- numeric and skew ---------------------------------------------------------------


def loop_records(child: Child, workload: str, seed: int, tally: Tally, info: dict):
    """Check every record of a loop.py run; returns ({phase: (latencies_s,
    passes_s)}, summary)."""
    lines = child.ok().out.splitlines()
    summary = json.loads(lines[-1])
    hf = import_library()
    import oracles

    oracle = oracles.Oracle(hf)
    stream = inputs.Stream(workload, seed)
    by_phase: dict[str, tuple[list, dict]] = {}
    cpu_s = wall_s = 0.0
    seen = set()
    order: dict[int, list[str]] = {}
    rows = [line.split("\t", 6) for line in lines[:-1]]
    kernels = list(itertools.accumulate((int(row[5]) for row in rows), initial=0))
    for i, (r, phase, kind, cpu, wall, _, payload) in enumerate(rows):
        lo, hi = max(0, i - SMOOTH_OPS), min(len(rows), i + SMOOTH_OPS + 1)
        kernel = (kernels[hi] - kernels[lo]) / (hi - lo)
        r = int(r)
        data = stream.draw(kind, r)
        seen.add((kind, json.dumps(data)))
        order.setdefault(r, []).append(kind)
        tally.add(oracle.check(kind, data, payload))
        lat, rounds = by_phase.setdefault(phase, ([], {}))
        scaled = int(cpu) * speed.NOMINAL_NS / kernel / 1e9
        lat.append(scaled)
        rounds[r] = rounds.get(r, 0.0) + scaled
        if phase == "measure":
            cpu_s += int(cpu) / 1e9
            wall_s += int(wall) / 1e9
    for r, kinds in order.items():
        if kinds != [k for k, _ in stream.round(r)]:
            raise BenchError(f"round {r} ran {kinds}, not the seeded order")
    info["inputs"]["repeat_share"] = 1 - len(seen) / tally.attempted
    if wall_s:
        ops = len(by_phase["measure"][0])
        info["unscaled"] = {"cpu_ops_per_s": ops / cpu_s, "wall_ops_per_s": ops / wall_s}
    return ({phase: (lat, passes(rounds, workload)) for phase, (lat, rounds) in by_phase.items()},
            summary)


def loop_e2e(workload: str, seed: int, seconds: float, tally: Tally, info: dict) -> dict:
    child = Child([LOOP, "run", workload, str(seed), repr(seconds)])
    phases, summary = loop_records(child, workload, seed, tally, info)
    lat, pass_times = phases["measure"]
    info["samples"] = {"ops": len(lat), "passes": len(pass_times),
                       "warmup_rounds": summary["warmup_rounds"]}
    return dict(timing_metrics(lat, pass_times), peak_rss_mb=summary["peak_rss_mb"])


def loop_trace(workload: str, seed: int, tally: Tally, info: dict) -> dict:
    n = TRACE_ROUNDS[workload]
    child = Child([LOOP, "trace", workload, str(seed), str(n)])
    phases, summary = loop_records(child, workload, seed, tally, info)
    info["samples"] = {"untraced_rounds": n, "traced_rounds": n}
    values = tracing.layer_metrics(summary["trace"], n)
    info["inputs"]["int_coeff_share"] = values["poly.int_coeff_share"]
    return dict(values, **overhead(phases["untraced"], phases["traced"]))


# -- cli -------------------------------------------------------------------------------


def cli_rounds(stream, rounds, traced=False) -> list[list[tuple]]:
    """Cold invocations; one list per round of (kind, data, stdin, child)."""
    done = []
    for r in rounds:
        calls = []
        for kind, data in stream.round(r):
            argv, stdin = inputs.cli_invocation(kind, data)
            calls.append((kind, data, stdin, Child(child_argv(argv, traced), stdin)))
        done.append(calls)
    return done


def cli_children(done) -> list[Child]:
    return [child for calls in done for *_, child in calls]


def cli_timing(done) -> tuple[list[float], list[float]]:
    """Per-invocation and per-pass CPU seconds, scaled to the reference
    kernel timed inside each invocation."""
    rounds = {r: sum(c.scaled_cpu(startup=True) for *_, c in calls) for r, calls in enumerate(done)}
    return [c.scaled_cpu(startup=True) for c in cli_children(done)], passes(rounds, "cli")


def check_cli(done, tally: Tally, info: dict):
    """Exit code 0 and stdout equal to the library's own answer."""
    import oracles

    hf = import_library()
    calls = [call for calls in done for call in calls]
    for kind, data, stdin, child in calls:
        want = oracles.cli_expected(hf, kind, data, stdin)
        tally.add(None if child.code == 0 and child.out == want else
                  f"cli {kind} exited {child.code}: {child.out[:200]!r} != {want[:200]!r}")
    info["inputs"]["repeat_share"] = 1 - len({(k, json.dumps(d)) for k, d, _, _ in calls}) / len(calls)


def cli_e2e(seed: int, seconds: float, tally: Tally, info: dict) -> dict:
    stream = inputs.Stream("cli", seed)
    done, start = [], time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(done) * len(inputs.CLI) < MIN_CLI_CALLS):
        done += cli_rounds(stream, [len(done)])
    check_cli(done, tally, info)
    children = cli_children(done)
    info["samples"] = {"invocations": len(children), "rounds": len(done),
                       "passes": len(done) // inputs.pass_rounds("cli")}
    info["unscaled"] = {"cpu_latency_p50_ms": 1e3 * statistics.median(c.cpu for c in children),
                        "wall_latency_p50_ms": 1e3 * statistics.median(c.wall for c in children)}
    return dict(timing_metrics(*cli_timing(done)), peak_rss_mb=max(c.peak_rss_mb for c in children))


def run_command_ms(stream, rounds, tally: Tally) -> float:
    """Median in-process `run_command` CPU time over the same argv mix."""
    import oracles

    hf = import_library()
    from hyperforms.cli import run_command

    times = []
    for r in rounds:
        for kind, data in stream.round(r):
            argv, stdin = inputs.cli_invocation(kind, data)
            out, saved = io.StringIO(), sys.stdin
            sys.stdin = io.StringIO(stdin or "")
            try:
                with contextlib.redirect_stdout(out):
                    t0 = time.thread_time()
                    code = run_command(argv)
                    times.append(time.thread_time() - t0)
            finally:
                sys.stdin = saved
            want = oracles.cli_expected(hf, kind, data, stdin)
            tally.add(None if code == 0 and out.getvalue() == want else f"run_command {kind}")
    return 1e3 * statistics.median(times)


def cli_trace(seed: int, tally: Tally, info: dict) -> dict:
    stream = inputs.Stream("cli", seed)
    n = TRACE_ROUNDS["cli"]
    plain = cli_rounds(stream, range(n))
    traced = cli_rounds(stream, range(n, 2 * n), traced=True)
    check_cli(plain + traced, tally, info)
    values = tracing.layer_metrics(tracing.merge(child_trace(c) for c in cli_children(traced)), n)
    info["inputs"]["int_coeff_share"] = values["poly.int_coeff_share"]
    interp = [Child(["-c", "pass"]).ok().cpu for _ in range(CLI_PROBES)]
    probe = ("import time; t = time.process_time(); import hyperforms; "
             "print(time.process_time() - t)")
    imports = [float(Child(["-c", probe]).ok().out) for _ in range(CLI_PROBES)]
    values.update({"cli.interp_ms": 1e3 * statistics.median(interp),
                   "cli.import_ms": 1e3 * statistics.median(imports),
                   "cli.run_command_ms": run_command_ms(stream, range(2 * n, 3 * n), tally)})
    info["samples"] = {"untraced_rounds": n, "traced_rounds": n, "probes": CLI_PROBES}
    return dict(values, **overhead(cli_timing(plain), cli_timing(traced)))


# -- entry point -------------------------------------------------------------------------


def op_mix(workload: str) -> dict[str, float]:
    if workload == "verify":
        return {"verify --suite all": 1.0}
    kinds = inputs.KINDS[workload]
    return {kind: 1 / len(kinds) for kind in kinds}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (SRC / "hyperforms" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'hyperforms'}")
    tally = Tally()
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "clients": 1, "provenance": provenance(),
            "inputs": {"digest": inputs.digest(workload, seed), "repeat_share": 0.0,
                       "op_mix": op_mix(workload)}}
    if trace:
        runner = {"verify": verify_trace, "cli": cli_trace,
                  "numeric": lambda *a: loop_trace("numeric", *a),
                  "skew": lambda *a: loop_trace("skew", *a)}[workload]
        values = runner(seed, tally, info)
        units = tracing.per_layer_units()
    else:
        setup = setup_seconds(workload, seed)
        runner = {"verify": verify_e2e, "cli": cli_e2e,
                  "numeric": lambda *a: loop_e2e("numeric", *a),
                  "skew": lambda *a: loop_e2e("skew", *a)}[workload]
        values = dict(runner(seed, seconds, tally, info), setup_s=setup)
        units = END_TO_END
    failed = len(tally.failures)
    info["failed_share"] = failed / tally.attempted
    info["failures"] = tally.failures[:5]
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                          for name, unit in units.items()}}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["verify", "numeric", "skew", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One vCPU for this process and its children, so that the reference
    # kernel runs on the core whose speed it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for failure in info["failures"]:
        print(f"bench: failed: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
