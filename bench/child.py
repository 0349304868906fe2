"""Stand-in for `python -m hyperforms ARGS...` that also reports on itself.

  child.py [--trace] ARGS...

Runs the CLI in this fresh interpreter with the same argv, stdin, stdout and
exit code.  The startup kernel of bench/speed.py is timed before and after
the run, and the arithmetic kernel every SAMPLE_S of CPU time during it.
Then one JSON line goes to stderr after a marker: the kernel times, the peak
RSS of this process since exec (the parent's pages, which a forked child
counts until exec, are not in it) and, with --trace, the raw span totals of
bench/tracing.py.
"""

import json
import runpy
import signal
import sys

import speed

MARKER = "BENCH-CHILD "
SAMPLE_S = 0.1


def peak_rss_mb() -> float:
    """VmHWM of this process; Linux only."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    trace = argv[:1] == ["--trace"]
    argv = argv[1:] if trace else argv
    startup = [speed.startup_kernel_ns()]
    sampled = []
    recorder = None
    if trace:
        import tracing
        from loop import import_library

        import_library()
        import hyperforms.cli  # noqa: F401  bound before tracing rebinds its names

        recorder = tracing.Recorder().install()
    sys.argv = ["hyperforms", *argv]
    signal.signal(signal.SIGVTALRM, lambda *_: sampled.append(speed.kernel_ns()))
    signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_S, SAMPLE_S)
    try:
        runpy.run_module("hyperforms", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    if recorder is not None:
        recorder.uninstall()
    startup.append(speed.startup_kernel_ns())
    sys.stdout.flush()
    report = {"startup_kernel_ns": startup, "kernel_ns": sampled, "peak_rss_mb": peak_rss_mb(),
              "trace": recorder.export() if recorder is not None else None}
    sys.stderr.write("\n" + MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
