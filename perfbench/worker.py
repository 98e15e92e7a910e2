"""One pass of a workload in a fresh interpreter.

    python3 worker.py <src dir> < job.json > result.json

The worker imports every qci module first and reports the monotonic
clock at that moment, so the parent can time set-up from the spawn.  It
then reads the job from stdin: the command list, the per-command budget
and the mode.  Each command runs in process through ``qci.cli.main``
with stdout and stderr captured, one after the other (a closed loop).

A command still running when its budget runs out is interrupted by
SIGALRM; the interrupt is a BaseException, so the CLI's own handlers let
it through, and the next command starts from a clean stack.

Before each command, and ten times before the first, the worker times a
fixed calibration loop.  Its median tells the parent how fast the
machine ran during this pass, so that run.py can state times at a
reference speed: on a shared machine the speed drifts by half over tens
of seconds, far more than the differences the benchmark must resolve.

Modes: ``plain`` times the pass; ``trace`` also records a span around
each public function of every layer (see layers.py) and writes the spans
to a file at the end; ``count`` counts quandle operations and matrix
sizes, which would distort a timed pass.
"""

import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, sys.argv[1])

import qci.algebra  # noqa: E402,F401
import qci.cli  # noqa: E402
import qci.cohomology  # noqa: E402,F401
import qci.coloring  # noqa: E402,F401
import qci.corpus  # noqa: E402,F401
import qci.diagram  # noqa: E402,F401
import qci.invariants  # noqa: E402,F401
import qci.modlinalg  # noqa: E402,F401

READY = time.monotonic()


class BudgetExceeded(BaseException):
    """Raised by the alarm handler inside a command over its budget."""


class _Alarm:
    armed = False


def _on_alarm(signum, frame):
    if _Alarm.armed:
        _Alarm.armed = False
        raise BudgetExceeded()


def calibrate():
    """Time a fixed loop of dict stores and small-integer arithmetic, the
    kind of work qci does, about 0.3 ms long."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
        table[i & 127] = acc
    return time.perf_counter() - start


def run_commands(commands, budget_s, calib, recorder=None):
    """Run every command once; per-command status, wall and CPU time and
    output.  Appends a calibration sample before each command."""
    results = []
    signal.signal(signal.SIGALRM, _on_alarm)
    for index, argv in enumerate(commands):
        calib.append(calibrate())
        if recorder is not None:
            recorder.command = index
        out, err = io.StringIO(), io.StringIO()
        code, status = None, "ok"
        cpu = time.process_time()
        start = time.perf_counter()
        _Alarm.armed = True
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = qci.cli.main(argv)
                _Alarm.armed = False
        except BudgetExceeded:
            status = "budget"
        except (Exception, SystemExit):
            _Alarm.armed = False
            status = "error"
            err.write(traceback.format_exc())
        finally:
            _Alarm.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append({"code": code, "status": status,
                        "s": time.perf_counter() - start,
                        "cpu_s": time.process_time() - cpu,
                        "out": out.getvalue(), "err": err.getvalue()})
    return results


def main():
    job = json.load(sys.stdin)
    mode = job["mode"]
    recorder = None
    if mode in ("trace", "count"):
        import layers
        recorder = layers.Recorder(mode)
        recorder.install()
    calib = [calibrate() for _ in range(10)]
    wall0 = time.perf_counter()
    results = run_commands(job["commands"], job["budget_s"], calib, recorder)
    wall = time.perf_counter() - wall0
    if recorder is not None:
        recorder.uninstall()
        recorder.write(job["record_path"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"ready": READY, "wall_s": wall,
               "calib_s": statistics.median(calib),
               "peak_rss_mb": peak_kib / 1024.0, "results": results},
              sys.stdout)


if __name__ == "__main__":
    main()
