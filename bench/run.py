#!/usr/bin/env python3
"""curvedepth benchmark: one workload, one run, one JSON line of metrics.

    python3 bench/run.py --workload self-rank --seed 1 --seconds 1 --trace 0

With ``--trace 0`` every command of the workload runs as a user runs it,
``python -m curvedepth ...`` with ``src`` on PYTHONPATH, one child process
at a time (a closed loop with one client), and the end-to-end metrics are
reported.  Passes over the workload's commands repeat until ``--seconds``
have been measured, and at least twice; each time is the mean over the
passes, scaled to a reference machine speed (see ``Calibration``).  The
raw wall medians are printed as well.
With ``--trace 1`` the same commands run in-process, once untraced and
once with spans around the calls into each package module, and the
per-layer metrics are reported; the spans are written to
``.bench_out/``.  Every command's output is checked outside the timed
region.  The last stdout line is the JSON result; the exit code is 0 only
if every check passed.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP pools size themselves when numpy loads, so the cap is set
# first, for this process and (explicitly, not inherited) for every child:
# one thread, which is at most nproc on any machine.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
STARTED = monotonic()
#: Every op must be done this many seconds after start (the run limit is 180 s).
RUN_LIMIT = 165.0
#: Set-ups per run; setup_s is their median.
SETUPS = 3
#: Passes per untraced run, at least.
MIN_PASSES = 2
#: Seconds the calibration child takes at the reference speed.
CAL_REF = 0.15
#: Runs of ``--help`` per traced run; cli.startup_s is their median.
STARTUPS = 3
#: Child wrapper for the self-test: scales every depth value by 1 + 1e-9.
FAULT = (
    "import sys; from curvedepth import cli, depths; f = depths.depth_values; "
    "depths.depth_values = lambda *a, **k: f(*a, **k) * (1 + 1e-9); "
    "sys.exit(cli.main(sys.argv[1:]))"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the harness self-test")
    p.add_argument("--inject-fault", action="store_true",
                   help="self-test: perturb every depth value the CLI prints")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({v: str(THREADS) for v in THREAD_VARS})
    return env


def remaining() -> float:
    return RUN_LIMIT - (monotonic() - STARTED)


class Child:
    """Run one command to completion or timeout; wall time and peak RSS."""

    def __init__(self, prefix: list[str], env: dict, scratch: Path):
        self.prefix, self.env, self.scratch = prefix, env, scratch

    def run(self, argv: list[str], timeout: float):
        """Returns (wall_s, exit_code or None on timeout, peak_rss_mib, stdout)."""
        out_path = self.scratch / "stdout.txt"
        with open(out_path, "wb") as out, open(self.scratch / "stderr.txt", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(self.prefix + argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.scratch)
            lock, state = threading.Lock(), {"exited": False, "killed": False}

            def kill():
                with lock:
                    if not state["exited"]:
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(max(timeout, 0.0), kill)
            timer.start()
            # wait without reaping, so the pid cannot be reused before the
            # timer is disarmed; then reap and read the child's rusage
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf_counter() - start
            with lock:
                state["exited"] = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if state["killed"] else proc.returncode
        return wall, code, usage.ru_maxrss / 1024.0, out_path.read_text(errors="replace")


class Calibration:
    """Machine speed, from a fixed child process timed next to the commands.

    Other tenants of a shared machine slow it down by up to 2x, in bursts
    that last from seconds to minutes, longer than a pass.  The slow-down
    hits fresh processes (start-up, imports, first touches of memory): on a
    2-core box the commands' times do not follow a compute kernel run in
    this warm process (correlation near 0), but they follow the start of
    ``python -c "import numpy"`` (0.6 to 0.8).  That child depends only on
    the interpreter and numpy, so no change to the program moves it.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.samples = [self._time()]

    def _time(self) -> float:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import numpy"], env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        return perf_counter() - start

    def around(self) -> float:
        """Mean kernel time just before and just after the last command."""
        self.samples.append(self._time())
        return (self.samples[-2] + self.samples[-1]) / 2


class Timings:
    """Wall times of one command, each with the kernel time around it."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cals: list[float] = []

    def scaled(self) -> float:
        """Mean wall time at the speed where the kernel takes CAL_REF."""
        return CAL_REF * sum(self.walls) / sum(self.cals)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_inprocess(argv: list[str], timeout: float):
    """cli.main in this process; (wall_s, exit code or None, stdout)."""
    from curvedepth import cli

    buf = io.StringIO()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except _Timeout:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start
    return wall, code, buf.getvalue()


def check_op(op, code, stdout, log) -> bool:
    from workloads import CheckError

    if code is None:
        log(f"FAIL {op.name}: timed out")
        return False
    if code != op.expect_exit:
        log(f"FAIL {op.name}: exit code {code}, expected {op.expect_exit}")
        return False
    try:
        op.check(stdout)
    except CheckError as exc:
        log(f"FAIL {op.name}: {exc}")
        return False
    return True


def setup(workload, seed, size, work: Path, helper: Child):
    """Fresh inputs plus a warm-up start of the CLI; returns (inputs, seconds)."""
    start = perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workload.make(seed, size, work)
    helper.run(["--help"], max(1.0, remaining()))
    return inputs, perf_counter() - start


def measure(args, workload, size, work: Path, log) -> dict:
    prefix = [sys.executable, "-c", FAULT] if args.inject_fault else [sys.executable, "-m", "curvedepth"]
    child = Child(prefix, child_env(), work.parent)
    helper = Child([sys.executable, "-m", "curvedepth"], child_env(), work.parent)
    calibration = Calibration(child_env())
    setups = []
    for _ in range(SETUPS):
        inputs, secs = setup(workload, args.seed, size, work, helper)
        setups.append(CAL_REF * secs / calibration.around())
    ops = workload.ops(args.seed, inputs, work, size)
    times = {op.name: Timings() for op in ops}
    passes, rss, attempted, failed = 0, 0.0, 0, 0
    begin = perf_counter()
    while True:
        for op in ops:
            attempted += 1
            wall, code, peak, stdout = child.run(op.argv, min(op.timeout, remaining()))
            times[op.name].walls.append(wall)
            times[op.name].cals.append(calibration.around())
            rss = max(rss, peak)
            failed += not check_op(op, code, stdout, log)
        passes += 1
        elapsed = perf_counter() - begin
        done = elapsed >= args.seconds and passes >= MIN_PASSES
        if done or elapsed / passes > 0.8 * remaining():
            break
    scaled = {name: t.scaled() for name, t in times.items()}
    cli_s = {name: v for name, v in scaled.items() if name.startswith("cli_s.")}
    evals = sum(op.evals for op in ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (sum(scaled.values()), "s"),
        **{name: (v, "s") for name, v in cli_s.items()},
        "evals_per_s": (evals / sum(cli_s.values()), "1/s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    extra = {name: (v, "s") for name, v in scaled.items() if name not in cli_s}
    extra.update({f"{name} wall median": (statistics.median(t.walls), "s")
                  for name, t in times.items()})
    extra["calibration median"] = (statistics.median(calibration.samples), "s")
    extra["fail_ratio"] = (failed / attempted, "1")
    extra["passes"] = (passes, "count")
    return {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed}


def trace(args, workload, size, work: Path, log) -> dict:
    from curvedepth import cli, depths, properties, reconstruct  # noqa: F401  (warm imports)
    from tracing import Tracer, layer_metrics

    helper = Child([sys.executable, "-m", "curvedepth"], child_env(), work.parent)
    tracer = Tracer()
    tracer.op = "setup"
    tracer.install()
    try:
        inputs, _ = setup(workload, args.seed, size, work, helper)
    finally:
        tracer.uninstall()
    startups = [helper.run(["--help"], max(1.0, remaining()))[0] for _ in range(STARTUPS)]
    ops = workload.ops(args.seed, inputs, work, size)
    calibration = Calibration(child_env())
    attempted = failed = 0
    plain = traced = 0.0
    for op in ops:
        calibration.around()
        attempted += 1
        wall, code, stdout = run_inprocess(op.argv, min(op.timeout, remaining()))
        plain += wall
        ok = check_op(op, code, stdout, log)
        tracer.op = op.name
        tracer.install()
        try:
            wall, code, stdout = run_inprocess(op.argv, min(op.timeout, remaining()))
        finally:
            tracer.uninstall()
        traced += wall
        ok = check_op(op, code, stdout, log) and ok
        failed += not ok
    values = layer_metrics(tracer.spans, tracer.curves)
    values["cli.startup_s"] = statistics.median(startups)
    values["trace.overhead_s"] = traced - plain
    OUT.mkdir(exist_ok=True)
    t0 = min((s["start"] for s in tracer.spans), default=0.0)
    spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in tracer.spans]
    path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                "machine": machine(), "spans": spans}))
    log(f"wrote {len(spans)} spans to {path.relative_to(ROOT)}")
    metrics = {name: (v, unit_of(name)) for name, v in values.items()}
    extra = {"calibration median": (statistics.median(calibration.samples), "s")}
    return {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed}


def unit_of(name: str) -> str:
    if name.endswith("us_per_eval"):
        return "us"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "curvedepth" / "__init__.py").is_file():
        print(f"bench: no curvedepth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def log(msg):
        print(f"# {msg}", flush=True)

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}" / "inputs"
    log(f"machine: {json.dumps(machine(), sort_keys=True)}")
    try:
        run = (trace if args.trace else measure)(args, workload, SIZES[args.scale], work, log)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    for name, (value, unit) in {**run["metrics"], **run["extra"]}.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
