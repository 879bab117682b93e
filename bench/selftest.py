#!/usr/bin/env python3
"""Self-test of the benchmark harness, on tiny inputs (about a minute).

    python3 bench/selftest.py

1. Smoke: each workload at ``--scale tiny``, untraced and traced.  Every
   run must pass its output checks and report exactly the metrics that
   BENCHMARK.json declares for its mode.
2. Fault: a CLI whose depth values are all scaled by 1 + 1e-9 must make
   every depth command of a self-rank run count as a failure.
3. No sources: from a directory that holds only BENCHMARK.json and the
   benchmark, a run must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--seed", "3", "--seconds", "1",
           *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench("--workload", w["name"], "--trace", str(trace), "--scale", "tiny")
            res = result(out)
            want = {m["name"] for m in SPEC[key]}
            expect(code == 0 and res["correct"] and res["failed"] == 0,
                   f"{w['name']} trace={trace}: all checks pass")
            expect(set(res["metrics"]) == want, f"{w['name']} trace={trace}: metric names")

    code, out = bench("--workload", "self-rank", "--scale", "tiny", "--inject-fault")
    res = result(out)
    expect(code != 0 and not res["correct"] and res["failed"] == res["attempted"] >= 6,
           "injected wrong depth values: every depth command fails")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out = bench("--workload", "self-rank", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and out.strip() == "", "no sources: non-zero exit, no result")

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
