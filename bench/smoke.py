"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 bench/smoke.py

Runs every workload at its minimal size (``--seconds 0``: only the fixed
first block of operations), untraced and traced, and checks that the last
line is the result object with every metric of BENCHMARK.json, each with its
declared unit, that the run is correct, and that every end-to-end value is
positive.  Then checks that in a directory holding only BENCHMARK.json and
the benchmark's own files the benchmark exits non-zero without a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict], positive: bool) -> str | None:
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr[-500:]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True:
        return f"incorrect run: {proc.stderr[-500:]}"
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int)):
        return "attempted/failed are not whole numbers with attempted >= 1"
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in declared]:
        return "metric names differ from BENCHMARK.json"
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            return f"{m['name']}: {got}"
        if positive and not got["value"] > 0:
            return f"{m['name']} is not positive: {got['value']}"
    return None


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in config["workloads"]):
        for trace, declared in ((0, config["end_to_end"]), (1, config["per_layer"])):
            problem = check_result(run(ROOT, workload, trace), declared, positive=trace == 0)
            print(f"{'FAIL' if problem else 'ok  '}  {workload} --trace {trace}")
            if problem:
                print(f"      {problem}")
                return 1

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in config["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, config["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok  ' if ok else 'FAIL'}  refuses to run without the package source")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
