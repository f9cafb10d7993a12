#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about a minute):

    python3 perfbench/smoke.py

Runs every workload at a tiny size in both modes and checks that each
metric BENCHMARK.json declares comes out with its unit, that no operation
fails, that the recorded digests hold at the default seed and size, that
one corrupted byte in an archive row is caught, and that the benchmark
refuses to run without the program's sources. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

TINY_BUDGETS = {"quickstart": 20, "campaign_default": 20,
                "explain_archive": 40}
SEED = 3


def corrupt_robustness(archive) -> None:
    """Change one byte: the first decimal digit of row 0's robustness."""
    lines = archive.read_bytes().split(b"\n")
    cells = lines[1].split(b",")
    cell = bytearray(cells[-3])
    at = cell.index(b".") + 1
    cell[at] = ord("0") + (cell[at] - ord("0") + 1) % 10
    cells[-3] = bytes(cell)
    lines[1] = b",".join(cells)
    archive.write_bytes(b"\n".join(lines))


def declared_units(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_result(label: str, result, section: str) -> list:
    problems = []
    last = json.loads(run.result_json(result))
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(last)}")
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    if got != declared_units(section):
        problems.append(f"{label}: metrics {got} != declared "
                        f"{declared_units(section)}")
    if result.attempted < 1 or result.failed or not last["correct"]:
        problems.append(f"{label}: failed_frac {result.failed}/"
                        f"{result.attempted}: {result.problems[:3]}")
    return problems


def bare_directory_refuses() -> list:
    """Without src/ the benchmark must exit non-zero and print no result."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
             "quickstart", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout "
                f"{proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    run.load_program()
    run.WORK.mkdir(exist_ok=True)
    problems = []
    for name, budget in TINY_BUDGETS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_benchmark(name, SEED, 0, trace, budget=budget)
            problems += check_result(f"{name} trace={int(trace)}", result,
                                     section)

    result = run.run_benchmark("quickstart", run.DEFAULT_SEED, 0, False)
    if set(result.digests) != set(run.DIGEST_FILES) or result.failed:
        problems.append(f"default-seed digests: {result.problems[:3]}")

    result = run.run_benchmark("quickstart", SEED, 0, False,
                               budget=TINY_BUDGETS["quickstart"],
                               tamper=corrupt_robustness)
    if not result.failed or not any("re-simulated" in p
                                    for p in result.problems):
        problems.append("a corrupted archive byte went unnoticed: "
                        f"{result.failed}/{result.attempted} failed")

    problems += bare_directory_refuses()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
