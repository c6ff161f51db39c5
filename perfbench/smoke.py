"""Short check of every workload on a seed other than the config's default.

Run from the repository root:

    python3 perfbench/smoke.py

Runs each workload once untraced and once traced (one unit each), and checks
that every metric named in BENCHMARK.json is present, finite and in its
unit, that the report lines carry the workload's accuracy figures, that the
run is correct and that fail_frac <= 0.1. It also checks that a directory
holding only BENCHMARK.json and perfbench/ makes the benchmark exit non-zero
without a result. Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7  # configs/default.json's own seed is 1234
FAIL_FRAC_MAX = 0.1
REPORTED = {
    "dpm-image": ("fail_frac", "misalign_mm.mean"),
    "dpm-oracle": ("fail_frac", "misalign_mm.mean"),
    "calibrate-image": ("fail_frac", "focal_err_px.max", "rms_px.max"),
}
REPORT_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)$")


def fail(message: str) -> None:
    raise SystemExit(f"smoke: FAIL {message}")


def run(workload: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    label = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"]:
        fail(f"{label}: not correct:\n" + "\n".join(l for l in lines if l.startswith("PROBLEM")))
    if result["failed"] > FAIL_FRAC_MAX * result["attempted"]:
        fail(f"{label}: {result['failed']} of {result['attempted']} ops failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail(f"{label}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"{label}: {m['name']} = {got}")
    reported = {m.group(1): float(m.group(2)) for line in lines
                if (m := REPORT_LINE.match(line))}
    for name in REPORTED[workload]:
        if not math.isfinite(reported.get(name, math.nan)):
            fail(f"{label}: report line {name} missing or not finite")
    if reported["fail_frac"] > FAIL_FRAC_MAX:
        fail(f"{label}: fail_frac {reported['fail_frac']} > {FAIL_FRAC_MAX}")
    print(f"smoke: ok {label} ({result['attempted']} ops, {result['failed']} failed)", flush=True)


def bare_directory_refuses() -> None:
    bare = BENCH_DIR / ".state" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".state"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dpm-oracle", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: ok bare directory refused: " + proc.stderr.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bare_directory_refuses()
    for workload in REPORTED:
        for trace in (0, 1):
            run(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
