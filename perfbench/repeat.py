"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/repeat.py --workloads dpm-oracle --seeds 1-5 --seconds 30

For each workload and end-to-end metric it prints the median and the
interquartile distance as a share of the median (``statistics.quantiles``
with n=4), next to the metric's bound from BENCHMARK.json. Runs are made one
after another, never in parallel. ``--write-reference`` stores the output
digests of these runs in perfbench/reference.json.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGEST = re.compile(r"^digest (.+) sha256=([0-9a-f]{64})")
SOURCE = re.compile(r'"source_sha256": "([0-9a-f]{64})"')
ACCURACY = re.compile(r"^  (fail_frac|misalign_mm\.mean|focal_err_px\.max|rms_px\.max) = (\S+)")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["accuracy"] = {}
    result["digests"] = {}
    for line in lines:
        if m := ACCURACY.match(line):
            result["accuracy"][m.group(1)] = m.group(2)
        if m := DIGEST.match(line):
            result["digests"][m.group(1)] = m.group(2)
        if m := SOURCE.search(line):
            result["source_sha256"] = m.group(1)
    if not result["correct"]:
        print("\n".join(l for l in lines if l.startswith("PROBLEM")), file=sys.stderr)
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="range such as 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    all_correct = True
    reference = {"source_sha256": None, "digests": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, seconds)
            results.append(result)
            all_correct &= result["correct"]
            reference["source_sha256"] = result["source_sha256"]
            reference["digests"].setdefault(workload, {})[str(seed)] = result["digests"]
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            accuracy = " ".join(f"{k}={v}" for k, v in result["accuracy"].items())
            print(f"{workload} seed={seed} correct={result['correct']} {values} {accuracy} "
                  + " ".join(f"{k}={v[:12]}" for k, v in result["digests"].items()), flush=True)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            line = f"  {workload} {name}: median {statistics.median(values):.6g}"
            if len(values) >= 2 and statistics.median(values) != 0:
                line += f", spread {spread(values):.4f}"
            if bounds.get(name) is not None:
                line += f" (bound {bounds[name]}, a third {bounds[name] / 3:.4f})"
            print(line, flush=True)
    if args.write_reference:
        path = BENCH_DIR / "reference.json"
        old = json.loads(path.read_text(encoding="utf-8"))
        if old["source_sha256"] == reference["source_sha256"]:
            for workload, digests in old["digests"].items():
                reference["digests"][workload] = {**digests,
                                                  **reference["digests"].get(workload, {})}
        path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
