"""procamsim benchmark: closed-loop frame latency and calibration sweep time.

Run from the repository root:

    python3 perfbench/run.py --workload dpm-image --seed 1 --seconds 30 --trace 0

Workloads (all on configs/default.json with the seed replaced by --seed):

- ``dpm-image``: the linear-stage dynamic projection run, image detector.
- ``dpm-oracle``: the same run with the oracle detector (no capture render,
  no image detector).
- ``calibrate-image``: the ten-station calibration sweep, image detector.

``--trace 0`` runs whole units (a dpm trajectory or a calibration sweep)
until the next one would overrun ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` runs one untraced unit, then one unit with every layer
wrapped (see layers.py), and reports the per-layer metrics. Either way the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a human-readable report with the provenance block and output digests.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = BENCH_DIR / ".state"
REQUIRED = ("BENCHMARK.json", "src/procamsim/__init__.py", "configs/default.json",
            "configs/scene.json", "configs/trajectory.json")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
FAIL_FRAC_MAX = 0.1          # the CLI's exit-4 threshold
P90_MIN_FRAMES = 100
COVERAGE_MIN = 0.9
# Output sanity limits; the stored-profile dpm run and the sweep sit far below.
MISALIGN_MAX_MM = 1.0
FOCAL_ERR_MAX_PX = 5.0
RMS_MAX_PX = 0.15
LIMITS = ("one process; wall clock only (time.perf_counter); no system-wide tracing; "
          "shared machine")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["dpm-image", "dpm-oracle", "calibrate-image"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Fingerprint of everything that determines the outputs."""
    import hashlib

    import numpy
    import scipy

    h = hashlib.sha256(f"numpy {numpy.__version__} scipy {scipy.__version__}\n".encode())
    files = sorted((ROOT / "src" / "procamsim").glob("*.py")) + sorted(
        (ROOT / "configs").glob("*.json")) + [BENCH_DIR / "profile.json"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": min(BLAS_THREADS, nproc or 1),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "limits": f"{LIMITS} with {nproc} cores",
    }


def check_digests(workload: str, seed: int, source: str, digests: dict) -> tuple[list, list]:
    """Compare each output digest with the reference copy and earlier runs.

    A difference under the same source fingerprint means the program is not
    deterministic, which is a failure; under another fingerprint it only
    reports that this output changed. Returns report lines and problems.
    """
    ref = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    expected = ref["digests"].get(workload, {}).get(str(seed), {})
    STATE_DIR.mkdir(exist_ok=True)
    log = STATE_DIR / "digests.jsonl"
    earlier = []
    if log.is_file():
        earlier = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    lines, problems = [], []
    for output, digest in digests.items():
        want = expected.get(output)
        if want is None:
            status = "no reference for this seed"
        elif want == digest:
            status = "matches reference"
        elif ref["source_sha256"] == source:
            status = "DIFFERS from the reference made by the same source"
            problems.append(f"{output} digest {digest} differs from the reference {want} "
                            "made by the same source")
        else:
            status = f"differs from the reference made by source {ref['source_sha256'][:12]}"
        key = {"source_sha256": source, "workload": workload, "seed": seed, "output": output}
        for entry in earlier:
            if {k: entry.get(k) for k in key} == key and entry["digest"] != digest:
                status += "; DIFFERS from an earlier run of the same source"
                problems.append(f"{output} digest {digest} differs from an earlier run of "
                                f"the same source ({entry['digest']})")
                break
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({**key, "digest": digest}) + "\n")
        lines.append(f"digest {output} sha256={digest} ({status})")
    return lines, problems


def summarize(units) -> tuple[dict, list]:
    """End-to-end values over the units of one run, plus consistency problems."""
    frames = [ms for u in units for ms in u.frame_ms]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    values = {
        "run_s": statistics.median(u.run_s for u in units),
        "frame_ms.p50": statistics.median(frames) if frames else math.nan,
        "fail_frac": failed / attempted,
        **units[0].accuracy,
    }
    if len(frames) >= P90_MIN_FRAMES:
        values["frame_ms.p90"] = statistics.quantiles(frames, n=10)[-1]
    problems = [p for u in units for p in u.problems]
    if any(u.digests != units[0].digests for u in units):
        problems.append("units of one run gave different output digests")
    if any(u.accuracy != units[0].accuracy for u in units):
        problems.append("units of one run gave different accuracy figures")
    return values, problems


def output_problems(values: dict) -> list:
    problems = [f"{name} is not finite" for name, v in values.items() if not math.isfinite(v)]
    if values["fail_frac"] > FAIL_FRAC_MAX:
        problems.append(f"fail_frac {values['fail_frac']:.3f} > {FAIL_FRAC_MAX}")
    limits = (("misalign_mm.mean", MISALIGN_MAX_MM), ("focal_err_px.max", FOCAL_ERR_MAX_PX),
              ("rms_px.max", RMS_MAX_PX))
    for name, limit in limits:
        if name in values and values[name] > limit:
            problems.append(f"{name} {values[name]:.4g} > {limit}")
    return problems


def trace_problems(ctx, layer: dict) -> list:
    """Checks that the wrappers saw the calls the workload must make."""
    import workloads

    cfg = ctx.cfg
    captures = {"dpm-image": cfg.dpm_frames, "dpm-oracle": 0,
                "calibrate-image": len(cfg.stations) * workloads.VIEWS_PER_STATION}[ctx.workload]
    calib_lm = len(cfg.stations) if ctx.kind == "calibrate" else 0
    expect = {
        "imaging.render_capture.calls": captures,
        "vision.detect_markers.calls": captures,
        "optim.lm.calib.calls": calib_lm,
    }
    problems = [f"{name} = {layer[name][0]:g}, expected {want}"
                for name, want in expect.items() if layer[name][0] != want]
    if ctx.kind == "dpm" and layer["pipeline.coverage_frac"][0] < COVERAGE_MIN:
        problems.append(f"device + world spans cover {layer['pipeline.coverage_frac'][0]:.3f} "
                        f"of frame_ms.p50 (< {COVERAGE_MIN})")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a procamsim checkout; missing {missing}",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    # Set-up, several times over in fresh interpreters, since imports happen
    # once per process; setup_s and its phases are the medians.
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_time.py"), args.workload, str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    setup = {k: statistics.median(s[k] for s in samples) for k in samples[0]}

    import procamsim.pipeline
    if Path(procamsim.__file__).resolve().parent != ROOT / "src" / "procamsim":
        print(f"perfbench: imported procamsim from {procamsim.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import layers
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    prov = provenance(args.workload, args.seed, args.trace)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    ctx, _ = workloads.set_up(args.workload, args.seed)
    if args.trace:
        # Fail on a missing wrapped name before spending a unit on the run.
        with layers.Patch() as patch:
            layers.install(patch, layers.Tracer())

    STATE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="out-", dir=STATE_DIR) as tmp:
        out_dir = Path(tmp)
        started = time.perf_counter()
        units = [workloads.run_unit(ctx, out_dir, hash_frames=bool(args.trace))]
        if args.trace:
            tracer = layers.Tracer()
            on_frame = tracer.start_frame if ctx.kind == "dpm" else None
            with layers.Patch() as patch:
                layers.install(patch, tracer)
                traced_unit = workloads.run_unit(ctx, out_dir, on_frame, hash_frames=True)
            tracer.end_frame()
        else:
            while True:
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(units) > args.seconds:
                    break
                units.append(workloads.run_unit(ctx, out_dir))

    values, problems = summarize(units)
    values["setup_s"] = setup["setup_s"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += output_problems(values)
    digests = dict(units[0].digests)
    if args.trace:
        if traced_unit.digests != digests:
            problems.append("the traced unit's output digests differ from the untraced unit's")
    digest_lines, digest_problems = check_digests(args.workload, args.seed,
                                                  prov["source_sha256"], digests)
    problems += digest_problems
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)

    for line in digest_lines:
        print(line)
    print(f"units {len(units)}, frames {sum(len(u.frame_ms) for u in units)}, "
          f"ops {attempted}, failed {failed}")
    units_of = {"run_s": "s", "setup_s": "s", "frame_ms.p50": "ms", "frame_ms.p90": "ms",
                "fail_frac": "ratio", "misalign_mm.mean": "mm", "focal_err_px.max": "px",
                "rms_px.max": "px", "peak_rss_mb": "MB"}
    for name in units_of:
        if name in values:
            print(f"  {name} = {values[name]!r} {units_of[name]}")

    if args.trace:
        traced_values, traced_problems = summarize([traced_unit])
        problems += traced_problems
        layer = layers.per_layer_metrics(tracer, setup, traced_values, values)
        problems += trace_problems(ctx, layer)
        for name, (value, unit) in layer.items():
            print(f"  {name} = {value!r} {unit}")
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]][0], "unit": layer[m["name"]][1]}
                   for m in wanted}
    else:
        wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for p in problems:
        print(f"PROBLEM: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
