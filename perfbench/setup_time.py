"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_time.py <workload> <seed>

Set-up is the imports (NumPy, SciPy, procamsim), the config and scene load,
the albedo rasterization and the profile build. Prints one JSON line with
``setup_s`` and the milliseconds of ``load_config`` and ``faces``. run.py
starts this several times per run and reports the medians, since imports
happen only once in a process.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
import procamsim.calibration  # noqa: E402,F401
import procamsim.config  # noqa: E402,F401
import procamsim.pipeline  # noqa: E402,F401
import procamsim.scene  # noqa: E402,F401
import workloads  # noqa: E402

_, phase_ms = workloads.set_up(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - t0, **phase_ms}))
