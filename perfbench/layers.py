"""Per-layer tracing by wrapping procamsim's functions from outside.

Nothing under ``src/`` is edited. Because ``pipeline`` and ``calibration``
import functions by name, each wrapper replaces the name in the module that
calls it (``pipeline.render_capture``, ``vision.levenberg_marquardt`` vs
``calibration.levenberg_marquardt``, ...). Wrappers observe and never alter:
they pass arguments and results through unchanged (the LM wrapper hands in
a proxy of the residual function that only counts calls), and record a span
(name, duration, self time) plus per-call counts. A wrapped name that no
longer exists stops the run with a message naming it.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# Kernel side above which optics.convolve takes its FFT path.
CONVOLVE_DIRECT_MAX_SIDE = 15

DEVICE = "device"
WORLD = "world"


class MissingAttribute(RuntimeError):
    """A name the benchmark wraps is gone from procamsim."""


def _lookup(module_name: str, attr: str):
    module = importlib.import_module(f"procamsim.{module_name}")
    if not callable(getattr(module, attr, None)):
        raise MissingAttribute(
            f"procamsim.{module_name}.{attr} no longer exists or is not callable; "
            f"perfbench cannot wrap it (update perfbench/layers.py)"
        )
    return module, getattr(module, attr)


class Patch:
    """Replace module attributes for the life of a ``with`` block."""

    def __init__(self):
        self._saved = []

    def set(self, module_name: str, attr: str, make_wrapper) -> None:
        module, original = _lookup(module_name, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


class FrameClock:
    """One ``perf_counter`` stamp at each call into a function, nothing else."""

    def __init__(self, on_tick=None):
        self.stamps = []
        self._on_tick = on_tick

    def wrapper(self, original):
        stamps = self.stamps
        on_tick = self._on_tick

        @functools.wraps(original)
        def clocked(*args, **kwargs):
            if on_tick is not None:
                on_tick()
            stamps.append(time.perf_counter())
            return original(*args, **kwargs)

        return clocked

    def frame_ms(self, end: float) -> list[float]:
        marks = self.stamps + [end]
        return [1000.0 * (b - a) for a, b in zip(marks, marks[1:])]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self._stack = []          # child-time accumulators of open spans
        self._group_depth = 0
        self.durations = defaultdict(list)   # name -> [ms]
        self.self_ms = defaultdict(list)     # name -> [ms]
        self.counts = defaultdict(float)
        self.group_ms = {DEVICE: 0.0, WORLD: 0.0}
        self.frames = []                     # per frame: {"device": ms, "world": ms}
        self.seen_keys = defaultdict(set)
        self.last_scene = None               # (target, true pose) of the last capture
        self._in_frame = False

    # --- spans --------------------------------------------------------------

    def span(self, name: str, original, group: str | None = None,
             before=None, after=None):
        """Wrapper recording ``name``; ``before`` may rewrite the arguments."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            outermost = group is not None and tracer._group_depth == 0
            if group is not None:
                tracer._group_depth += 1
            children = [0.0]
            tracer._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                if group is not None:
                    tracer._group_depth -= 1
                tracer.durations[name].append(1000.0 * dur)
                tracer.self_ms[name].append(1000.0 * (dur - children[0]))
                if outermost:
                    tracer.group_ms[group] += 1000.0 * dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def start_frame(self) -> None:
        """Close the running frame's device/world totals and open a new one."""
        self.end_frame()
        self.group_ms = {DEVICE: 0.0, WORLD: 0.0}
        self._in_frame = True

    def end_frame(self) -> None:
        if self._in_frame:
            self.frames.append(dict(self.group_ms))
            self._in_frame = False

    def repeat(self, name: str, key) -> None:
        """Count a call whose key exactly repeats an earlier call's."""
        seen = self.seen_keys[name]
        if key in seen:
            self.counts[f"{name}.repeats"] += 1
        seen.add(key)

    # --- summaries ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.durations[name])

    def p50(self, name: str) -> float:
        values = self.durations[name]
        return statistics.median(values) if values else 0.0

    def self_p50(self, name: str) -> float:
        values = self.self_ms[name]
        return statistics.median(values) if values else 0.0

    def total(self, name: str) -> float:
        return sum(self.durations[name])

    def frac(self, numerator: str, denominator_calls: str) -> float:
        calls = self.calls(denominator_calls)
        return self.counts[numerator] / calls if calls else 0.0


def install(patch: Patch, tracer: Tracer) -> None:
    """Wrap every traced procamsim function; undone when ``patch`` exits."""
    from procamsim import scene
    from procamsim.imaging import CAPTURE_SUPERSAMPLE

    t = tracer

    # imaging.render_capture: capture renders from dpm (world) and calibrate.
    def capture_before(args, kwargs):
        target, scene_pose, etl, base_intr, power, device_wh = args[:6]
        w, h = device_wh
        t.counts["render_capture.samples"] += w * h * CAPTURE_SUPERSAMPLE ** 2
        t.repeat("render_capture", (repr(etl), repr(base_intr), repr(power), tuple(device_wh)))
        t.last_scene = (target, scene_pose)
        return args, kwargs

    for module, group in (("pipeline", WORLD), ("imaging", None)):
        patch.set(module, "render_capture", lambda f, g=group: t.span(
            "render_capture", f, g, before=capture_before))

    # vision.detect_markers / oracle_detect: detection, device side in dpm.
    def detect_after(args, kwargs, detections):
        if t.last_scene is None:
            return
        target, pose = t.last_scene
        if isinstance(target, scene.PrismTarget):
            expected = {target.marker_ids[k] for k in scene.visible_faces(target, pose)}
        elif (pose.rotation @ target.faces()[0].normal)[2] < 0:
            expected = set(target.marker_ids())
        else:
            expected = set()
        t.counts["detect_markers.expected"] += len(expected)
        t.counts["detect_markers.found"] += len(expected & {d.marker_id for d in detections})

    for module, group in (("pipeline", DEVICE), ("vision", None)):
        patch.set(module, "detect_markers", lambda f, g=group: t.span(
            "detect_markers", f, g, after=detect_after))
    for module, group in (("pipeline", DEVICE), ("calibration", None)):
        patch.set(module, "oracle_detect", lambda f, g=group: t.span("oracle_detect", f, g))

    # Device loop (dpm): control, generate, precompensate.
    patch.set("pipeline", "autofocus_step", lambda f: t.span("autofocus_step", f, DEVICE))
    patch.set("pipeline", "projection_textures",
              lambda f: t.span("projection_textures", f, DEVICE))
    patch.set("pipeline", "render_device_image",
              lambda f: t.span("render_device_image", f, DEVICE))

    def wiener_before(args, kwargs):
        img, psf = args[:2]
        nsr = args[2] if len(args) > 2 else kwargs["nsr"]
        t.repeat("wiener_precompensate", (repr(psf.radius), img.height, img.width, repr(nsr)))
        return args, kwargs

    patch.set("pipeline", "wiener_precompensate", lambda f: t.span(
        "wiener_precompensate", f, DEVICE, before=wiener_before))
    for module, group in (("pipeline", DEVICE), ("imaging", None)):
        patch.set(module, "make_disk_psf", lambda f, g=group: t.span("make_disk_psf", f, g))

    # Simulated world (dpm): projection onto the surface and the external view.
    patch.set("pipeline", "render_projection_on_surface",
              lambda f: t.span("render_projection_on_surface", f, WORLD))
    patch.set("pipeline", "render_external", lambda f: t.span("render_external", f, WORLD))

    # Kernels under both parts.
    def sample_before(args, kwargs):
        t.counts["bilinear_sample_multi.samples"] += args[1].size
        return args, kwargs

    patch.set("imaging", "bilinear_sample_multi", lambda f: t.span(
        "bilinear_sample_multi", f, before=sample_before))

    def undistort_before(args, kwargs):
        t.counts["undistort_many.points"] += args[1].size // 2
        return args, kwargs

    patch.set("imaging", "undistort_many", lambda f: t.span(
        "undistort_many", f, before=undistort_before))

    def convolve_before(args, kwargs):
        fft = args[1].kernel.shape[0] > CONVOLVE_DIRECT_MAX_SIDE
        t.counts["convolve.fft_calls" if fft else "convolve.direct_calls"] += 1
        return args, kwargs

    patch.set("imaging", "convolve", lambda f: t.span("convolve", f, before=convolve_before))

    patch.set("pipeline", "estimate_pose", lambda f: t.span("estimate_pose", f))
    patch.set("pipeline", "interpolate", lambda f: t.span("interpolate", f))
    patch.set("calibration", "calibrate", lambda f: t.span("calibrate", f))

    # Levenberg-Marquardt, split by caller; residual evaluations are counted
    # by wrapping the residual function handed in.
    def lm(label):
        key = f"lm.{label}"

        def before(args, kwargs):
            residual_fn = args[0]

            def counted(x):
                t.counts[f"{key}.residual_evals"] += 1
                return residual_fn(x)

            return (counted,) + tuple(args[1:]), kwargs

        def after(args, kwargs, result):
            t.counts[f"{key}.iterations"] += result.iterations

        return lambda f: t.span(key, f, before=before, after=after)

    patch.set("vision", "levenberg_marquardt", lm("pose"))
    patch.set("calibration", "levenberg_marquardt", lm("calib"))


def per_layer_metrics(t: Tracer, setup: dict, traced: dict, untraced: dict) -> dict:
    """Per-layer metric values, keyed by the names in BENCHMARK.json."""
    device = [f[DEVICE] for f in t.frames]
    world = [f[WORLD] for f in t.frames]
    device_p50 = statistics.median(device) if device else 0.0
    world_p50 = statistics.median(world) if world else 0.0
    frame_p50 = traced["frame_ms.p50"]
    capture_calls = t.calls("render_capture")
    expected = t.counts["detect_markers.expected"]

    def ratio(a, b):
        return a / b - 1.0 if b > 0 else 0.0

    return {
        "pipeline.device_ms.p50": (device_p50, "ms"),
        "pipeline.world_ms.p50": (world_p50, "ms"),
        "pipeline.coverage_frac": (
            (device_p50 + world_p50) / frame_p50 if t.frames and frame_p50 > 0 else 0.0, "ratio"),
        "pipeline.autofocus_step.ms_p50": (t.p50("autofocus_step"), "ms"),
        "imaging.render_capture.calls": (capture_calls, "count"),
        "imaging.render_capture.ms_p50": (t.p50("render_capture"), "ms"),
        "imaging.render_capture.self_ms_p50": (t.self_p50("render_capture"), "ms"),
        "imaging.render_capture.samples": (t.counts["render_capture.samples"], "count"),
        "imaging.render_capture.repeat_intr_frac": (
            t.frac("render_capture.repeats", "render_capture"), "ratio"),
        "imaging.render_device_image.ms_p50": (t.p50("render_device_image"), "ms"),
        "imaging.render_projection_on_surface.ms_p50": (
            t.p50("render_projection_on_surface"), "ms"),
        "imaging.render_external.ms_p50": (t.p50("render_external"), "ms"),
        "imaging.bilinear_sample_multi.calls": (t.calls("bilinear_sample_multi"), "count"),
        "imaging.bilinear_sample_multi.samples": (
            t.counts["bilinear_sample_multi.samples"], "count"),
        "imaging.bilinear_sample_multi.ms_total": (t.total("bilinear_sample_multi"), "ms"),
        "geometry.undistort_many.calls": (t.calls("undistort_many"), "count"),
        "geometry.undistort_many.points": (t.counts["undistort_many.points"], "count"),
        "geometry.undistort_many.ms_total": (t.total("undistort_many"), "ms"),
        "optics.convolve.direct_calls": (t.counts["convolve.direct_calls"], "count"),
        "optics.convolve.fft_calls": (t.counts["convolve.fft_calls"], "count"),
        "optics.convolve.ms_total": (t.total("convolve"), "ms"),
        "optics.wiener_precompensate.calls": (t.calls("wiener_precompensate"), "count"),
        "optics.wiener_precompensate.ms_p50": (t.p50("wiener_precompensate"), "ms"),
        "optics.wiener_precompensate.repeat_psf_frac": (
            t.frac("wiener_precompensate.repeats", "wiener_precompensate"), "ratio"),
        "optics.make_disk_psf.calls": (t.calls("make_disk_psf"), "count"),
        "optics.make_disk_psf.ms_total": (t.total("make_disk_psf"), "ms"),
        "vision.detect_markers.calls": (t.calls("detect_markers"), "count"),
        "vision.detect_markers.ms_p50": (t.p50("detect_markers"), "ms"),
        "vision.detect_markers.recall": (
            t.counts["detect_markers.found"] / expected if expected else 0.0, "ratio"),
        "vision.estimate_pose.ms_p50": (t.p50("estimate_pose"), "ms"),
        "vision.oracle_detect.ms_total": (t.total("oracle_detect"), "ms"),
        **{
            f"optim.lm.{label}.{field}": value
            for label in ("pose", "calib")
            for field, value in (
                ("calls", (t.calls(f"lm.{label}"), "count")),
                ("iterations", (t.counts[f"lm.{label}.iterations"], "count")),
                ("residual_evals", (t.counts[f"lm.{label}.residual_evals"], "count")),
                ("ms_total", (t.total(f"lm.{label}"), "ms")),
            )
        },
        "calibration.calibrate.ms_p50": (t.p50("calibrate"), "ms"),
        "calibration.interpolate.calls": (t.calls("interpolate"), "count"),
        "scene.faces.ms": (setup["faces"], "ms"),
        "config.load_config.ms": (setup["load_config"], "ms"),
        "trace.overhead_frac": (ratio(frame_p50, untraced["frame_ms.p50"]), "ratio"),
        "trace.run_overhead_frac": (ratio(traced["run_s"], untraced["run_s"]), "ratio"),
    }
