"""Cross-check of the ROADMAP's hand-measured baseline against traced calls.

Each row's call goes through the module attributes a Tracer wraps, so its
time is the inclusive duration of the call's root span. Like the ROADMAP
table, a row reports the best of a few calls.
"""

from __future__ import annotations

from spans import cfa, demosaic, denoise, noise, pipeline
from cfaisp.demosaic import DemosaickerConfig
from cfaisp.denoise import DenoiserConfig
from cfaisp.noise import NoiseSpec
from cfaisp.pipeline import Strategy

# ROADMAP "Baseline" table in ms: 2 cores, numpy 2.4.6, scipy 1.17.1, best of 3.
ROADMAP_MS = {
    "demosaic joint-bilateral": {512: 897, 1024: 4401},
    "denoise bilateral (one full plane)": {512: 95, 1024: 514},
    "denoise median (one full plane)": {512: 53, 1024: 201},
    "demosaic bilinear": {512: 31, 1024: 144},
    "demosaic gradient": {512: 33, 1024: 140},
    "add_awgn": {512: 14, 1024: 57},
    "denoise wavelet (one full plane)": {512: 8, 1024: 37},
    "denoise gaussian (one full plane)": {512: 6, 1024: 31},
    "run_pipeline after (wavelet, bilinear)": {512: 87, 1024: 313},
    "run_pipeline before (wavelet, bilinear)": {512: 64, 1024: 261},
    "run_pipeline joint": {512: 905, 1024: 4941},
}
# The ROADMAP's 288-run sweep at 256 squared, in seconds.
ROADMAP_SWEEP_S = {"jobs=1": 7.3, "jobs=2": 3.3}
TOLERANCE = 0.20
BEST_OF = 3
# Joint-bilateral calls at this size or above run once: one takes seconds.
SINGLE_CALL_SIZE = 1024


def probe(tracer, truth, seed: int) -> dict[str, float]:
    """Best-of inclusive ms of each ROADMAP row at the size of truth."""
    size = truth.r.data.shape[0]
    spec = NoiseSpec.uniform(0.05, seed)
    mosaic = cfa.mosaic_from_rgb(truth, cfa.CfaPattern.GBRG)
    noisy = noise.add_awgn(mosaic, spec)
    plane = demosaic.demosaic(noisy, DemosaickerConfig(kind="bilinear")).g
    wavelet = DenoiserConfig(kind="wavelet")
    bilinear = DemosaickerConfig(kind="bilinear")
    joint = DemosaickerConfig(kind="joint-bilateral")
    rows = {
        "demosaic joint-bilateral": lambda: demosaic.demosaic_joint_bilateral(noisy, joint.sigma_s, joint.sigma_r),
        "denoise bilateral (one full plane)": lambda: denoise.denoise_plane(plane, DenoiserConfig(kind="bilateral")),
        "denoise median (one full plane)": lambda: denoise.denoise_plane(plane, DenoiserConfig(kind="median")),
        "demosaic bilinear": lambda: demosaic.demosaic(noisy, bilinear),
        "demosaic gradient": lambda: demosaic.demosaic(noisy, DemosaickerConfig(kind="gradient")),
        "add_awgn": lambda: noise.add_awgn(mosaic, spec),
        "denoise wavelet (one full plane)": lambda: denoise.denoise_plane(plane, wavelet),
        "denoise gaussian (one full plane)": lambda: denoise.denoise_plane(plane, DenoiserConfig(kind="gaussian")),
        "run_pipeline after (wavelet, bilinear)": lambda: pipeline.run_pipeline(
            truth, cfa.CfaPattern.GBRG, spec, Strategy.AFTER, wavelet, bilinear
        ),
        "run_pipeline before (wavelet, bilinear)": lambda: pipeline.run_pipeline(
            truth, cfa.CfaPattern.GBRG, spec, Strategy.BEFORE, wavelet, bilinear
        ),
        "run_pipeline joint": lambda: pipeline.run_pipeline(truth, cfa.CfaPattern.GBRG, spec, Strategy.JOINT, wavelet, joint),
    }
    best = {}
    with tracer.installed():
        for row, call in rows.items():
            calls = 1 if "joint" in row and size >= SINGLE_CALL_SIZE else BEST_OF
            times = []
            for _ in range(calls):
                first = len(tracer.spans)
                call()
                times.append(tracer.spans[first].duration_s * 1000.0)
            best[row] = min(times)
    return best


def _verdict(measured: float, expected: float) -> tuple[float, str]:
    change = measured / expected - 1.0
    return change, "confirmed" if abs(change) <= TOLERANCE else "DIFFERS"


def table(size: int, measured_ms: dict[str, float]) -> list[str]:
    lines = [f"{'stage / run':42s} {'size':>5s} {'measured ms':>12s} {'ROADMAP ms':>11s} {'change':>8s}  verdict"]
    for row, by_size in ROADMAP_MS.items():
        expected = by_size[size]
        change, verdict = _verdict(measured_ms[row], expected)
        lines.append(f"{row:42s} {size:5d} {measured_ms[row]:12.1f} {expected:11d} {change:+8.1%}  {verdict}")
    return lines


def sweep_table(measured_s: dict[str, float]) -> list[str]:
    lines = [f"{'288-run sweep at 256 squared':42s} {'measured s':>12s} {'ROADMAP s':>11s} {'change':>8s}  verdict"]
    for jobs, expected in ROADMAP_SWEEP_S.items():
        change, verdict = _verdict(measured_s[jobs], expected)
        lines.append(f"{jobs:42s} {measured_s[jobs]:12.2f} {expected:11.1f} {change:+8.1%}  {verdict}")
    return lines
