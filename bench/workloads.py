"""The benchmark's workloads: seeded synthetic inputs and one measured pass each.

A workload drives only cfaisp's public API, and always through module
attributes (``pipeline.run_pipeline``, ``cli.main``, ...), so a Tracer's
wrappers see every call. A pass is a fixed sequence of API calls, each timed
on its own; the pass checks its outputs by sha256 digest.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from cfaisp import cli, imageio, pipeline
from cfaisp.cfa import CfaPattern
from cfaisp.demosaic import DemosaickerConfig
from cfaisp.denoise import DenoiserConfig
from cfaisp.noise import NoiseSpec
from cfaisp.pipeline import ExperimentGrid, Strategy
from spans import counting_pickled_bytes

PATTERN = CfaPattern.GBRG
_TO_UNIT = 2.0**-53


@dataclass
class Call:
    """One timed API call of a pass."""

    label: str
    seconds: float
    runs: int
    failed: int


@dataclass
class PassResult:
    calls: list[Call] = field(default_factory=list)
    run_ms: list[float] = field(default_factory=list)
    digests: dict[str, str | None] = field(default_factory=dict)
    # In-pass identities held (the jobs=1 and jobs=2 CSVs are byte-identical).
    consistent: bool = True
    jobs2_s: float | None = None
    jobs2_runs: int = 0
    jobs2_failed: int = 0
    pickled_bytes: int | None = None

    @property
    def serial_s(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def serial_runs(self) -> int:
        return sum(c.runs for c in self.calls)

    @property
    def attempted(self) -> int:
        return self.serial_runs + self.jobs2_runs

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.calls) + self.jobs2_failed


def _report_failure(label: str) -> None:
    print(f"run failed: {label}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _zeroed_csv(records) -> bytes:
    return imageio.write_csv([replace(r, wall_ms=0.0) for r in records])


def synth_scene(size: int, seed: int, index: int) -> imageio.RgbImage:
    """A smooth-ramp, textured scene with sharp-edged colored shapes.

    Parameters come from the raw PCG64 stream of (seed, index), whose bits
    numpy keeps stable across releases. All three channels share the shapes'
    edges, as natural images do, so edge-aware filters have edges to keep.
    """
    words = np.random.PCG64([seed, index]).random_raw(128)
    uniforms = iter((words >> np.uint64(11)).astype(np.float64) * _TO_UNIT)
    u = lambda: float(next(uniforms))  # noqa: E731
    y, x = np.mgrid[0:size, 0:size] / float(size)
    mix = u()
    ramp = 0.2 + 0.3 * (mix * x + (1.0 - mix) * y)
    texture = 0.08 * np.sin(2.0 * np.pi * ((4 + 20 * u()) * x + (4 + 20 * u()) * y) + 2.0 * np.pi * u())
    channels = [ramp + texture * (0.5 + u()) for _ in range(3)]
    for _ in range(6):
        cy, cx, radius = u(), u(), 0.05 + 0.2 * u()
        if u() < 0.5:
            region = (y - cy) ** 2 + (x - cx) ** 2 < radius * radius
        else:
            region = (np.abs(y - cy) < radius) & (np.abs(x - cx) < 0.6 * radius)
        for plane in channels:
            plane[region] = 0.05 + 0.9 * u()
    return imageio.RgbImage(*(imageio.Plane(np.clip(p, 0.0, 1.0)) for p in channels))


class Workload:
    name = ""
    size = 0
    scenes = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Synthesize the scenes and write any input files."""
        self.corpus = [(f"scene{i}.ppm", synth_scene(self.size, self.seed, i)) for i in range(self.scenes)]

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool = False, count_pickles: bool = False) -> PassResult:
        raise NotImplementedError

    def plan(self):
        raise NotImplementedError

    def runs_per_pass(self) -> int:
        return sum(1 for _ in self.plan())

    def repeat_of_seed(self) -> dict[int, int]:
        return {pipeline.derive_run_seed(self.seed, image_id, 0): 0 for image_id, _ in self.corpus}

    def sizes(self) -> dict[str, int]:
        plane = self.size * self.size * 8
        return {
            "size": self.size,
            "scenes": self.scenes,
            "plane_bytes": plane,
            "corpus_bytes": 3 * plane * self.scenes,
        }


class Sweep256(Workload):
    """run_experiment over 288 grid points, once with jobs=1 and once with jobs=2."""

    name = "sweep-256"
    size = 256
    scenes = 3
    grid = ExperimentGrid(
        strategies=(Strategy.AFTER, Strategy.BEFORE),
        sigmas=(0.02, 0.05, 0.1),
        denoisers=tuple(DenoiserConfig(kind=k) for k in ("none", "gaussian", "median", "wavelet")),
        demosaickers=(DemosaickerConfig(kind="bilinear"), DemosaickerConfig(kind="gradient")),
        repeats=2,
        pattern=PATTERN,
    )

    def warm_up(self) -> None:
        grid = replace(self.grid, repeats=1)
        for jobs in (1, 2):
            pipeline.run_experiment(self.corpus[:1], grid, master_seed=self.seed, jobs=jobs)

    def repeat_of_seed(self) -> dict[int, int]:
        return {
            pipeline.derive_run_seed(self.seed, image_id, repeat): repeat
            for image_id, _ in self.corpus
            for repeat in range(self.grid.repeats)
        }

    def runs_per_pass(self) -> int:
        return self.scenes * sum(1 for _ in self.grid.points())

    def _sweep(self, jobs: int) -> tuple[list, bytes | None, float, float]:
        """(records, zeroed CSV, run_experiment seconds, write_csv seconds)."""
        start = time.perf_counter()
        try:
            records = pipeline.run_experiment(self.corpus, self.grid, master_seed=self.seed, jobs=jobs, keep_timing=True)
        except Exception:
            _report_failure(f"{self.name} run_experiment jobs={jobs}")
            return [], None, time.perf_counter() - start, 0.0
        middle = time.perf_counter()
        payload = _zeroed_csv(records)
        return records, payload, middle - start, time.perf_counter() - middle

    def run_pass(self, traced: bool = False, count_pickles: bool = False) -> PassResult:
        runs = self.runs_per_pass()
        result = PassResult()
        records, csv1, sweep_s, csv_s = self._sweep(jobs=1)
        failed = 0 if csv1 is not None else runs
        result.calls = [Call("run_experiment jobs=1", sweep_s, runs, failed), Call("write_csv", csv_s, 0, 0)]
        result.run_ms = [r.wall_ms for r in records]
        result.digests = {"csv": _sha256(csv1) if csv1 is not None else None}
        if traced:
            return result
        if count_pickles:
            with counting_pickled_bytes() as pickled:
                _, csv2, sweep_s, csv_s = self._sweep(jobs=2)
            result.pickled_bytes = pickled[0]
        else:
            _, csv2, sweep_s, csv_s = self._sweep(jobs=2)
        result.jobs2_s = sweep_s + csv_s
        result.jobs2_runs = runs
        result.jobs2_failed = 0 if csv2 is not None else runs
        result.consistent = csv1 is not None and csv1 == csv2
        return result


class Bilateral512(Workload):
    """Joint strategy, and after + bilateral + bilinear, at 512 squared, serial.

    The joint strategy runs at three sigmas and the after strategy at two,
    so the median run is a joint run rather than the gap between two modes.
    """

    name = "bilateral-512"
    size = 512
    scenes = 1
    joint_sigmas = (0.02, 0.05, 0.1)
    after_sigmas = (0.05, 0.1)

    def plan(self):
        joint = DemosaickerConfig(kind="joint-bilateral")
        bilateral = DenoiserConfig(kind="bilateral")
        bilinear = DemosaickerConfig(kind="bilinear")
        none = DenoiserConfig(kind="none")
        for image_id, truth in self.corpus:
            for sigma in self.joint_sigmas:
                yield image_id, truth, Strategy.JOINT, sigma, none, joint
            for sigma in self.after_sigmas:
                yield image_id, truth, Strategy.AFTER, sigma, bilateral, bilinear

    def _run(self, image_id, truth, strategy, sigma, dn, dm):
        seed = pipeline.derive_run_seed(self.seed, image_id, 0)
        spec = NoiseSpec.uniform(sigma, seed)
        return pipeline.run_pipeline(truth, PATTERN, spec, strategy, dn, dm, image_id=image_id)

    def warm_up(self) -> None:
        done = set()
        for run in self.plan():
            if run[2] not in done:
                done.add(run[2])
                self._run(*run)

    def run_pass(self, traced: bool = False, count_pickles: bool = False) -> PassResult:
        result = PassResult()
        records = []
        for run in self.plan():
            label = f"{run[0]} {run[2].value} sigma={run[3]:g}"
            start = time.perf_counter()
            try:
                _, record = self._run(*run)
                failed = 0
            except Exception:
                _report_failure(label)
                failed = 1
            seconds = time.perf_counter() - start
            result.calls.append(Call(label, seconds, 1, failed))
            result.run_ms.append(seconds * 1000.0)
            if not failed:
                records.append(record)
        start = time.perf_counter()
        payload = _zeroed_csv(records)
        result.calls.append(Call("write_csv", time.perf_counter() - start, 0, 0))
        result.digests = {"csv": _sha256(payload)}
        return result


class Frame1024(Workload):
    """cli.main(["pipeline", ...]) in-process on 16-bit 1024 squared PPM files.

    before + wavelet + gradient runs at two sigmas and after + wavelet +
    bilinear at one, so the median run is a before run.
    """

    name = "frame-1024"
    size = 1024
    scenes = 2
    configs = (("before", "gradient", 0.05), ("before", "gradient", 0.1), ("after", "bilinear", 0.05))

    def setup(self) -> None:
        super().setup()
        self.input_bytes = 0
        self.frames = []
        for image_id, truth in self.corpus:
            path = os.path.join(self.workdir, image_id)
            payload = imageio.encode_pnm(truth, bit_depth=16)
            with open(path, "wb") as handle:
                handle.write(payload)
            self.input_bytes += len(payload)
            self.frames.append((image_id, path))

    def sizes(self) -> dict[str, int]:
        return {**super().sizes(), "input_file_bytes": self.input_bytes}

    def plan(self):
        for image_id, path in self.frames:
            seed = pipeline.derive_run_seed(self.seed, image_id, 0)
            for strategy, demosaicker, sigma in self.configs:
                out = os.path.join(self.workdir, f"out-{strategy}-{sigma:g}-{image_id}")
                argv = [
                    "pipeline", "--in", path, "--out", out, "--strategy", strategy,
                    "--pattern", PATTERN.value, "--sigma", f"{sigma:g}", "--seed", str(seed),
                    "--denoiser", "wavelet", "--demosaicker", demosaicker, "--depth", "16",
                ]  # fmt: skip
                yield f"{image_id} {strategy} {demosaicker} sigma={sigma:g}", argv, out

    @staticmethod
    def _main(argv) -> tuple[int, bytes, float]:
        """(exit code, stdout bytes, seconds) of one in-process cli.main call."""
        saved = sys.stdout
        sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        try:
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
            sys.stdout.flush()
            return code, sys.stdout.buffer.getvalue(), seconds
        finally:
            sys.stdout = saved

    def warm_up(self) -> None:
        seen = set()
        for _, argv, _ in self.plan():
            key = argv[argv.index("--strategy") + 1]
            if key not in seen:
                seen.add(key)
                self._main(argv)

    def run_pass(self, traced: bool = False, count_pickles: bool = False) -> PassResult:
        result = PassResult()
        rows = []
        ppm = hashlib.sha256()
        zero = imageio.format_float(0.0)
        for label, argv, out in self.plan():
            try:
                code, stdout, seconds = self._main(argv)
            except Exception:
                _report_failure(label)
                code, stdout, seconds = -1, b"", 0.0
            failed = int(code != 0)
            result.calls.append(Call(label, seconds, 1, failed))
            result.run_ms.append(seconds * 1000.0)
            if failed:
                print(f"run failed: {label}: exit code {code}", file=sys.stderr)
                continue
            _, row = stdout.decode("ascii").splitlines()
            rows.append(row.rsplit(",", 1)[0] + "," + zero)
            with open(out, "rb") as handle:
                ppm.update(handle.read())
        csv = ("\n".join([imageio.CSV_HEADER, *rows]) + "\n").encode("ascii")
        result.digests = {"csv": _sha256(csv), "ppm": ppm.hexdigest()}
        return result


WORKLOADS = {w.name: w for w in (Sweep256, Bilateral512, Frame1024)}
