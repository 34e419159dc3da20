"""End-to-end acceptance checks.

Each test covers one numbered criterion, computes its result, prints a
single PASS/FAIL line (run pytest with -s to see them), and then asserts.
Criterion 8 runs the experiment sweep once as a session fixture; criterion
9 repeats it with different worker counts and demands byte-identical CSV.
"""

import math
import time

import haar
import numpy as np
import pytest

from cfaisp.cfa import CfaPattern, MosaicImage, color_at, decompose, mosaic_from_rgb, recompose
from cfaisp.cli import main
from cfaisp.demosaic import DemosaickerConfig, demosaic, demosaic_bilinear, demosaic_gradient
from cfaisp.denoise import (
    DenoiserConfig,
    denoise_bilateral,
    denoise_gaussian,
    denoise_median,
    denoise_wavelet,
)
from cfaisp.imageio import CSV_HEADER, Plane, RgbImage
from cfaisp.noise import NoiseSpec, add_awgn, normal_field
from cfaisp.pipeline import Strategy, run_pipeline


def _report(number: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {verdict} | criterion {number}: {name}")


def _reflect(i: int, n: int) -> int:
    if n == 1:
        return 0
    period = 2 * n - 2
    i %= period
    return i if i < n else period - i


class TestAcceptance:
    def test_criterion_1_round_trip_exactness(self):
        rng = np.random.default_rng(1001)
        patterns = list(CfaPattern)
        start = time.perf_counter()
        ok = True
        for index in range(100):
            h = 2 * int(rng.integers(1, 33))
            w = 2 * int(rng.integers(1, 33))
            mosaic = MosaicImage(patterns[index % 4], Plane(rng.random((h, w))))
            restored = recompose(decompose(mosaic))
            ok = ok and np.array_equal(restored.plane.data, mosaic.plane.data)
            ok = ok and restored.pattern is mosaic.pattern
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 1.0
        _report(1, f"sub-image split/merge round trip, {elapsed:.2f}s", ok)
        assert ok

    def test_criterion_2_bayer_census(self):
        ok = True
        for pattern in CfaPattern:
            counts = {"R": 0, "G": 0, "B": 0}
            for row in range(16):
                for col in range(16):
                    counts[color_at(pattern, row, col)] += 1
            ok = ok and counts == {"G": 128, "R": 64, "B": 64}
        _report(2, "Bayer site census 128G/64R/64B per pattern", ok)
        assert ok

    def test_criterion_3_transform_correctness(self):
        rng = np.random.default_rng(1003)
        worst_recon = 0.0
        worst_energy = 0.0
        for index in range(50):
            data = rng.random((32, 32))
            levels = 1 + index % 3
            ll, details = haar.dwt(data, levels)
            restored = haar.idwt(ll, details)
            worst_recon = max(worst_recon, float(np.max(np.abs(restored - data))))
            energy = float(np.sum(ll**2))
            for triple in details:
                for band in triple:
                    energy += float(np.sum(band**2))
            total = float(np.sum(data**2))
            worst_energy = max(worst_energy, abs(energy - total) / total)
        ok = worst_recon < 1e-9 and worst_energy < 1e-9
        _report(3, f"Haar reconstruction {worst_recon:.1e}, energy balance {worst_energy:.1e}", ok)
        assert ok

    def test_criterion_4_demosaic_oracle_equivalence(self):
        rng = np.random.default_rng(1004)
        patterns = list(CfaPattern)
        worst = 0.0
        for index in range(20):
            pattern = patterns[index % 4]
            data = rng.random((6, 6))
            out = demosaic_bilinear(MosaicImage(pattern, Plane(data)))
            channel = {"R": out.r.data, "G": out.g.data, "B": out.b.data}
            for i in range(6):
                for j in range(6):
                    for color in "RGB":
                        if color_at(pattern, i, j) == color:
                            expected = data[i, j]
                        else:
                            num = den = 0.0
                            for u in (-1, 0, 1):
                                for v in (-1, 0, 1):
                                    si, sj = _reflect(i + u, 6), _reflect(j + v, 6)
                                    if color_at(pattern, si, sj) == color:
                                        num += data[si, sj]
                                        den += 1.0
                            expected = num / den
                        worst = max(worst, abs(channel[color][i, j] - expected))
        bilinear_ok = worst < 1e-12

        yy, xx = np.mgrid[0:32, 0:32].astype(float)
        ramp = 0.15 + 0.45 * xx / 31.0 + 0.25 * yy / 31.0
        truth = RgbImage(Plane(ramp), Plane(ramp), Plane(ramp))
        out = demosaic_gradient(mosaic_from_rgb(truth, CfaPattern.GBRG))
        interior = (slice(2, 30), slice(2, 30))
        ramp_err = max(float(np.max(np.abs(p.data[interior] - ramp[interior]))) for p in out.planes)
        gradient_ok = ramp_err < 1e-9

        ok = bilinear_ok and gradient_ok
        _report(4, f"bilinear oracle {worst:.1e}, gradient ramp {ramp_err:.1e}", ok)
        assert ok

    def test_criterion_5_noise_statistics(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.full((1024, 1024), 0.5)))
        noisy = add_awgn(mosaic, NoiseSpec.uniform(0.1, seed=2718))
        noise = noisy.plane.data - 0.5
        mean_ok = abs(noise.mean()) < 0.001
        std_ok = abs(noise.std() - 0.1) < 0.002

        other = add_awgn(mosaic, NoiseSpec.uniform(0.1, seed=31415)).plane.data - 0.5
        corr = float(np.corrcoef(noise.ravel(), other.ravel())[0, 1])
        corr_ok = abs(corr) < 0.01

        ok = mean_ok and std_ok and corr_ok
        _report(5, f"noise mean {noise.mean():+.2e}, std {noise.std():.4f}, cross-seed corr {corr:+.1e}", ok)
        assert ok

    def test_criterion_6_denoiser_efficacy(self):
        start = time.perf_counter()
        yy, xx = np.mgrid[0:256, 0:256].astype(float)
        radius = np.hypot(xx - 127.5, yy - 127.5)
        clean = 0.1 + 0.8 * (1.0 - radius / radius.max())
        noisy = clean + 0.05 * normal_field(1006, 256, 256)
        base_mse = float(np.mean((noisy - clean) ** 2))

        outputs = {
            "gaussian": denoise_gaussian(Plane(noisy), 1.0),
            "median": denoise_median(Plane(noisy), 1),
            "bilateral": denoise_bilateral(Plane(noisy), 1.0, 0.1),
            "wavelet": denoise_wavelet(Plane(noisy), 3, None),
        }
        reductions = {name: float(np.mean((out.data - clean) ** 2)) / base_mse for name, out in outputs.items()}
        each_ok = all(ratio < 1.0 for ratio in reductions.values())

        pure = 0.5 + 0.05 * normal_field(1007, 256, 256)
        cleaned = denoise_wavelet(Plane(pure), 3, 0.05)
        pure_ratio = float(np.mean((cleaned.data - 0.5) ** 2)) / float(np.mean((pure - 0.5) ** 2))
        halved_ok = pure_ratio <= 0.5

        elapsed = time.perf_counter() - start
        ok = each_ok and halved_ok and elapsed < 10.0
        summary = " ".join(f"{name}={ratio:.2f}" for name, ratio in reductions.items())
        _report(6, f"MSE ratios {summary}, pure-noise {pure_ratio:.2f}, {elapsed:.1f}s", ok)
        assert ok

    def test_criterion_7_zero_noise_collapse(self, corpus):
        silent = NoiseSpec.uniform(0.0, seed=7)
        identity_wavelet = DenoiserConfig(kind="wavelet", levels=3, sigma_n=0.0)
        ok = True
        for _, truth in corpus:
            for dm_kind in ("bilinear", "gradient"):
                dm = DemosaickerConfig(kind=dm_kind)
                after, _ = run_pipeline(truth, CfaPattern.GBRG, silent, Strategy.AFTER, identity_wavelet, dm)
                before, _ = run_pipeline(truth, CfaPattern.GBRG, silent, Strategy.BEFORE, identity_wavelet, dm)
                for a, b in zip(after.planes, before.planes):
                    ok = ok and np.array_equal(a.data, b.data)
        _report(7, "zero-noise After == Before bit-identical, both demosaickers", ok)
        assert ok

    def test_criterion_8_strategy_experiment(self, experiment_run):
        rows = experiment_run["rows"]
        ok = experiment_run["returncode"] == 0
        ok = ok and len(rows) == 90
        ok = ok and experiment_run["elapsed"] < 60.0

        means = _mean_cpsnr_by(rows)
        monotone_ok = True
        for strategy in ("after", "before"):
            series = [means[(strategy, sigma)] for sigma in (0.02, 0.05, 0.1)]
            monotone_ok = monotone_ok and series[0] >= series[1] >= series[2]

        baseline = _mean_cpsnr_by(experiment_run["baseline_rows"])
        beats_ok = True
        for strategy in ("after", "before"):
            for sigma in (0.05, 0.1):
                beats_ok = beats_ok and means[(strategy, sigma)] > baseline[(strategy, sigma)]

        ok = ok and monotone_ok and beats_ok
        _report(
            8,
            f"90-row sweep in {experiment_run['elapsed']:.1f}s, CPSNR non-increasing {monotone_ok}, beats baseline {beats_ok}",
            ok,
        )
        for sigma in (0.02, 0.05, 0.1):
            b, a = means[("before", sigma)], means[("after", sigma)]
            lead = "before" if b > a else "after"
            print(
                f"ACCEPTANCE REPORT | criterion 8: sigma={sigma:g} mean CPSNR "
                f"before={b:.2f} dB after={a:.2f} dB ({lead} leads by {abs(b - a):.2f} dB)"
            )
        assert ok

    def test_criterion_9_determinism(self, experiment_run, tmp_path):
        reference = experiment_run["csv_bytes"]
        ok = True
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}.csv"
            rc = main(experiment_run["argv"] + ["--jobs", str(jobs), "--out", str(out)])
            ok = ok and rc == 0 and out.read_bytes() == reference
        _report(9, "identical CSV bytes across reruns and worker counts", ok)
        assert ok


def _parse_csv(payload: bytes) -> list[dict]:
    lines = payload.decode("ascii").splitlines()
    assert lines[0] == CSV_HEADER
    names = lines[0].split(",")
    return [dict(zip(names, line.split(","))) for line in lines[1:]]


def _mean_cpsnr_by(rows: list[dict]) -> dict:
    groups: dict = {}
    for row in rows:
        key = (row["strategy"], float(row["sigma_g"]))
        groups.setdefault(key, []).append(float(row["cpsnr_db"]))
    return {key: sum(values) / len(values) for key, values in groups.items()}


@pytest.fixture(scope="session")
def experiment_run(corpus_dir, tmp_path_factory):
    """One full CLI experiment sweep shared by criteria 8 and 9."""
    root = tmp_path_factory.mktemp("sweep")
    inputs = [str(corpus_dir / f"{name}.ppm") for name in ("blobs", "boxes", "waves")]
    argv = [
        "experiment",
        *inputs,
        "--strategies", "after", "before",
        "--sigmas", "0.02", "0.05", "0.1",
        "--denoisers", "wavelet",
        "--dn-sigma-n", "auto",
        "--demosaickers", "bilinear",
        "--repeats", "5",
        "--seed", "0",
    ]
    out = root / "sweep.csv"
    start = time.perf_counter()
    rc = main(argv + ["--jobs", "2", "--out", str(out)])
    elapsed = time.perf_counter() - start
    csv_bytes = out.read_bytes() if rc == 0 else b""

    baseline_out = root / "baseline.csv"
    baseline_argv = [
        "experiment",
        *inputs,
        "--strategies", "after", "before",
        "--sigmas", "0.05", "0.1",
        "--denoisers", "none",
        "--demosaickers", "bilinear",
        "--repeats", "5",
        "--seed", "0",
        "--jobs", "2",
        "--out", str(baseline_out),
    ]
    baseline_rc = main(baseline_argv)
    return {
        "argv": argv,
        "returncode": rc,
        "elapsed": elapsed,
        "csv_bytes": csv_bytes,
        "rows": _parse_csv(csv_bytes) if rc == 0 else [],
        "baseline_rows": _parse_csv(baseline_out.read_bytes()) if baseline_rc == 0 else [],
    }
