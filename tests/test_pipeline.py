"""Strategy pipeline, metric, and experiment-runner tests."""

import gc
import itertools
import math
import re
import threading
import warnings
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from multiprocessing.reduction import ForkingPickler
from types import SimpleNamespace

import numpy as np
import pytest

import cfaisp.pipeline as pipeline
from cfaisp import _kernel, denoise, noise
from cfaisp.cfa import CfaPattern, mosaic_from_rgb
from cfaisp.demosaic import DEMOSAICKER_KINDS, DemosaickerConfig, demosaic, demosaic_joint_bilateral
from cfaisp.denoise import DenoiserConfig
from cfaisp.imageio import CSV_HEADER, DimensionError, Plane, RgbImage, write_csv
from cfaisp.noise import NoiseSpec
from cfaisp.pipeline import (
    METRIC_CROP,
    ExperimentGrid,
    ExperimentRecord,
    Strategy,
    check_pairing,
    cpsnr,
    derive_run_seed,
    fnv1a64,
    mse,
    psnr,
    run_experiment,
    run_pipeline,
)


def _ramp_image(size=32):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    ramp = 0.2 + 0.5 * xx / (size - 1) + 0.2 * yy / (size - 1)
    return RgbImage(Plane(ramp), Plane(ramp), Plane(ramp))


def _textured_image(size=48, seed=40):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    base = 0.3 + 0.25 * np.sin(2 * np.pi * (2 * xx + yy)) * np.cos(2 * np.pi * yy)
    base = 0.5 + 0.4 * (base - base.mean())
    r = np.clip(base + 0.05 * rng.standard_normal((size, size)) * 0, 0, 1)
    return RgbImage(Plane(r), Plane(np.clip(base, 0, 1)), Plane(np.clip(base * 0.9 + 0.05, 0, 1)))


WAVELET = DenoiserConfig(kind="wavelet", levels=2)
BILINEAR = DemosaickerConfig(kind="bilinear")
GRADIENT = DemosaickerConfig(kind="gradient")
JOINT = DemosaickerConfig(kind="joint-bilateral")
NONE = DenoiserConfig(kind="none")


def _huge_image(size=16):
    """Finite samples that fail at run time: a demosaic sum of them overflows."""
    return RgbImage(*(Plane(np.full((size, size), 1e308)) for _ in range(3)))


class TestMse:
    def test_identical_is_zero(self):
        plane = Plane(np.random.default_rng(1).random((8, 8)))
        assert mse(plane, plane) == 0.0

    def test_constant_offset(self):
        a = Plane(np.zeros((6, 6)))
        b = Plane(np.full((6, 6), 0.1))
        assert mse(a, b) == pytest.approx(0.01, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x, y = rng.random((7, 9)), rng.random((7, 9))
        total = 0.0
        for i in range(7):
            for j in range(9):
                total += (x[i, j] - y[i, j]) ** 2
        assert mse(Plane(x), Plane(y)) == pytest.approx(total / 63, rel=1e-12)

    def test_crop_equals_manual_slice(self):
        rng = np.random.default_rng(3)
        x, y = rng.random((12, 10)), rng.random((12, 10))
        inner = mse(Plane(x[2:-2, 2:-2]), Plane(y[2:-2, 2:-2]))
        assert mse(Plane(x), Plane(y), crop=2) == pytest.approx(inner, rel=1e-12)

    @pytest.mark.parametrize("crop", [0, 1, 4])
    def test_matches_the_whole_frame_expression(self, crop):
        rng = np.random.default_rng(4)
        x, y = rng.random((64, 48)), rng.random((64, 48))
        x[::5], y[::7] = -0.0, 0.0
        diff = x[crop : 64 - crop, crop : 48 - crop] - y[crop : 64 - crop, crop : 48 - crop]
        assert mse(Plane(x), Plane(y), crop) == float(np.mean(diff * diff))

    def test_memory_is_one_difference_plane(self, peak_bytes):
        # diff * diff made a second plane.
        rng = np.random.default_rng(5)
        a, b = Plane(rng.random((512, 512))), Plane(rng.random((512, 512)))
        assert peak_bytes(lambda: mse(a, b, 4)) < 1.25 * a.data.nbytes

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse(Plane(np.zeros((4, 4))), Plane(np.zeros((4, 5))))

    def test_overlarge_crop(self):
        with pytest.raises(DimensionError):
            mse(Plane(np.zeros((8, 8))), Plane(np.zeros((8, 8))), crop=4)

    @pytest.mark.parametrize("crop", [-1, 1.5, True])
    def test_negative_crop(self, crop):
        with pytest.raises(ValueError, match=rf"^crop must be an integer >= 0, got {crop!r}$"):
            mse(Plane(np.zeros((8, 8))), Plane(np.zeros((8, 8))), crop=crop)


class TestPsnr:
    def test_reference_points(self):
        assert psnr(0.01) == pytest.approx(20.0, abs=1e-12)
        assert psnr(1e-4) == pytest.approx(40.0, abs=1e-12)
        assert psnr(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_is_infinite(self):
        assert psnr(0.0) == math.inf

    def test_an_infinite_mse_is_minus_infinity(self):
        assert psnr(math.inf) == -math.inf

    def test_an_mse_whose_reciprocal_overflows_is_finite(self):
        # 1 / mse overflows below about 5.6e-309; the PSNR is still -10 log10(mse).
        assert psnr(5e-324) == pytest.approx(3233.062153431158, abs=1e-9)
        assert psnr(1e-310) > psnr(1e-300)
        assert psnr(1e-310) == pytest.approx(3100.0, abs=1e-9)

    @pytest.mark.parametrize("value", [-1e-9, math.nan])
    def test_negative_mse_rejected(self, value):
        with pytest.raises(ValueError):
            psnr(value)


class TestCpsnr:
    def test_identical_is_infinite(self):
        image = _ramp_image(16)
        assert cpsnr(image, image) == math.inf

    def test_single_channel_error(self):
        base = np.zeros((8, 8))
        truth = RgbImage(Plane(base), Plane(base), Plane(base))
        test = RgbImage(Plane(base + 0.1), Plane(base), Plane(base))
        # channel MSEs are (0.01, 0, 0) so the mean is 0.01/3
        assert cpsnr(truth, test) == pytest.approx(10 * math.log10(3 / 0.01), abs=1e-12)
        assert cpsnr(truth, test) == pytest.approx(24.771212547196624, abs=1e-9)

    def test_composition_from_channel_mses(self):
        rng = np.random.default_rng(4)
        truth = RgbImage(*(Plane(rng.random((10, 10))) for _ in range(3)))
        test = RgbImage(*(Plane(rng.random((10, 10))) for _ in range(3)))
        mean_mse = np.mean([mse(a, b, 1) for a, b in zip(truth.planes, test.planes)])
        assert cpsnr(truth, test, crop=1) == pytest.approx(psnr(float(mean_mse)), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cpsnr(_ramp_image(16), _ramp_image(18))


class TestRunPipeline:
    @pytest.mark.parametrize("kind", DEMOSAICKER_KINDS)
    def test_joint_strategy_requires_joint_demosaicker(self, kind):
        truth = _ramp_image(16)
        noise = NoiseSpec.uniform(0.05, 1)
        dm = DemosaickerConfig(kind=kind)
        if kind == "joint-bilateral":
            assert run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.JOINT, NONE, dm)[1].demosaicker == dm.describe()
        else:
            with pytest.raises(ValueError, match="joint"):
                run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.JOINT, NONE, dm)
            with pytest.raises(ValueError, match="joint"):
                check_pairing(Strategy.JOINT, dm)

    @pytest.mark.parametrize("kind", DEMOSAICKER_KINDS)
    @pytest.mark.parametrize("strategy", [Strategy.AFTER, Strategy.BEFORE])
    def test_nonjoint_strategy_rejects_joint_demosaicker(self, strategy, kind):
        truth = _ramp_image(16)
        noise = NoiseSpec.uniform(0.05, 1)
        dm = DemosaickerConfig(kind=kind)
        if kind != "joint-bilateral":
            assert run_pipeline(truth, CfaPattern.GBRG, noise, strategy, NONE, dm)[1].demosaicker == kind
        else:
            with pytest.raises(ValueError, match="non-joint"):
                run_pipeline(truth, CfaPattern.GBRG, noise, strategy, NONE, dm)
            with pytest.raises(ValueError, match="non-joint"):
                check_pairing(strategy, dm)

    @pytest.mark.parametrize("dm", [BILINEAR, GRADIENT])
    @pytest.mark.parametrize("dn", [DenoiserConfig(kind="wavelet", levels=2, sigma_n=0.0), NONE])
    def test_zero_noise_collapses_strategies(self, dm, dn):
        # With sigma 0 and an identity denoiser, After and Before both reduce
        # to plain demosaicking of the clean mosaic, bit for bit.
        truth = _textured_image(32)
        noise = NoiseSpec.uniform(0.0, 9)
        reference = demosaic(mosaic_from_rgb(truth, CfaPattern.GBRG), dm)
        for strategy in (Strategy.AFTER, Strategy.BEFORE):
            result, _ = run_pipeline(truth, CfaPattern.GBRG, noise, strategy, dn, dm)
            for got, want in zip(result.planes, reference.planes):
                assert np.array_equal(got.data, want.data)

    def test_joint_zero_noise_matches_direct_call(self):
        truth = _textured_image(32)
        noise = NoiseSpec.uniform(0.0, 9)
        result, record = run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.JOINT, WAVELET, JOINT)
        want = demosaic_joint_bilateral(mosaic_from_rgb(truth, CfaPattern.GBRG), JOINT.sigma_s, JOINT.sigma_r)
        for got, expected in zip(result.planes, want.planes):
            assert np.array_equal(got.data, expected.data)
        assert record.denoiser == "none"

    def test_constant_image_scores_infinite(self):
        flat = np.full((32, 32), 0.5)
        truth = RgbImage(Plane(flat), Plane(flat), Plane(flat))
        noise = NoiseSpec.uniform(0.0, 5)
        _, record = run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.AFTER, NONE, BILINEAR)
        assert record.cpsnr_db == math.inf
        assert record.mse_r == 0.0 and record.mse_g == 0.0 and record.mse_b == 0.0

    @pytest.mark.parametrize(
        "strategy,dn,dm",
        [(Strategy.AFTER, NONE, BILINEAR), (Strategy.BEFORE, DenoiserConfig(kind="gaussian"), BILINEAR), (Strategy.AFTER, WAVELET, GRADIENT)],
        ids=["after-none", "before-gaussian", "after-wavelet-gradient"],
    )
    def test_an_error_whose_square_overflows_scores_minus_infinity(self, strategy, dn, dm):
        # A finite checkerboard of +-1e200: bilinear's estimates miss by about
        # 1e200, whose square overflows. Tier-1 makes the overflow warning an
        # error, and psnr took log10(0) of the infinite MSE. The wavelet
        # estimates sigma near 1e184 from gradient's planes, whose square
        # overflows a Python float.
        board = np.where(np.add.outer(np.arange(16), np.arange(16)) % 2, 1e200, -1e200)
        truth = RgbImage(Plane(board), Plane(board), Plane(board))
        _, record = run_pipeline(truth, CfaPattern.GBRG, NoiseSpec.uniform(0.0), strategy, dn, dm)
        assert record.cpsnr_db == -math.inf and record.mse_g == math.inf
        row = dict(zip(CSV_HEADER.split(","), write_csv([record]).decode("ascii").splitlines()[1].split(",")))
        assert row["cpsnr_db"] == "-inf" and row["mse_g"] == "inf"

    def test_gradient_on_clean_ramp_scores_near_machine_precision(self):
        truth = _ramp_image(32)
        noise = NoiseSpec.uniform(0.0, 5)
        _, record = run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.AFTER, NONE, GRADIENT)
        assert record.cpsnr_db > 200.0

    def test_record_fields(self):
        truth = _textured_image(32)
        noise = NoiseSpec(sigma_r=0.02, sigma_g=0.03, sigma_b=0.04, seed=77)
        _, record = run_pipeline(
            truth, CfaPattern.RGGB, noise, Strategy.BEFORE, WAVELET, BILINEAR, image_id="tex"
        )
        assert record.image == "tex"
        assert record.pattern == "rggb"
        assert record.strategy == "before"
        assert record.denoiser == WAVELET.describe()
        assert record.demosaicker == "bilinear"
        assert (record.sigma_r, record.sigma_g, record.sigma_b) == (0.02, 0.03, 0.04)
        assert record.seed == 77
        assert record.wall_ms > 0.0

    def test_record_metrics_recomputable(self):
        truth = _textured_image(32)
        noise = NoiseSpec.uniform(0.05, 13)
        result, record = run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.AFTER, WAVELET, BILINEAR)
        expected = [mse(a, b, METRIC_CROP) for a, b in zip(truth.planes, result.planes)]
        assert (record.mse_r, record.mse_g, record.mse_b) == tuple(expected)
        assert record.psnr_g_db == pytest.approx(psnr(expected[1]), abs=1e-12)
        assert record.cpsnr_db == pytest.approx(cpsnr(truth, result, METRIC_CROP), abs=1e-12)

    def test_denoising_before_demosaicking_beats_no_denoising(self, corpus):
        name, truth = corpus[0]
        noise = NoiseSpec.uniform(0.05, 99)
        _, treated = run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.BEFORE, WAVELET, BILINEAR)
        _, baseline = run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.BEFORE, NONE, BILINEAR)
        assert treated.cpsnr_db > baseline.cpsnr_db

    def test_records_are_frozen(self):
        truth = _ramp_image(16)
        _, record = run_pipeline(
            truth, CfaPattern.GBRG, NoiseSpec.uniform(0.0, 0), Strategy.AFTER, NONE, BILINEAR
        )
        with pytest.raises(FrozenInstanceError):
            record.cpsnr_db = 0.0


class TestSeedDerivation:
    def test_fnv_published_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_derive_matches_definition(self):
        assert derive_run_seed(0, "img", 0) == fnv1a64(b"img|0")
        assert derive_run_seed(12345, "img", 2) == (12345 ^ fnv1a64(b"img|2"))

    def test_stays_in_64_bits(self):
        seed = derive_run_seed(0xFFFFFFFFFFFFFFFF, "x", 1)
        assert 0 <= seed < 2**64

    def test_varies_by_image_and_repeat(self):
        seeds = {
            derive_run_seed(0, image, repeat)
            for image in ("a", "b", "c")
            for repeat in range(4)
        }
        assert len(seeds) == 12

    def test_independent_of_grid_point(self):
        # Same image and repeat must mean same noise, whatever else varies.
        truth = _textured_image(32)
        grid = ExperimentGrid(
            strategies=(Strategy.AFTER, Strategy.BEFORE, Strategy.JOINT),
            sigmas=(0.05,),
            denoisers=(WAVELET, NONE),
        )
        records = run_experiment([("t", truth)], grid, master_seed=7)
        assert len({r.seed for r in records}) == 1


class TestExperimentGrid:
    def test_default_grid_is_valid(self):
        grid = ExperimentGrid()
        assert grid.repeats == 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ExperimentGrid(strategies=())
        with pytest.raises(ValueError):
            ExperimentGrid(sigmas=())

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            ExperimentGrid(sigmas=(0.05, -0.1))
        with pytest.raises(ValueError):
            ExperimentGrid(sigmas=(math.nan,))
        with pytest.raises(ValueError, match=r"^sigma must be finite, >= 0 and <= 1000, got 1e\+160$"):
            ExperimentGrid(sigmas=(0.05, 1e160))

    def test_joint_on_demosaicker_axis_rejected(self):
        with pytest.raises(ValueError, match="non-joint"):
            ExperimentGrid(demosaickers=(BILINEAR, JOINT))

    def test_nonjoint_joint_demosaicker_rejected(self):
        with pytest.raises(ValueError, match="strategy joint"):
            ExperimentGrid(joint_demosaicker=BILINEAR)

    @pytest.mark.parametrize(
        "axis, value",
        [
            ("strategies", ("before",)),
            ("denoisers", ("wavelet",)),
            ("demosaickers", ("bilinear",)),
            ("joint_demosaicker", "joint-bilateral"),
            ("pattern", "gbrg"),
        ],
    )
    def test_axis_of_the_wrong_type_rejected(self, axis, value):
        with pytest.raises(ValueError, match=rf"^grid {axis} takes "):
            ExperimentGrid(**{axis: value})

    @pytest.mark.parametrize("repeats", [0, 2.0, 1.5, True])
    def test_bad_repeats(self, repeats):
        with pytest.raises(ValueError, match="repeats must be an integer >= 1"):
            ExperimentGrid(repeats=repeats)

    def test_points_order(self):
        grid = ExperimentGrid(
            strategies=(Strategy.AFTER, Strategy.BEFORE),
            sigmas=(0.02, 0.1),
            denoisers=(WAVELET,),
            demosaickers=(BILINEAR, GRADIENT),
            repeats=2,
        )
        points = list(grid.points())
        assert len(points) == 2 * 2 * 1 * 2 * 2
        assert points[0] == (Strategy.AFTER, 0.02, WAVELET, BILINEAR, 0)
        assert points[1] == (Strategy.AFTER, 0.02, WAVELET, BILINEAR, 1)
        assert points[2] == (Strategy.AFTER, 0.02, WAVELET, GRADIENT, 0)
        assert points[4] == (Strategy.AFTER, 0.1, WAVELET, BILINEAR, 0)
        assert points[8] == (Strategy.BEFORE, 0.02, WAVELET, BILINEAR, 0)

    def test_joint_strategy_collapses_axes(self):
        grid = ExperimentGrid(
            strategies=(Strategy.JOINT,),
            sigmas=(0.05,),
            denoisers=(WAVELET, NONE),
            demosaickers=(BILINEAR, GRADIENT),
        )
        points = list(grid.points())
        assert len(points) == 1
        strategy, sigma, dn, dm = points[0][:4]
        assert strategy is Strategy.JOINT
        assert dn.kind == "none"
        assert dm.is_joint

    def test_two_images_three_strategies_three_sigmas(self):
        # The canonical small sweep: 2 x 3 x 3 = 18 records.
        grid = ExperimentGrid(
            strategies=(Strategy.AFTER, Strategy.JOINT, Strategy.BEFORE),
            sigmas=(0.02, 0.05, 0.1),
        )
        corpus = [("a", _textured_image(32)), ("b", _ramp_image(32))]
        records = run_experiment(corpus, grid)
        assert len(records) == 18


class TestRunExperiment:
    def test_single_point(self):
        grid = ExperimentGrid(strategies=(Strategy.AFTER,), sigmas=(0.05,))
        records = run_experiment([("one", _textured_image(32))], grid, master_seed=3)
        assert len(records) == 1
        assert records[0].image == "one"
        assert records[0].seed == derive_run_seed(3, "one", 0)

    def test_image_major_order(self):
        grid = ExperimentGrid(strategies=(Strategy.AFTER,), sigmas=(0.02, 0.05))
        corpus = [("first", _textured_image(32)), ("second", _ramp_image(32))]
        records = run_experiment(corpus, grid)
        assert [r.image for r in records] == ["first", "first", "second", "second"]
        assert [r.sigma_g for r in records] == [0.02, 0.05, 0.02, 0.05]

    def test_deterministic_across_calls(self):
        grid = ExperimentGrid(sigmas=(0.05,), repeats=2)
        corpus = [("t", _textured_image(32))]
        first = run_experiment(corpus, grid, master_seed=11)
        second = run_experiment(corpus, grid, master_seed=11)
        assert first == second

    def test_jobs_do_not_change_results(self):
        grid = ExperimentGrid(sigmas=(0.02, 0.05), repeats=2)
        corpus = [("a", _textured_image(32)), ("b", _ramp_image(32))]
        serial = run_experiment(corpus, grid, master_seed=5, jobs=1)
        parallel = run_experiment(corpus, grid, master_seed=5, jobs=2)
        assert serial == parallel

    def test_wall_time_zeroed_unless_kept(self):
        grid = ExperimentGrid(strategies=(Strategy.AFTER,), sigmas=(0.05,))
        corpus = [("t", _textured_image(32))]
        plain = run_experiment(corpus, grid)
        timed = run_experiment(corpus, grid, keep_timing=True)
        assert plain[0].wall_ms == 0.0
        assert timed[0].wall_ms > 0.0

    def test_failure_names_grid_point(self):
        # The first image's runs succeed; the second image's first run fails
        # when its demosaic overflows.
        grid = ExperimentGrid(strategies=(Strategy.AFTER, Strategy.JOINT), sigmas=(0.05,))
        yy, xx = np.mgrid[0:10, 0:10] / 9.0
        tiny = RgbImage(Plane(xx), Plane(yy), Plane(xx * yy))
        with pytest.raises(RuntimeError, match="image=huge") as excinfo:
            run_experiment([("tiny", tiny), ("huge", _huge_image(10))], grid, jobs=1)
        assert "strategy=after" in str(excinfo.value)
        assert "sigma=0.05" in str(excinfo.value)
        assert str(excinfo.value).endswith("plane samples must be finite")

    @pytest.mark.parametrize("seed", [-1, 2**64 + 5, 1.5, True])
    def test_bad_master_seed_rejected(self, seed, monkeypatch):
        # Checked before any run: 2^64 + 5 would otherwise alias seed 5.
        monkeypatch.setattr(pipeline, "_run_group", None)
        grid = ExperimentGrid(strategies=(Strategy.AFTER,), sigmas=(0.05,))
        with pytest.raises(ValueError, match=r"^master_seed must be an integer in \[0, 2\^64\), got "):
            run_experiment([("t", _textured_image(32))], grid, master_seed=seed, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, True])
    def test_bad_jobs_rejected(self, jobs, monkeypatch, inline_pool):
        # Checked before any run: 0 and -3 would otherwise run serially, and
        # 2.5 would reach the pool as its number of workers.
        monkeypatch.setattr(_kernel, "_cpus", lambda: 4)
        monkeypatch.setattr(pipeline, "_run_group", None)
        grid = ExperimentGrid(strategies=(Strategy.AFTER,), sigmas=(0.05,), repeats=3)
        with pytest.raises(ValueError, match=rf"^jobs must be an integer >= 1, got {re.escape(repr(jobs))}$"):
            run_experiment([("t", _textured_image(32))], grid, jobs=jobs)
        assert inline_pool == []

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            run_experiment([], ExperimentGrid())

    def test_repeated_image_id_rejected(self):
        # Ids name the rows and seed the noise: two images under one id would
        # share a noise field and give rows that cannot be told apart.
        corpus = [("a", _textured_image(32)), ("b", _ramp_image(32)), ("a", _ramp_image(32))]
        with pytest.raises(ValueError, match="image id 'a' is repeated"):
            run_experiment(corpus, ExperimentGrid(sigmas=(0.05,)), jobs=1)

    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch, inline_pool):
        monkeypatch.setattr(_kernel, "_cpus", lambda: 2)
        grid = ExperimentGrid(sigmas=(0.02, 0.05), repeats=3)
        corpus = [("a", _textured_image(32)), ("b", _ramp_image(32))]
        assert run_experiment(corpus, grid, jobs=500) == run_experiment(corpus, grid, jobs=1)
        assert [pool.processes for pool in inline_pool] == [2]
        # jobs sets only the pool size: one task per (image, sigma, repeat).
        assert len(inline_pool[0].tasks) == len(corpus) * len(grid.sigmas) * grid.repeats

    def test_one_group_starts_no_pool(self, monkeypatch, inline_pool):
        monkeypatch.setattr(_kernel, "_cpus", lambda: 2)
        grid = ExperimentGrid(sigmas=(0.05,))
        corpus = [("t", _textured_image(32))]
        assert run_experiment(corpus, grid, jobs=2) == run_experiment(corpus, grid, jobs=1)
        assert inline_pool == []

    def _failing_sweep(self, jobs):
        # The first image's groups succeed; every group of the second fails
        # at its first run.
        grid = ExperimentGrid(
            strategies=(Strategy.AFTER, Strategy.JOINT),
            sigmas=(0.01, 0.02, 0.03, 0.04),
            denoisers=(NONE, DenoiserConfig(kind="gaussian")),
        )
        with pytest.raises(RuntimeError, match="strategy=after") as excinfo:
            run_experiment([("t", _textured_image(16)), ("u", _huge_image(16))], grid, jobs=jobs)
        return str(excinfo.value)

    def test_failing_task_terminates_the_pool(self, monkeypatch, inline_pool):
        monkeypatch.setattr(_kernel, "_cpus", lambda: 2)
        assert self._failing_sweep(jobs=2) == self._failing_sweep(jobs=1)
        assert [pool.failed for pool in inline_pool] == [True]

    def test_pool_failure_names_the_serial_point(self):
        message = self._failing_sweep(jobs=2)
        assert message == self._failing_sweep(jobs=1)
        assert "image=u" in message and "sigma=0.01" in message

    def test_a_pool_starts_cleanly_after_a_threaded_bilateral_call(self, monkeypatch):
        # Python 3.12 warns when a process with more than one thread forks, so
        # a thread the bilateral kernel left alive would fail this sweep's
        # pool.
        monkeypatch.setattr(_kernel, "_cpus", lambda: 2)
        image = _textured_image(32)
        grid = ExperimentGrid(strategies=(Strategy.AFTER, Strategy.JOINT), sigmas=(0.02, 0.05), denoisers=(DenoiserConfig(kind="bilateral"),))
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            demosaic_joint_bilateral(mosaic_from_rgb(image, CfaPattern.GBRG), 1.5, 0.1)
            assert threading.active_count() == threads
            pooled = run_experiment([("t", image)], grid, jobs=2)
        assert pooled == run_experiment([("t", image)], grid, jobs=1)

    def test_pool_workers_run_the_bilateral_kernel_on_one_thread(self, inline_pool, by_cpus, monkeypatch):
        # At _STRIP = 256 a 32^2 plane or mosaic is two bilateral bands of 16
        # rows, so a serial sweep's kernel opens a thread pool once a second
        # CPU is there; a worker's does not. So do the noise field, here in
        # eight blocks of 64 pairs, and the after and before steps' wavelet
        # planes, with their size rules at 0; each sweep below runs one of
        # the three stages on threads.
        image = _textured_image(32)
        bilateral = ExperimentGrid(strategies=(Strategy.AFTER, Strategy.JOINT), sigmas=(0.02, 0.05), denoisers=(DenoiserConfig(kind="bilateral"),))
        field = ExperimentGrid(strategies=(Strategy.AFTER,), sigmas=(0.02, 0.05), denoisers=(NONE,))
        wavelet = ExperimentGrid(strategies=(Strategy.AFTER, Strategy.BEFORE), sigmas=(0.02, 0.05), denoisers=(WAVELET,))
        # The inline pool's initializer sets this process's cap to 1.
        patches = [(_kernel, "_threads_max", _kernel._threads_max)]
        for grid, sizes in [(bilateral, [(_kernel, "_STRIP", 256)]), (field, [(_kernel, "_STRIP", 64), (noise, "_POOLED_PAIRS", 0)]), (wavelet, [(denoise, "_POOLED_SAMPLES", 0)])]:
            with monkeypatch.context() as patched:
                for module, name, value in patches + sizes:
                    patched.setattr(module, name, value)
                inline_pool.clear()
                serial = by_cpus(lambda: run_experiment([("t", image)], grid, jobs=1))
                pooled = by_cpus(lambda: run_experiment([("t", image)], grid, jobs=2))
            assert [bool(pools) for _, pools in serial.values()] == [False, True, True]
            assert [pools for _, pools in pooled.values()] == [(), (), ()]
            assert [pool.processes for pool in inline_pool] == [2, 2]
            assert all(records == serial[1][0] for records, _ in [*serial.values(), *pooled.values()])


class TestSharedStages:
    """A sweep computes each stage shared by one (image, repeat, sigma) once."""

    GRID = ExperimentGrid(
        strategies=(Strategy.AFTER, Strategy.JOINT, Strategy.BEFORE),
        sigmas=(0.02, 0.05),
        denoisers=tuple(DenoiserConfig(kind=kind) for kind in ("none", "gaussian", "median", "wavelet")),
        demosaickers=(BILINEAR, GRADIENT),
        repeats=2,
    )

    @staticmethod
    def _corpus(size=32):
        return [("tex", _textured_image(size)), ("ramp", _ramp_image(size))]

    # jobs=1 runs the 8 groups serially; jobs=2 and jobs=3 run them in a
    # pool of at most one worker per CPU.
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_sweep_equals_independent_runs(self, jobs):
        corpus = self._corpus()
        want = []
        for image_id, truth in corpus:
            for strategy, sigma, dn, dm, repeat in self.GRID.points():
                noise = NoiseSpec.uniform(sigma, derive_run_seed(7, image_id, repeat))
                _, record = run_pipeline(truth, self.GRID.pattern, noise, strategy, dn, dm, image_id=image_id)
                want.append(replace(record, wall_ms=0.0))
        assert run_experiment(corpus, self.GRID, master_seed=7, jobs=jobs) == want

    def test_each_shared_stage_runs_once_per_group(self, monkeypatch):
        calls = Counter()
        noisy = []

        def count(name):
            stage = getattr(pipeline, name)

            def counted(*args):
                calls[name] += 1
                result = stage(*args)
                if name == "add_awgn":
                    noisy.append(result)
                elif name == "demosaic" and not args[1].is_joint and any(args[0] is mosaic for mosaic in noisy):
                    calls["after-strategy demosaic"] += 1
                return result

            monkeypatch.setattr(pipeline, name, counted)

        for name in ("mosaic_from_rgb", "add_awgn", "decompose", "demosaic", "denoise_subimages"):
            count(name)
        run_experiment(self._corpus(), self.GRID, jobs=1)
        groups = 2 * self.GRID.repeats * len(self.GRID.sigmas)
        denoisers, demosaickers = len(self.GRID.denoisers), len(self.GRID.demosaickers)
        assert calls["mosaic_from_rgb"] == groups
        assert calls["add_awgn"] == groups
        assert calls["decompose"] == groups
        assert calls["after-strategy demosaic"] == groups * demosaickers
        # The identity denoiser adds no step, so none leaves the sub-images alone.
        assert calls["denoise_subimages"] == groups * (denoisers - 1)
        # Each demosaicker on the noisy mosaic (the after runs and before +
        # none) and after each other sub-image denoiser, and one joint run
        # per group.
        assert calls["demosaic"] == groups * (demosaickers * denoisers + 1)

    def test_pool_tasks_carry_no_image_planes(self, monkeypatch):
        # Count the bytes a process pool pickles in this process: the tasks
        # sent to the workers (the workers pickle the results).
        pickled = []
        dumps = ForkingPickler.__dict__["dumps"].__func__

        def counted(cls, obj, protocol=None):
            payload = dumps(cls, obj, protocol)
            pickled.append(len(payload))
            return payload

        monkeypatch.setattr(ForkingPickler, "dumps", classmethod(counted))
        records = run_experiment(self._corpus(64), self.GRID, jobs=2)
        assert len(records) == 2 * len(list(self.GRID.points()))
        assert 0 < sum(pickled) < 3 * 64 * 64 * 8

    def test_wall_ms_counts_shared_stages_in_every_run(self, monkeypatch):
        # A fake clock that only the stages advance, each by its own number
        # of seconds: a sweep run must report what it costs alone.
        clock = [0.0]
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        costs = {
            "mosaic_from_rgb": 1,
            "add_awgn": 2,
            "decompose": 4,
            "demosaic": 8,
            "denoise_subimages": 16,
            "denoise_planes": 32,
            "recompose": 64,
        }
        for name, cost in costs.items():
            stage = getattr(pipeline, name)

            def advanced(*args, stage=stage, cost=cost):
                clock[0] += cost
                return stage(*args)

            monkeypatch.setattr(pipeline, name, advanced)

        corpus = self._corpus()
        records = run_experiment(corpus, self.GRID, jobs=1, keep_timing=True)
        # With the identity denoiser, after and before walk the joint run's
        # two steps.
        want = {"after": 1 + 2 + 8 + 32, "joint": 1 + 2 + 8, "before": 1 + 2 + 4 + 16 + 64 + 8, "none": 1 + 2 + 8}
        assert [r.wall_ms for r in records] == [1000.0 * want["none" if r.denoiser == "none" else r.strategy] for r in records]
        truth = corpus[0][1]
        for strategy, sigma, dn, dm, repeat in self.GRID.points():
            noise = NoiseSpec.uniform(sigma, derive_run_seed(0, "tex", repeat))
            _, record = run_pipeline(truth, self.GRID.pattern, noise, strategy, dn, dm)
            assert record.wall_ms == 1000.0 * want["none" if dn.kind == "none" else strategy.value]

    def test_plan_has_one_task_per_group(self):
        points = list(self.GRID.points())
        tasks = pipeline._plan_tasks(points, 2)
        assert [image_index for image_index, _ in tasks] == [0] * 4 + [1] * 4
        for image_index in (0, 1):
            indices = [i for task_image, task in tasks if task_image == image_index for i in task]
            assert sorted(indices) == list(range(len(points)))
        for _, indices in tasks:
            assert len({(repr(points[i][1]), points[i][4]) for i in indices}) == 1
            assert indices == sorted(indices)

    def test_groups_through_the_pool_match_serial(self):
        # Two groups of one image, one per pool worker.
        grid = ExperimentGrid(sigmas=(0.02, 0.05), denoisers=(NONE, WAVELET))
        corpus = [("tex", _textured_image(32))]
        assert run_experiment(corpus, grid, jobs=2) == run_experiment(corpus, grid, jobs=1)

    def test_signed_zero_sigmas_stay_apart(self):
        # 0.0 == -0.0, but the CSV writes them differently ("0.00000" and
        # "-0.00000"), so they must not share one group's noise spec.
        grid = ExperimentGrid(strategies=(Strategy.AFTER,), sigmas=(0.0, -0.0), denoisers=(NONE,))
        records = run_experiment(self._corpus(), grid, jobs=1)
        assert [math.copysign(1.0, r.sigma_g) for r in records] == [1.0, -1.0, 1.0, -1.0]

    def test_failure_inside_a_group_names_its_point(self, monkeypatch):
        # The after runs of the group succeed; the joint run after them
        # fails, and the message names the joint point.
        def failing(mosaic, dm):
            if dm.is_joint:
                raise ValueError("joint demosaic failed")
            return demosaic(mosaic, dm)

        monkeypatch.setattr(pipeline, "demosaic", failing)
        grid = ExperimentGrid(
            strategies=(Strategy.AFTER, Strategy.JOINT),
            sigmas=(0.05,),
            denoisers=(NONE, DenoiserConfig(kind="gaussian")),
        )
        yy, xx = np.mgrid[0:10, 0:10] / 9.0
        tiny = RgbImage(Plane(xx), Plane(yy), Plane(xx * yy))
        with pytest.raises(RuntimeError, match="strategy=joint .*: joint demosaic failed$"):
            run_experiment([("tiny", tiny)], grid, jobs=1)

    def test_duplicate_configs_share_a_whole_path(self, monkeypatch):
        # Two equal denoisers and two equal demosaickers: every after point
        # and every before point repeats a path another point walks whole.
        grid = ExperimentGrid(
            strategies=(Strategy.AFTER, Strategy.JOINT, Strategy.BEFORE),
            sigmas=(0.02, 0.05),
            denoisers=(WAVELET, DenoiserConfig(kind="wavelet", levels=2)),
            demosaickers=(BILINEAR, DemosaickerConfig(kind="bilinear")),
        )
        calls = Counter()
        outputs = []
        for name in ("mosaic_from_rgb", "add_awgn", "decompose", "denoise_subimages", "recompose", "demosaic", "denoise_planes"):
            stage = getattr(pipeline, name)

            def counted(*args, name=name, stage=stage):
                calls[name] += 1
                result = stage(*args)
                # denoise_planes returns a list of planes, which takes no weak reference.
                outputs.extend(weakref.ref(value) for value in (result if isinstance(result, list) else [result]))
                return result

            monkeypatch.setattr(pipeline, name, counted)

        points = list(grid.points())
        records = run_experiment(self._corpus()[:1], grid, jobs=1)
        for (a, record_a), (b, record_b) in itertools.combinations(zip(points, records), 2):
            assert (record_a == record_b) == (a == b)
        groups = len(grid.sigmas)
        # One noisy mosaic, one after-strategy demosaic and its denoise (one
        # call for the three planes), one joint run and one before path per
        # group.
        want = {"mosaic_from_rgb": 1, "add_awgn": 1, "decompose": 1, "denoise_subimages": 1, "recompose": 1, "demosaic": 3, "denoise_planes": 1}
        assert calls == Counter({name: groups * count for name, count in want.items()})

        # By the group's last record nothing is cached: every stage output
        # has been freed except the result it yields.
        outputs.clear()
        group = [(strategy, dn, dm) for strategy, sigma, dn, dm, _ in points if sigma == 0.05]
        runs = pipeline._run_group(self._corpus()[0][1], grid.pattern, NoiseSpec.uniform(0.05), group, "tex")
        for _ in group[1:]:
            next(runs)
        last, _ = next(runs)
        gc.collect()
        held = [ref() for ref in outputs if ref() is not None]
        assert held and all(value is last or any(value is plane for plane in last.planes) for value in held)
        assert next(runs, None) is None

    # A group with both none runs for each demosaicker and one denoised run
    # between them, so the shared path outlives the first run that ends on it.
    NONE_GROUP = [
        (Strategy.AFTER, NONE, BILINEAR),
        (Strategy.AFTER, NONE, GRADIENT),
        (Strategy.AFTER, WAVELET, BILINEAR),
        (Strategy.BEFORE, NONE, BILINEAR),
        (Strategy.BEFORE, NONE, GRADIENT),
    ]

    def _none_group(self):
        return pipeline._run_group(_textured_image(32), CfaPattern.GBRG, NoiseSpec.uniform(0.05, 3), self.NONE_GROUP, "tex")

    def test_both_none_runs_give_one_result(self):
        runs = list(self._none_group())
        for (after, after_record), (before, before_record) in zip(runs[:2], runs[3:]):
            for got, want in zip(before.planes, after.planes):
                assert np.array_equal(got.data, want.data) and np.array_equal(np.signbit(got.data), np.signbit(want.data))
            # wall_ms included: both runs walk the same two steps.
            assert before_record.strategy == "before" and replace(before_record, strategy="after") == after_record

    def test_both_none_runs_demosaic_and_score_once(self, monkeypatch):
        calls = Counter()
        for name in ("demosaic", "mse"):
            stage = getattr(pipeline, name)

            def counted(*args, name=name, stage=stage):
                calls[name if name == "mse" else args[1].kind] += 1
                return stage(*args)

            monkeypatch.setattr(pipeline, name, counted)

        list(self._none_group())
        # Three distinct paths: the two none paths and after + wavelet.
        assert calls == Counter({"bilinear": 1, "gradient": 1, "mse": 3 * 3})

    def test_before_with_no_denoiser_splits_no_mosaic(self, monkeypatch):
        calls = Counter()
        for name in ("decompose", "denoise_subimages", "recompose"):
            stage = getattr(pipeline, name)

            def counted(*args, name=name, stage=stage):
                calls[name] += 1
                return stage(*args)

            monkeypatch.setattr(pipeline, name, counted)
        _, record = run_pipeline(_textured_image(32), CfaPattern.GBRG, NoiseSpec.uniform(0.05, 3), Strategy.BEFORE, NONE, BILINEAR)
        assert record.denoiser == "none" and not calls

    def test_scores_are_kept_until_the_last_run_that_reads_them(self):
        runs = self._none_group()

        def kept():
            """The paths whose scores the group holds between runs."""
            return sorted(tuple(stage for stage, _ in path) for path in runs.gi_frame.f_locals["cache"] if path[-1][0] == "score")

        # One none path per demosaicker, each read again by its before run.
        for count in (1, 2, 2, 1, 0):
            next(runs)
            assert kept() == [("noise", "demosaic", "score")] * count
        assert next(runs, None) is None

    def test_a_run_holds_only_the_stages_still_in_use(self, peak_bytes):
        # Held to the end of the run, the before strategy's noisy mosaic,
        # sub-images and denoised sub-images made a peak of 8.7 frame-sized
        # planes; dropped as the next stage takes each, the peak is 5.7.
        truth = _textured_image(512)
        noise = NoiseSpec.uniform(0.05, seed=1)
        peak = peak_bytes(lambda: run_pipeline(truth, CfaPattern.GBRG, noise, Strategy.BEFORE, DenoiserConfig(kind="wavelet"), GRADIENT))
        assert peak < 7 * truth.r.data.nbytes


class TestMinimumSide:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_below_the_minimum_no_stage_runs(self, strategy, monkeypatch):
        calls = Counter()
        for name in ("mosaic_from_rgb", "add_awgn", "decompose", "demosaic", "denoise_planes", "denoise_subimages"):
            monkeypatch.setattr(pipeline, name, lambda *args, name=name: calls.update([name]))
        dm = JOINT if strategy is Strategy.JOINT else BILINEAR
        for size in (2, 8):
            with pytest.raises(DimensionError, match=rf"^a pipeline run needs an image of at least 10x10, got {size}x{size}$"):
                run_pipeline(_ramp_image(size), CfaPattern.GBRG, NoiseSpec.uniform(0.05), strategy, WAVELET, dm)
        with pytest.raises(DimensionError, match="^image 'small': a pipeline run needs an image of at least 10x10, got 8x8$"):
            run_experiment([("small", _ramp_image(8))], ExperimentGrid(strategies=(strategy,)), jobs=1)
        assert not calls

    @pytest.mark.parametrize(
        "bad,message",
        [
            (RgbImage(*(Plane(np.zeros((11, 12))) for _ in range(3))), "mosaic requires even dimensions, got 12x11"),
            (_ramp_image(8), "a pipeline run needs an image of at least 10x10, got 8x8"),
        ],
    )
    def test_every_size_is_checked_before_the_first_run(self, bad, message, monkeypatch):
        calls = Counter()
        for name in ("mosaic_from_rgb", "add_awgn", "decompose", "demosaic", "denoise_planes", "denoise_subimages"):
            monkeypatch.setattr(pipeline, name, lambda *args, name=name: calls.update([name]))
        corpus = [("good", _ramp_image(64)), ("bad", bad)]
        with pytest.raises(DimensionError, match=f"^image 'bad': {message}$"):
            run_experiment(corpus, ExperimentGrid(), jobs=1)
        assert not calls

    @pytest.mark.parametrize("dn", ["none", "gaussian", "median", "bilateral", "wavelet"])
    def test_every_run_works_at_the_minimum(self, dn):
        points = [(s, DenoiserConfig(kind=dn), DemosaickerConfig(kind=k)) for s in (Strategy.AFTER, Strategy.BEFORE) for k in ("bilinear", "gradient")]
        points.append((Strategy.JOINT, DenoiserConfig(kind=dn), JOINT))
        truth = _textured_image(10)
        for strategy, dn_config, dm in points:
            result, record = run_pipeline(truth, CfaPattern.GBRG, NoiseSpec.uniform(0.05, seed=2), strategy, dn_config, dm)
            assert result.r.data.shape == (10, 10) and math.isfinite(record.cpsnr_db)


class TestStrategyParse:
    def test_parse_values(self):
        assert Strategy.parse("after") is Strategy.AFTER
        assert Strategy.parse(" JOINT ") is Strategy.JOINT
        assert Strategy.parse("Before") is Strategy.BEFORE

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy.parse("during")


class TestRecordOrder:
    def test_field_order_matches_csv_header(self):
        from cfaisp.imageio import CSV_HEADER

        fields = [f.name for f in __import__("dataclasses").fields(ExperimentRecord)]
        assert fields == CSV_HEADER.split(",")
