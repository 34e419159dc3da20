"""Command-line interface tests, run in-process through main()."""

import errno
import math
import os
import re
import subprocess
import sys
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

import cfaisp
from cfaisp.cfa import CfaPattern, MosaicImage, SubImages, mosaic_from_rgb, recompose
import cfaisp.demosaic as demosaic
import cfaisp.denoise as denoise
import cfaisp.pipeline as pipeline
from cfaisp.cli import _build_parser, main
from cfaisp.demosaic import DemosaickerConfig, demosaic_bilinear
from cfaisp.denoise import DenoiserConfig
from cfaisp.imageio import Plane, RgbImage, decode_pnm, encode_pnm, write_csv
from cfaisp.noise import NoiseSpec
from cfaisp.pipeline import ExperimentGrid, Strategy, check_pairing, run_pipeline


def _rgb(size=32, seed=50):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    base = 0.35 + 0.3 * xx + 0.2 * np.sin(2 * np.pi * yy)
    base = np.clip(base, 0, 1)
    return RgbImage(
        Plane(np.clip(base + 0.05 * rng.random((size, size)), 0, 1)),
        Plane(base),
        Plane(np.clip(base * 0.8 + 0.1, 0, 1)),
    )


def _write_ppm(path, image, depth=16):
    path.write_bytes(encode_pnm(image, bit_depth=depth))
    return str(path)


def _write_pgm(path, plane, depth=16):
    path.write_bytes(encode_pnm(plane, bit_depth=depth))
    return str(path)


class TestMosaic:
    def test_matches_library_output(self, tmp_path):
        src = _write_ppm(tmp_path / "in.ppm", _rgb())
        out = tmp_path / "out.pgm"
        rc = main(["mosaic", "--in", src, "--out", str(out), "--pattern", "gbrg", "--depth", "16"])
        assert rc == 0
        truth = decode_pnm((tmp_path / "in.ppm").read_bytes())
        expected = encode_pnm(mosaic_from_rgb(truth, CfaPattern.GBRG).plane, bit_depth=16)
        assert out.read_bytes() == expected

    def test_pattern_flag_case_insensitive(self, tmp_path):
        src = _write_ppm(tmp_path / "in.ppm", _rgb())
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(["mosaic", "--in", src, "--out", str(a), "--pattern", "RgGb"]) == 0
        assert main(["mosaic", "--in", src, "--out", str(b), "--pattern", "rggb"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grayscale_input_rejected(self, tmp_path, capsys):
        src = _write_pgm(tmp_path / "gray.pgm", Plane(np.zeros((8, 8))))
        rc = main(["mosaic", "--in", src, "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert "PPM" in capsys.readouterr().err

    def test_odd_dimensions_rejected(self, tmp_path, capsys):
        image = RgbImage(*(Plane(np.zeros((15, 16))) for _ in range(3)))
        src = _write_ppm(tmp_path / "odd.ppm", image)
        rc = main(["mosaic", "--in", src, "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert "even dimensions" in capsys.readouterr().err

    def test_missing_input_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ppm")
        rc = main(["mosaic", "--in", missing, "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert missing in capsys.readouterr().err

    def test_directory_input_rejected(self, tmp_path, capsys):
        rc = main(["mosaic", "--in", str(tmp_path), "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        rc = main(["mosaic", "--bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestNoise:
    def test_zero_sigma_is_byte_identity(self, tmp_path):
        plane = mosaic_from_rgb(_rgb(), CfaPattern.GBRG).plane
        src = tmp_path / "m.pgm"
        _write_pgm(src, plane)
        out = tmp_path / "n.pgm"
        rc = main(["noise", "--in", str(src), "--out", str(out), "--sigma", "0", "--depth", "16"])
        assert rc == 0
        assert out.read_bytes() == src.read_bytes()

    def test_seeded_determinism(self, tmp_path):
        src = _write_pgm(tmp_path / "m.pgm", mosaic_from_rgb(_rgb(), CfaPattern.GBRG).plane)
        outs = [tmp_path / f"n{i}.pgm" for i in range(3)]
        for out, seed in zip(outs, ("9", "9", "10")):
            rc = main(["noise", "--in", src, "--out", str(out), "--sigma", "0.05", "--seed", seed, "--depth", "16"])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() != outs[2].read_bytes()

    def test_per_class_sigma_override(self, tmp_path):
        src = _write_pgm(tmp_path / "m.pgm", mosaic_from_rgb(_rgb(), CfaPattern.GBRG).plane)
        out = tmp_path / "n.pgm"
        rc = main([
            "noise", "--in", src, "--out", str(out),
            "--sigma", "0", "--sigma-r", "0.1", "--seed", "4", "--depth", "16",
        ])
        assert rc == 0
        before = decode_pnm((tmp_path / "m.pgm").read_bytes()).data
        after = decode_pnm(out.read_bytes()).data
        # green sites (0,0) and blue sites (0,1) of gbrg untouched; red rows changed
        assert np.array_equal(before[0::2, :], after[0::2, :])
        assert not np.array_equal(before[1::2, 0::2], after[1::2, 0::2])


class TestDecompose:
    def test_sub_images_recompose_exactly(self, tmp_path):
        plane = mosaic_from_rgb(_rgb(), CfaPattern.GBRG).plane
        src = tmp_path / "m.pgm"
        _write_pgm(src, plane)
        rc = main(["decompose", "--in", str(src), "--out-prefix", str(tmp_path / "sub"), "--depth", "16"])
        assert rc == 0
        parts = {name: decode_pnm((tmp_path / f"sub.{name}.pgm").read_bytes()) for name in ("r", "g1", "g2", "b")}
        original = decode_pnm(src.read_bytes())
        subs = SubImages(
            r=parts["r"],
            g1=parts["g1"],
            g2=parts["g2"],
            b=parts["b"],
            pattern=CfaPattern.GBRG,
        )
        assert np.array_equal(recompose(subs).plane.data, original.data)


class TestDenoise:
    # The wide median reads a 5x5 window; at 7 levels the wavelet pads the
    # 16x16 plane to 128x128, a reflection wider than the plane, and crops it back.
    @pytest.mark.parametrize("kind", ["none", "gaussian", "median", "bilateral", "wavelet", "median(radius=2)", "wavelet(levels=7)"])
    def test_each_kind_runs(self, tmp_path, kind):
        src = _write_pgm(tmp_path / "p.pgm", Plane(np.random.default_rng(52).random((16, 16))))
        out = tmp_path / "d.pgm"
        rc = main(["denoise", "--in", src, "--out", str(out), "--denoiser", kind, "--depth", "16"])
        assert rc == 0
        decoded = decode_pnm(out.read_bytes())
        assert decoded.data.shape == (16, 16)

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        src = _write_pgm(tmp_path / "p.pgm", Plane(np.zeros((8, 8))))
        rc = main(["denoise", "--in", src, "--out", str(tmp_path / "d.pgm"), "--denoiser", "nlmeans"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestDemosaic:
    # The last case reads an 8-bit P5 mosaic, a uint8 raster.
    @pytest.mark.parametrize(
        "kind,depth",
        [("bilinear", 16), ("gradient", 16), ("joint-bilateral", 16), ("bilinear", 8)],
        ids=["bilinear", "gradient", "joint-bilateral", "bilinear-8-bit-input"],
    )
    def test_each_kind_runs(self, tmp_path, kind, depth):
        src = _write_pgm(tmp_path / "m.pgm", mosaic_from_rgb(_rgb(), CfaPattern.GBRG).plane, depth)
        out = tmp_path / "rgb.ppm"
        rc = main(["demosaic", "--in", src, "--out", str(out), "--demosaicker", kind, "--depth", "16"])
        assert rc == 0
        decoded = decode_pnm(out.read_bytes())
        assert isinstance(decoded, RgbImage)

    def test_bilinear_matches_library(self, tmp_path):
        src = tmp_path / "m.pgm"
        _write_pgm(src, mosaic_from_rgb(_rgb(), CfaPattern.GBRG).plane)
        out = tmp_path / "rgb.ppm"
        assert main(["demosaic", "--in", str(src), "--out", str(out), "--depth", "16"]) == 0
        mosaic = MosaicImage(CfaPattern.GBRG, decode_pnm(src.read_bytes()))
        expected = encode_pnm(demosaic_bilinear(mosaic), bit_depth=16)
        assert out.read_bytes() == expected

    def test_underscore_alias_for_kind(self, tmp_path):
        src = _write_pgm(tmp_path / "m.pgm", mosaic_from_rgb(_rgb(), CfaPattern.GBRG).plane)
        out = tmp_path / "rgb.ppm"
        rc = main(["demosaic", "--in", src, "--out", str(out), "--demosaicker", "joint_bilateral"])
        assert rc == 0


class TestPipelineCommand:
    ARGS = [
        "pipeline", "--strategy", "before", "--sigma", "0.05", "--seed", "7",
        "--denoiser", "wavelet(sigma_n=auto)", "--demosaicker", "bilinear",
    ]

    def test_golden_run(self, tmp_path, capsysbinary):
        src = _write_ppm(tmp_path / "t.ppm", _rgb())
        out = tmp_path / "out.ppm"
        rc = main(self.ARGS + ["--in", src, "--out", str(out)])
        assert rc == 0
        payload = capsysbinary.readouterr().out
        assert decode_pnm(out.read_bytes()).r.data.shape == (32, 32)

        truth = decode_pnm((tmp_path / "t.ppm").read_bytes())
        _, record = run_pipeline(
            truth,
            CfaPattern.GBRG,
            NoiseSpec.uniform(0.05, 7),
            Strategy.BEFORE,
            DenoiserConfig(kind="wavelet", levels=3, sigma_n=None),
            DemosaickerConfig(kind="bilinear"),
            image_id="t.ppm",
        )
        lines = payload.decode("ascii").splitlines()
        assert len(lines) == 2
        got_cells = lines[1].split(",")
        want_cells = write_csv([record]).decode("ascii").splitlines()[1].split(",")
        assert got_cells[:16] == want_cells[:16]  # wall_ms differs run to run
        assert got_cells[0] == "t.ppm"
        assert got_cells[2] == "before"
        assert float(got_cells[16]) > 0.0

    def test_stdout_reproducible_ignoring_timing(self, tmp_path, capsysbinary):
        src = _write_ppm(tmp_path / "t.ppm", _rgb())
        outputs = []
        for _ in range(2):
            assert main(self.ARGS + ["--in", src]) == 0
            rows = capsysbinary.readouterr().out.decode("ascii").splitlines()
            outputs.append([rows[0]] + [",".join(row.split(",")[:16]) for row in rows[1:]])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("strategy", ["after", "before"])
    def test_wavelet_runs_on_sizes_not_divisible_by_its_levels(self, tmp_path, capsysbinary, strategy):
        # The default wavelet has 3 levels; 100x100 frames and their 50x50
        # sub-images are not multiples of 8.
        src = _write_ppm(tmp_path / "t.ppm", _rgb(size=100))
        assert main(["pipeline", "--in", src, "--strategy", strategy]) == 0
        row = capsysbinary.readouterr().out.decode("ascii").splitlines()[1].split(",")
        assert row[3] == "wavelet(levels=3 sigma_n=auto)"
        assert float(row[15]) > 20.0

    def test_joint_strategy_selects_joint_demosaicker(self, tmp_path, capsysbinary):
        src = _write_ppm(tmp_path / "t.ppm", _rgb())
        rc = main(["pipeline", "--strategy", "joint", "--sigma", "0.05", "--seed", "1", "--in", src])
        assert rc == 0
        row = capsysbinary.readouterr().out.decode("ascii").splitlines()[1].split(",")
        assert row[3] == "none"
        assert row[4] == "joint-bilateral(sigma_s=1.5 sigma_r=0.1)"

    @pytest.mark.parametrize("readable", [True, False], ids=["input", "missing-input"])
    def test_joint_strategy_rejects_other_demosaicker(self, tmp_path, capsys, readable):
        # A bad pairing is a usage error, found before the input is read.
        src = _write_ppm(tmp_path / "t.ppm", _rgb()) if readable else str(tmp_path / "nope.ppm")
        rc = main(["pipeline", "--strategy", "joint", "--demosaicker", "gradient", "--in", src])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: strategy joint") and err.count("\n") == 1

    def test_nonjoint_strategy_rejects_joint_demosaicker(self, tmp_path, capsys):
        src = _write_ppm(tmp_path / "t.ppm", _rgb())
        rc = main(["pipeline", "--strategy", "after", "--demosaicker", "joint-bilateral", "--in", src])
        assert rc == 1
        assert capsys.readouterr().err == "error: strategy after runs a non-joint demosaicker, not joint-bilateral\n"

    @pytest.mark.parametrize(
        "argv,strategy,dn,dm",
        [
            (["--denoiser", "bilateral(sigma_r=inf)"], Strategy.AFTER, DenoiserConfig(kind="bilateral", sigma_r=math.inf), DemosaickerConfig()),
            (["--strategy", "joint", "--demosaicker", "joint-bilateral(sigma_r=inf)"], Strategy.JOINT, DenoiserConfig(), DemosaickerConfig(kind="joint-bilateral", sigma_r=math.inf)),
        ],
        ids=["denoiser", "demosaicker"],
    )
    def test_infinite_range_sigma_is_the_spatial_only_limit(self, tmp_path, capsysbinary, argv, strategy, dn, dm):
        src = _write_ppm(tmp_path / "t.ppm", _rgb())
        assert main(["pipeline", "--in", src, "--seed", "3", *argv]) == 0
        got = capsysbinary.readouterr().out.decode("ascii").splitlines()[1].split(",")
        truth = decode_pnm((tmp_path / "t.ppm").read_bytes())
        _, record = run_pipeline(truth, CfaPattern.GBRG, NoiseSpec.uniform(0.05, 3), strategy, dn, dm, image_id="t.ppm")
        want = write_csv([record]).decode("ascii").splitlines()[1].split(",")
        assert got[:16] == want[:16]
        assert "sigma_r=inf" in got[3] + got[4]


def _count_noise_calls(monkeypatch):
    """Count the pipeline's add_awgn calls, its first stage after mosaicking."""
    calls = []
    add_awgn = pipeline.add_awgn
    monkeypatch.setattr(pipeline, "add_awgn", lambda *args: calls.append(1) or add_awgn(*args))
    return calls


# Image names that cannot be CSV text cells, and the error each one raises.
_BAD_NAMES = {
    "a,b.ppm": "CSV field image='a,b.ppm' contains a separator",
    "café.ppm": "CSV field image='café.ppm' is not ASCII",
    '"ab.ppm': """CSV field image='"ab.ppm' contains a double quote""",
}

# Command lines whose image ids check_image_ids rejects, and its message.
_BAD_IDS = [
    *((["pipeline", "--in", name], message) for name, message in _BAD_NAMES.items()),
    *((["experiment", "good.ppm", name], message) for name, message in _BAD_NAMES.items()),
    (["experiment", "d1/x.ppm", "d2/x.ppm"], "image id 'x.ppm' is repeated; each image needs its own id, which names its rows and seeds its noise"),
]


class TestRejectedBeforeAnyStage:
    @pytest.mark.parametrize("name", ["a,b.ppm", "café.ppm", '"ab.ppm'])
    def test_separator_in_pipeline_image_name(self, tmp_path, capsys, monkeypatch, name):
        calls = _count_noise_calls(monkeypatch)
        src = _write_ppm(tmp_path / name, _rgb())
        out = tmp_path / "o.ppm"
        assert main(["pipeline", "--in", src, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {_BAD_NAMES[name]}\n"
        assert not out.exists() and not calls

    # The last case names a good image first: no run of it starts either.
    @pytest.mark.parametrize("names", [["a,b.ppm"], ["café.ppm"], ["good.ppm", "a,b.ppm"], ['"ab.ppm'], ["good.ppm", '"ab.ppm']], ids=" ".join)
    def test_separator_in_experiment_image_name(self, tmp_path, capsys, monkeypatch, names):
        calls = _count_noise_calls(monkeypatch)
        srcs = [_write_ppm(tmp_path / name, _rgb()) for name in names]
        out = tmp_path / "r.csv"
        assert main(["experiment", *srcs, "--jobs", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"{_BAD_NAMES[names[-1]]}\n") and err.count("\n") == 1
        assert not out.exists() and not calls

    # No input exists, so no read can come before the id check.
    @pytest.mark.parametrize("argv, message", _BAD_IDS, ids=[" ".join(argv) for argv, _ in _BAD_IDS])
    def test_image_ids_are_checked_before_any_input_is_read(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("strategy", ["after", "joint", "before"])
    def test_image_below_the_minimum_side(self, tmp_path, capsys, monkeypatch, strategy):
        calls = _count_noise_calls(monkeypatch)
        src = _write_ppm(tmp_path / "small.ppm", _rgb(size=8))
        assert main(["pipeline", "--in", src, "--strategy", strategy, "--out", str(tmp_path / "o.ppm")]) == 2
        assert capsys.readouterr().err == "error: a pipeline run needs an image of at least 10x10, got 8x8\n"
        assert not (tmp_path / "o.ppm").exists() and not calls

    def test_stage_commands_take_smaller_images(self, tmp_path):
        src = _write_ppm(tmp_path / "small.ppm", _rgb(size=2))
        mosaic, noisy = tmp_path / "m.pgm", tmp_path / "n.pgm"
        assert main(["mosaic", "--in", src, "--out", str(mosaic)]) == 0
        assert main(["noise", "--in", str(mosaic), "--out", str(noisy)]) == 0
        assert main(["demosaic", "--in", str(noisy), "--out", str(tmp_path / "d.ppm")]) == 0


_JB, _GRADIENT = DemosaickerConfig(kind="joint-bilateral"), DemosaickerConfig(kind="gradient")
_NO_AXIS = ", and the demosaickers axis holds none"
# Every site that checks the strategy/demosaicker pairing, called with the
# path of a missing input, and its one message: a library call raises it, a
# command line exits 1 with it.
_PAIRING = {
    "check_pairing-after": (lambda _: check_pairing(Strategy.AFTER, _JB), "strategy after runs a non-joint demosaicker, not joint-bilateral"),
    "check_pairing-joint": (lambda _: check_pairing(Strategy.JOINT, _GRADIENT), "strategy joint runs a joint-bilateral demosaicker, not gradient"),
    "run_pipeline": (lambda _: run_pipeline(_rgb(), CfaPattern.GBRG, NoiseSpec.uniform(0.05, 1), Strategy.BEFORE, DenoiserConfig(), _JB), "strategy before runs a non-joint demosaicker, not joint-bilateral"),
    "grid-after": (lambda _: ExperimentGrid(strategies=(Strategy.AFTER,), demosaickers=(_JB,)), "strategy after runs a non-joint demosaicker" + _NO_AXIS),
    "grid-joint": (lambda _: ExperimentGrid(strategies=(Strategy.JOINT,), demosaickers=(_GRADIENT,)), "strategy joint runs a joint-bilateral demosaicker" + _NO_AXIS),
    "pipeline": (lambda path: main(["pipeline", "--in", path, "--strategy", "joint", "--demosaicker", "bilinear"]), "strategy joint runs a joint-bilateral demosaicker, not bilinear"),
    "experiment": (lambda path: main(["experiment", path, "--strategies", "before", "--demosaickers", "joint-bilateral"]), "strategy before runs a non-joint demosaicker" + _NO_AXIS),
}


@pytest.mark.parametrize("call, message", _PAIRING.values(), ids=_PAIRING)
def test_every_pairing_error_has_one_stem(tmp_path, capsys, call, message):
    assert re.match(r"^strategy (after|joint|before) runs (a joint-bilateral|a non-joint) demosaicker, ", message)
    try:
        rc = call(str(tmp_path / "missing.ppm"))
    except ValueError as exc:
        assert str(exc) == message
    else:
        assert rc == 1 and capsys.readouterr().err == f"error: {message}\n"


# Each method family's config, its kinds with the fields each reads, its
# flag in each command that takes one, and one value per field other than
# the default.
_FAMILIES = [
    (DenoiserConfig, denoise._DENOISERS, {"denoise": "--denoiser", "pipeline": "--denoiser", "experiment": "--denoisers"}, {"sigma_s": 2.5, "radius": 2, "sigma_r": math.inf, "levels": 4, "sigma_n": 0.05}),
    (DemosaickerConfig, demosaic._DEMOSAICKERS, {"demosaic": "--demosaicker", "pipeline": "--demosaicker", "experiment": "--demosaickers"}, {"sigma_s": 0.5, "sigma_r": math.inf}),
]
_REQUIRED = {"denoise": ["--in", "i", "--out", "o"], "demosaic": ["--in", "i", "--out", "o"], "pipeline": ["--in", "i"], "experiment": ["i.ppm"]}


def _flag_value(command: str, flag: str, argv: list):
    """What the parser makes of flag in command's argument list argv; an experiment axis holds a list."""
    value = getattr(_build_parser().parse_args([command, *_REQUIRED[command], *argv]), flag.lstrip("-"))
    return value[0] if command == "experiment" and argv else value


class TestMethodFlags:
    def test_the_defaults_are_the_library_defaults(self):
        # pipeline's --demosaicker defaults by strategy (TestPipelineCommand).
        assert _flag_value("denoise", "--denoiser", []) == _flag_value("pipeline", "--denoiser", []) == DenoiserConfig()
        assert _flag_value("demosaic", "--demosaicker", []) == DemosaickerConfig()
        assert tuple(_flag_value("experiment", "--denoisers", [])) == ExperimentGrid().denoisers
        assert tuple(_flag_value("experiment", "--demosaickers", [])) == ExperimentGrid().demosaickers

    @pytest.mark.parametrize("config,table,flags,others", _FAMILIES, ids=["denoiser", "demosaicker"])
    def test_every_described_config_is_a_flag_value(self, config, table, flags, others):
        for kind, (_, reads) in table.items():
            for written in (config(kind), config(kind, **{name: others[name] for name in reads})):
                for command, flag in flags.items():
                    assert _flag_value(command, flag, [flag, written.describe()]).describe() == written.describe()

    def test_a_csv_row_reruns(self, tmp_path, corpus_dir):
        # Every denoiser and demosaicker cell names the config that wrote the
        # row: parsed back, it reruns the row's MSE cells byte for byte.
        denoisers = ["gaussian(sigma_s=0.5)", "gaussian(sigma_s=2)", "bilateral", "wavelet(levels=3 sigma_n=0.05)"]
        demosaickers = ["bilinear", "gradient", "joint-bilateral(sigma_s=1 sigma_r=0.2)", "joint-bilateral(sigma_s=0.8 sigma_r=inf)"]
        images = [str(corpus_dir / f"{name}.ppm") for name in ("blobs", "boxes", "waves")]
        out = tmp_path / "r.csv"
        argv = ["experiment", *images, "--strategies", "after", "joint", "before", "--sigmas", "0.05", "0.1"]
        assert main(argv + ["--denoisers", *denoisers, "--demosaickers", *demosaickers, "--jobs", "1", "--out", str(out)]) == 0
        header, *lines = out.read_text("ascii").splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 3 * 2 * (2 * len(denoisers) * 2 + 2)
        # Each config gets its own cells: a bare kind is written with its defaults.
        assert {row["denoiser"] for row in rows} == {"none", "bilateral(sigma_s=1 sigma_r=0.1)", *denoisers} - {"bilateral"}
        assert {row["demosaicker"] for row in rows} == set(demosaickers)
        for row in rows:
            truth = decode_pnm((corpus_dir / row["image"]).read_bytes())
            noise = NoiseSpec(sigma_r=float(row["sigma_r"]), sigma_g=float(row["sigma_g"]), sigma_b=float(row["sigma_b"]), seed=int(row["seed"]))
            dn, dm = DenoiserConfig.parse(row["denoiser"]), DemosaickerConfig.parse(row["demosaicker"])
            _, record = run_pipeline(truth, CfaPattern.parse(row["pattern"]), noise, Strategy.parse(row["strategy"]), dn, dm, image_id=row["image"])
            rerun = dict(zip(header.split(","), write_csv([record]).decode("ascii").splitlines()[1].split(",")))
            assert [rerun[cell] for cell in ("mse_r", "mse_g", "mse_b")] == [row[cell] for cell in ("mse_r", "mse_g", "mse_b")]


class TestExperimentCommand:
    def _corpus(self, tmp_path):
        return [
            _write_ppm(tmp_path / "a.ppm", _rgb(seed=60)),
            _write_ppm(tmp_path / "b.ppm", _rgb(seed=61)),
        ]

    BASE = ["--strategies", "after", "before", "joint", "--sigmas", "0.02", "0.05",
            "--denoisers", "wavelet", "--demosaickers", "bilinear", "joint-bilateral", "--seed", "0"]

    def test_row_count_and_image_major_order(self, tmp_path):
        inputs = self._corpus(tmp_path)
        out = tmp_path / "r.csv"
        rc = main(["experiment", *inputs, *self.BASE, "--jobs", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text("ascii").splitlines()
        # 3 strategies x 2 sigmas x 1 denoiser x 1 demosaicker x 2 images
        assert len(lines) == 1 + 12
        images = [line.split(",")[0] for line in lines[1:]]
        assert images == ["a.ppm"] * 6 + ["b.ppm"] * 6

    def test_jobs_do_not_change_bytes(self, tmp_path):
        inputs = self._corpus(tmp_path)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(["experiment", *inputs, *self.BASE, "--jobs", "1", "--out", str(one)]) == 0
        assert main(["experiment", *inputs, *self.BASE, "--jobs", "2", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_stdout_when_no_out(self, tmp_path, capsysbinary):
        inputs = self._corpus(tmp_path)
        rc = main(["experiment", inputs[0], "--strategies", "after", "--sigmas", "0.05", "--jobs", "1"])
        assert rc == 0
        lines = capsysbinary.readouterr().out.decode("ascii").splitlines()
        assert len(lines) == 2

    def test_wall_time_zero_without_timing_flag(self, tmp_path):
        inputs = self._corpus(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["experiment", inputs[0], *self.BASE, "--jobs", "1", "--out", str(out)]) == 0
        for line in out.read_text("ascii").splitlines()[1:]:
            assert line.split(",")[16] == "0.00000"

    def test_timing_flag_records_wall_time(self, tmp_path):
        inputs = self._corpus(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["experiment", inputs[0], *self.BASE, "--jobs", "1", "--timing", "--out", str(out)]) == 0
        values = [float(line.split(",")[16]) for line in out.read_text("ascii").splitlines()[1:]]
        assert all(v > 0.0 for v in values)

    def test_unknown_denoiser_is_usage_error(self, tmp_path, capsys):
        inputs = self._corpus(tmp_path)
        rc = main(["experiment", inputs[0], "--denoisers", "foo"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("readable", [True, False], ids=["input", "missing-input"])
    def test_joint_demosaicker_axis_rejected(self, tmp_path, capsys, readable):
        # A bad grid is a usage error, found before the inputs are read.
        image = self._corpus(tmp_path)[0] if readable else str(tmp_path / "nope.ppm")
        rc = main(["experiment", image, "--demosaickers", "joint-bilateral"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "non-joint" in err and err.count("\n") == 1

    @pytest.mark.parametrize("readable", [True, False], ids=["input", "missing-input"])
    def test_joint_with_no_joint_bilateral_on_the_axis_rejected(self, tmp_path, capsys, readable):
        image = self._corpus(tmp_path)[0] if readable else str(tmp_path / "nope.ppm")
        rc = main(["experiment", image, "--strategies", "joint", "--demosaickers", "bilinear"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "joint-bilateral" in err and err.count("\n") == 1

    def test_repeated_basename_rejected(self, tmp_path, capsys):
        # Ids are basenames: day/scene.ppm and night/scene.ppm would share one
        # noise field and one image column.
        inputs = []
        for seed, folder in enumerate(("day", "night")):
            (tmp_path / folder).mkdir()
            inputs.append(_write_ppm(tmp_path / folder / "scene.ppm", _rgb(seed=seed)))
        out = tmp_path / "r.csv"
        rc = main(["experiment", *inputs, "--strategies", "after", "--sigmas", "0.05", "--jobs", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: image id 'scene.ppm' is repeated") and err.count("\n") == 1
        assert not out.exists()

    def test_repeats_multiply_rows(self, tmp_path):
        inputs = self._corpus(tmp_path)
        out = tmp_path / "r.csv"
        rc = main([
            "experiment", inputs[0], "--strategies", "after", "--sigmas", "0.05",
            "--repeats", "3", "--jobs", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text("ascii").splitlines()
        assert len(lines) == 4
        seeds = [line.split(",")[8] for line in lines[1:]]
        assert len(set(seeds)) == 3


_SIGMA_NEED = "finite, >= 0 and <= 1000"
# (command, flag, the descriptor's kind or None, its field or None, a text
# whose cast fails or whose value is out of range, the rule's need): each
# numeric flag and each descriptor field, once each way.
_READS = [
    (command, flag, kind, field, text, need)
    for command, flag, kind, field, texts, need in [
        ("pipeline", "--sigma", None, None, ("abc", "-0.1"), _SIGMA_NEED),
        ("noise", "--sigma-r", None, None, ("1,5", "1e400"), _SIGMA_NEED),
        ("noise", "--sigma-g", None, None, ("", "1000.5"), _SIGMA_NEED),
        ("pipeline", "--sigma-b", None, None, ("0.05s", "nan"), _SIGMA_NEED),
        ("experiment", "--sigmas", None, None, ("0.05.1", "inf"), _SIGMA_NEED),
        ("pipeline", "--seed", None, None, ("1.0", "-1"), "an integer in [0, 2^64)"),
        ("experiment", "--seed", None, None, ("0x10", "18446744073709551616"), "an integer in [0, 2^64)"),
        ("experiment", "--repeats", None, None, ("1.5", "0"), "an integer >= 1"),
        ("experiment", "--jobs", None, None, ("two", "-2"), "an integer >= 1"),
        ("mosaic", "--depth", None, None, ("8.0", "12"), "8 or 16"),
        ("denoise", "--denoiser", "gaussian", "sigma_s", ("wide", "0"), "finite, >= 1e-154 and <= 100"),
        ("pipeline", "--denoiser", "median", "radius", ("1.5", "0"), "an integer in [1, 300]"),
        ("denoise", "--denoiser", "bilateral", "sigma_r", ("-", "1e-200"), "in float range and >= 1e-154, or inf"),
        ("experiment", "--denoisers", "wavelet", "levels", ("3.0", "11"), "an integer in [1, 10]"),
        ("pipeline", "--denoiser", "wavelet", "sigma_n", ("often", "1e200"), f"{_SIGMA_NEED}, or auto"),
        ("demosaic", "--demosaicker", "joint-bilateral", "sigma_s", ("x", "1e200"), "finite, >= 1e-154 and <= 100"),
        ("experiment", "--demosaickers", "joint-bilateral", "sigma_r", ("", "nan"), "in float range and >= 1e-154, or inf"),
    ]
    for text in texts
]


class TestOutOfRangeFlags:
    # One case per rule of each flag. A method's fields are checked through
    # its descriptor, whose last field is the one out of range.
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("experiment", "--repeats", "0"),
            ("experiment", "--sigmas", "-0.1"),
            ("experiment", "--seed", "-1"),
            ("experiment", "--jobs", "0"),
            ("pipeline", "--sigma", "-0.1"),
            ("pipeline", "--seed", "-1"),
            ("noise", "--sigma", "1e308"),
            ("noise", "--sigma-g", "1000.5"),
            ("pipeline --denoiser wavelet", "--sigma", "1e160"),
            ("pipeline --denoiser gaussian", "--sigma", "1e160"),
            ("pipeline --denoiser median", "--sigma", "1e160"),
            ("pipeline --denoiser bilateral", "--sigma", "1e160"),
            ("pipeline", "--sigma-b", "1e160"),
            ("experiment", "--sigmas", "1e160"),
            ("experiment", "--denoisers", "wavelet(levels=0)"),
            ("pipeline", "--denoiser", "wavelet(levels=11)"),
            ("pipeline", "--denoiser", "wavelet(sigma_n=-1)"),
            ("denoise", "--denoiser", "wavelet(levels=3 sigma_n=1e200)"),
            ("experiment", "--denoisers", "wavelet(sigma_n=1001)"),
            ("pipeline", "--denoiser", "gaussian(sigma_s=100.5)"),
            ("experiment", "--demosaickers", "joint-bilateral(sigma_s=1e200)"),
            ("denoise", "--denoiser", "gaussian(sigma_s=1e-200)"),
            ("pipeline --strategy joint", "--demosaicker", "joint-bilateral(sigma_s=1e-200)"),
            ("pipeline", "--denoiser", "median(radius=301)"),
            ("experiment", "--denoisers", "median(radius=1.5)"),
            ("pipeline", "--denoiser", "bilateral(sigma_s=1 sigma_r=nan)"),
            ("pipeline --strategy joint", "--demosaicker", "joint-bilateral(sigma_r=0)"),
            ("denoise", "--denoiser", "bilateral(sigma_r=1e-200)"),
            # Below joint-bilateral's own sigma_s floor.
            ("pipeline --strategy joint", "--demosaicker", "joint-bilateral(sigma_s=0.03)"),
            ("demosaic", "--demosaicker", "joint-bilateral(sigma_s=0.03)"),
            ("experiment --strategies after joint", "--demosaickers", "joint-bilateral(sigma_s=0.03)"),
            ("demosaic --in missing.pgm", "--demosaicker", "joint-bilateral(sigma_s=0.03753)"),
            ("pipeline --strategy joint --in missing.ppm", "--demosaicker", "joint-bilateral(sigma_r=0.1 sigma_s=0.03)"),
        ],
    )
    def test_usage_error_names_the_flag(self, tmp_path, capsys, command, flag, value):
        image = _write_ppm(tmp_path / "a.ppm", _rgb(seed=62))
        mosaic = _write_pgm(tmp_path / "m.pgm", mosaic_from_rgb(_rgb(size=16, seed=63), CfaPattern.GBRG).plane)
        name, *options = command.split()
        argv = {
            "experiment": ["experiment", image, "--strategies", "after", "--sigmas", "0.05", "--jobs", "1", "--out", str(tmp_path / "r.csv")],
            "pipeline": ["pipeline", "--in", image],
            "noise": ["noise", "--in", mosaic, "--out", str(tmp_path / "n.pgm")],
            "denoise": ["denoise", "--in", mosaic, "--out", str(tmp_path / "d.pgm")],
            "demosaic": ["demosaic", "--in", mosaic, "--out", str(tmp_path / "x.ppm")],
        }[name]
        assert main(argv + options + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
        # A descriptor's error names its last field; any other flag's, the value.
        assert (re.findall(r"(\w+)=", value) or [value])[-1] in err

    def test_usage_error_is_found_before_the_input_is_read(self, tmp_path, capsys):
        argv = ["denoise", "--in", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "d.pgm"), "--denoiser", "gaussian(sigma_s=1e-200)"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: argument --denoiser: sigma_s must be finite, >= 1e-154 and <= 100, got '1e-200'\n"

    @pytest.mark.parametrize("command,flag,kind,field,text,need", _READS, ids=[f"{row[1]}-{row[3] or 'value'}-{row[4]}" for row in _READS])
    def test_every_typed_value_is_quoted_as_typed(self, tmp_path, capsys, command, flag, kind, field, text, need):
        # A failing cast and an out-of-range value get the same line, before
        # the missing input is read.
        argv = {
            "mosaic": ["mosaic", "--in", str(tmp_path / "missing.ppm"), "--out", str(tmp_path / "m.pgm")],
            "noise": ["noise", "--in", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "n.pgm")],
            "denoise": ["denoise", "--in", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "d.pgm")],
            "demosaic": ["demosaic", "--in", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "x.ppm")],
            "pipeline": ["pipeline", "--in", str(tmp_path / "missing.ppm")],
            "experiment": ["experiment", str(tmp_path / "missing.ppm")],
        }[command]
        value = f"{kind}({field}={text})" if kind else text
        assert main(argv + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: {field + ' ' if field else ''}must be {need}, got {text!r}\n"

    @pytest.mark.parametrize("strategy", ["after", "before", "joint"])
    @pytest.mark.parametrize("denoiser", ["none", "gaussian", "median", "bilateral", "wavelet"])
    def test_largest_sigma_runs_every_strategy(self, tmp_path, capsys, strategy, denoiser):
        image = _write_ppm(tmp_path / "a.ppm", _rgb(size=16, seed=64))
        assert main(["pipeline", "--in", image, "--sigma", "1000", "--strategy", strategy, "--denoiser", denoiser]) == 0
        assert capsys.readouterr().err == ""

    def test_largest_sigma_denoises_padded_subimages(self, tmp_path, capsys):
        # The 50x50 sub-images are padded to 56x56 for the wavelet, and under
        # this seed's noise some of their estimated sigma_n exceed 1000.
        image = _write_ppm(tmp_path / "a.ppm", _rgb(size=100, seed=65))
        argv = ["pipeline", "--in", image, "--sigma", "1000", "--strategy", "before", "--denoiser", "wavelet", "--seed", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


class TestErrorMessages:
    @pytest.mark.parametrize(
        "argv,flag,parse,value",
        [
            (["mosaic", "--in", "a.ppm", "--out", "m.pgm"], "--pattern", CfaPattern.parse, "xyz"),
            (["pipeline", "--in", "a.ppm"], "--strategy", Strategy.parse, "sideways"),
            (["pipeline", "--in", "a.ppm"], "--denoiser", DenoiserConfig.parse, "nl_means"),
            (["pipeline", "--in", "a.ppm"], "--denoiser", DenoiserConfig.parse, "wavelet(sigma_n=often)"),
            (["pipeline", "--in", "a.ppm"], "--denoiser", DenoiserConfig.parse, "median(radius=1.5)"),
            (["pipeline", "--in", "a.ppm"], "--denoiser", DenoiserConfig.parse, "median(sigma_s=5)"),
            (["pipeline", "--in", "a.ppm"], "--demosaicker", DemosaickerConfig.parse, "gradient(sigma_r=0.3)"),
            (["denoise", "--in", "a.pgm", "--out", "d.pgm"], "--denoiser", DenoiserConfig.parse, "gaussian(sigma_s=1 sigma_s=2)"),
            (["demosaic", "--in", "a.pgm", "--out", "d.ppm"], "--demosaicker", DemosaickerConfig.parse, "joint-bilateral(sigma_s=1"),
            (["experiment", "a.ppm"], "--denoisers", DenoiserConfig.parse, "bilateral sigma_s=1"),
        ],
    )
    def test_flag_rejected_with_the_library_message(self, capsys, argv, flag, parse, value):
        with pytest.raises(ValueError) as library:
            parse(value)
        assert main(argv + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: {library.value}\n"

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["experiment", "a.ppm", "--repeats", "1.5"], "error: argument --repeats: must be an integer >= 1, got '1.5'"),
            (["pipeline", "--in", "a.ppm", "--sigma", "abc"], "error: argument --sigma: must be finite, >= 0 and <= 1000, got 'abc'"),
        ],
        ids=["repeats", "sigma"],
    )
    def test_failing_cast_is_worded_by_its_type(self, capsys, argv, line):
        assert main(argv) == 1
        assert capsys.readouterr().err == line + "\n"

    def test_header_without_raster_names_the_input(self, tmp_path, capsys):
        src = tmp_path / "short.ppm"
        src.write_bytes(b"P6 12 12 255")
        assert main(["mosaic", "--in", str(src), "--out", str(tmp_path / "m.pgm")]) == 2
        assert capsys.readouterr().err == f"error: {src}: raster must follow the maxval after a single whitespace byte\n"

    def test_output_in_a_missing_directory(self, tmp_path, capsys):
        src = _write_ppm(tmp_path / "a.ppm", _rgb(size=8))
        out = tmp_path / "missing" / "m.pgm"
        assert main(["mosaic", "--in", src, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"


class TestHelp:
    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("mosaic", "noise", "decompose", "denoise", "demosaic", "pipeline", "experiment"):
            assert command in out

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("mosaic", ["--in", "--out", "--pattern", "--depth"]),
            ("noise", ["--sigma", "--sigma-r", "--seed"]),
            ("decompose", ["--out-prefix"]),
            ("denoise", ["--denoiser", "gaussian(sigma_s=1)", "median(radius=1)"]),
            ("demosaic", ["--demosaicker", "bilinear", "gradient"]),
            ("pipeline", ["--strategy", "--denoiser", "--demosaicker", "--sigma", "--seed"]),
            ("experiment", ["--strategies", "--sigmas", "--denoisers", "--demosaickers", "--repeats", "--jobs", "--timing"]),
        ],
    )
    def test_subcommand_help_documents_flags(self, capsys, command, flags):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("error:")


REPO_ROOT = Path(__file__).resolve().parents[1]


def _checkout_env():
    """Environment whose PYTHONPATH puts this checkout's ``src`` first."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + inherited if inherited else src
    return env


def _declared_project():
    """``[project]`` as declared in this checkout's pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _declared_console_scripts():
    """``[project.scripts]`` as declared in this checkout's pyproject.toml."""
    return _declared_project().get("scripts", {})


def test_the_declared_version_is_the_package_version():
    assert _declared_project()["version"] == cfaisp.__version__


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cfaisp.cli", "--help"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert proc.returncode == 0
        assert "experiment" in proc.stdout

    def test_console_script(self, tmp_path):
        """The declared ``cfaisp`` script launches the CLI, installed or not.

        The wrapper written here is the one an installer generates from the
        ``console_scripts`` entry point, run against this checkout's source.
        """
        scripts = _declared_console_scripts()
        assert "cfaisp" in scripts
        entry = EntryPoint(name="cfaisp", value=scripts["cfaisp"], group="console_scripts")
        assert callable(entry.load())

        wrapper = tmp_path / "cfaisp"
        wrapper.write_text(
            f"import sys\nfrom {entry.module} import {entry.attr}\nsys.exit({entry.attr}())\n"
        )

        def launch(*args):
            return subprocess.run(
                [sys.executable, str(wrapper), *args],
                capture_output=True,
                text=True,
                env=_checkout_env(),
            )

        proc = launch("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: cfaisp")
        assert "mosaic" in proc.stdout
        assert launch("pipeline").returncode == 1

    def test_installed_console_script(self):
        """An installed ``cfaisp`` carries this checkout's entry point and runs."""
        try:
            dist = distribution("cfaisp")
        except PackageNotFoundError:
            pytest.skip("no cfaisp distribution is installed")
        installed = {ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"}
        assert installed.get("cfaisp") == _declared_console_scripts().get("cfaisp")
        exes = [dist.locate_file(f) for f in dist.files or () if Path(f).name in ("cfaisp", "cfaisp.exe")]
        assert exes, "the cfaisp distribution records no cfaisp script"
        proc = subprocess.run([str(exes[0]), "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "mosaic" in proc.stdout


class TestNumpyOnlyRuntime:
    def test_every_method_runs_without_loading_scipy(self):
        code = """
import sys
import numpy as np
import cfaisp, cfaisp.cli
from cfaisp.cfa import CfaPattern, MosaicImage
from cfaisp.demosaic import DEMOSAICKER_KINDS, DemosaickerConfig, demosaic
from cfaisp.denoise import DENOISER_KINDS, DenoiserConfig, denoise_plane
from cfaisp.imageio import Plane
plane = Plane(np.random.default_rng(0).random((16, 16)))
for config in [DenoiserConfig(kind=kind) for kind in DENOISER_KINDS] + [DenoiserConfig(kind="median", radius=2)]:
    denoise_plane(plane, config)
for kind in DEMOSAICKER_KINDS:
    demosaic(MosaicImage(CfaPattern.GBRG, plane), DemosaickerConfig(kind=kind))
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_checkout_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_numpy_is_the_only_runtime_dependency(self):
        project = _declared_project()

        def names(requirements):
            return [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements]

        assert names(project["dependencies"]) == ["numpy"]
        assert "scipy" in names(project["optional-dependencies"]["test"])
