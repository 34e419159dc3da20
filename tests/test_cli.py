"""Command-line interface tests, run in-process through main()."""

import dataclasses
import errno
import math
import os
import re
import subprocess
import sys
from functools import partial
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

import cfaisp
from cfaisp.cfa import CfaPattern, MosaicImage, SubImages, mosaic_from_rgb, recompose
import cfaisp.pipeline as pipeline
from cfaisp.cli import _build_parser, main
from cfaisp.demosaic import DemosaickerConfig, demosaic_bilinear
from cfaisp.config import CONFIG_FIELDS, parse_name
from cfaisp.denoise import DENOISER_KINDS, DenoiserConfig
from cfaisp.imageio import Plane, RgbImage, decode_pnm, encode_pnm, write_csv
from cfaisp.noise import NoiseSpec
from cfaisp.pipeline import Strategy, run_pipeline


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
    @pytest.mark.parametrize("kind", ["none", "gaussian", "median", "bilateral", "wavelet", "median --dn-radius 2", "wavelet --dn-levels 7"])
    def test_each_kind_runs(self, tmp_path, kind):
        src = _write_pgm(tmp_path / "p.pgm", Plane(np.random.default_rng(52).random((16, 16))))
        out = tmp_path / "d.pgm"
        rc = main(["denoise", "--in", src, "--out", str(out), "--denoiser", *kind.split(), "--depth", "16"])
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
        "--denoiser", "wavelet", "--dn-sigma-n", "auto", "--demosaicker", "bilinear",
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
        assert "strategy joint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,strategy,dn,dm",
        [
            (["--denoiser", "bilateral", "--dn-sigma-r", "inf"], Strategy.AFTER, DenoiserConfig(kind="bilateral", sigma_r=math.inf), DemosaickerConfig()),
            (["--strategy", "joint", "--jb-sigma-r", "inf"], Strategy.JOINT, DenoiserConfig(), DemosaickerConfig(kind="joint-bilateral", sigma_r=math.inf)),
        ],
        ids=["dn-sigma-r", "jb-sigma-r"],
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


# The commands that take each method family's parameter flags.
_FAMILIES = [
    ("dn", DenoiserConfig(), ["denoise", "pipeline", "experiment"]),
    ("jb", DemosaickerConfig(), ["demosaic", "pipeline", "experiment"]),
]
_REQUIRED = {"denoise": ["--in", "i", "--out", "o"], "demosaic": ["--in", "i", "--out", "o"], "pipeline": ["--in", "i"], "experiment": ["i.ppm"]}


class TestFlagsFromConfigFields:
    @pytest.mark.parametrize("prefix,defaults,commands", _FAMILIES, ids=["dn", "jb"])
    def test_one_flag_per_field_with_the_config_default(self, prefix, defaults, commands):
        names = [field.name for field in dataclasses.fields(defaults) if field.name != "kind"]
        for command in commands:
            args = vars(_build_parser().parse_args([command, *_REQUIRED[command]]))
            assert {dest for dest in args if dest.startswith(f"{prefix}_")} == {f"{prefix}_{name}" for name in names}
            for name in names:
                assert args[f"{prefix}_{name}"] == getattr(defaults, name)

    @pytest.mark.parametrize("prefix,defaults,commands", _FAMILIES, ids=["dn", "jb"])
    def test_flag_text_is_the_field_text_form(self, prefix, defaults, commands):
        for field in dataclasses.fields(defaults):
            if field.name == "kind":
                continue
            spec, default = CONFIG_FIELDS[field.name], getattr(defaults, field.name)
            flag = f"--{prefix}-{field.name.replace('_', '-')}"
            for command in commands:
                args = _build_parser().parse_args([command, *_REQUIRED[command], flag, spec.show(default)])
                assert getattr(args, f"{prefix}_{field.name}") == default


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


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("experiment", "--repeats", "0"),
            ("experiment", "--sigmas", "-0.1"),
            ("experiment", "--dn-levels", "0"),
            ("experiment", "--dn-sigma-n", "-1"),
            ("experiment", "--seed", "-1"),
            ("experiment", "--jobs", "0"),
            ("pipeline", "--sigma", "-0.1"),
            ("pipeline", "--dn-levels", "0"),
            ("pipeline", "--dn-sigma-n", "-1"),
            ("pipeline", "--seed", "-1"),
            ("pipeline", "--dn-sigma-s", "1e200"),
            ("pipeline", "--dn-sigma-s", "100.5"),
            ("pipeline", "--jb-sigma-s", "1e200"),
            ("experiment", "--dn-sigma-s", "101"),
            ("experiment", "--jb-sigma-s", "1e200"),
            ("noise", "--sigma", "1e308"),
            ("noise", "--sigma-g", "1000.5"),
            ("denoise --denoiser wavelet", "--dn-sigma-n", "1e200"),
            ("pipeline --denoiser wavelet", "--sigma", "1e160"),
            ("pipeline --denoiser gaussian", "--sigma", "1e160"),
            ("pipeline --denoiser median", "--sigma", "1e160"),
            ("pipeline --denoiser bilateral", "--sigma", "1e160"),
            ("pipeline", "--sigma-b", "1e160"),
            ("pipeline", "--dn-sigma-n", "1e200"),
            ("experiment", "--sigmas", "1e160"),
            ("experiment", "--dn-sigma-n", "1001"),
            ("pipeline", "--dn-radius", "301"),
            ("pipeline", "--dn-radius", "1.5"),
            ("experiment", "--dn-radius", "301"),
            ("pipeline", "--dn-levels", "11"),
            ("experiment", "--dn-levels", "25"),
            ("pipeline", "--dn-sigma-r", "nan"),
            ("pipeline", "--jb-sigma-r", "0"),
            ("denoise --denoiser gaussian", "--dn-sigma-s", "1e-200"),
            ("denoise --denoiser bilateral", "--dn-sigma-r", "1e-200"),
            ("pipeline --strategy joint", "--jb-sigma-s", "1e-200"),
            ("experiment", "--dn-sigma-s", "1e-200"),
            # Below joint-bilateral's own sigma_s floor.
            ("pipeline --strategy joint", "--jb-sigma-s", "0.03"),
            ("demosaic --demosaicker joint-bilateral", "--jb-sigma-s", "0.03"),
            ("experiment --strategies after joint", "--jb-sigma-s", "0.03"),
            ("demosaic --demosaicker joint-bilateral --in missing.pgm", "--jb-sigma-s", "0.03753"),
            ("pipeline --strategy joint --in missing.ppm", "--jb-sigma-s", "0.03"),
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
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag in err and value in err

    def test_usage_error_is_found_before_the_input_is_read(self, tmp_path, capsys):
        argv = ["denoise", "--in", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "d.pgm"), "--denoiser", "gaussian", "--dn-sigma-s", "1e-200"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: argument --dn-sigma-s: must be finite, >= 1e-154 and <= 100, got 1e-200\n"

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
            (["pipeline", "--in", "a.ppm"], "--dn-sigma-n", CONFIG_FIELDS["sigma_n"].parse, "often"),
            (["pipeline", "--in", "a.ppm"], "--strategy", Strategy.parse, "sideways"),
            (["pipeline", "--in", "a.ppm"], "--denoiser", partial(parse_name, "denoiser", names=DENOISER_KINDS), "nl_means"),
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
            (["experiment", "a.ppm", "--repeats", "1.5"], "error: argument --repeats: invalid int value: '1.5'"),
            (["pipeline", "--in", "a.ppm", "--dn-radius", "1.5"], "error: argument --dn-radius: invalid int value: '1.5'"),
            (["pipeline", "--in", "a.ppm", "--sigma", "abc"], "error: argument --sigma: invalid float value: 'abc'"),
        ],
        ids=["repeats", "dn-radius", "sigma"],
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
            ("denoise", ["--denoiser", "--dn-sigma-s", "--dn-radius", "--dn-sigma-r", "--dn-levels", "--dn-sigma-n"]),
            ("demosaic", ["--demosaicker", "--jb-sigma-s", "--jb-sigma-r"]),
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
