"""Codec and CSV tests.

The 16-bit decode path is checked against an independent struct-based
reader, and encode quantization against hand-computed byte values.
"""

import os
import struct
import sys
import threading
import time
from types import SimpleNamespace

import haar
import numpy as np
import pytest

from cfaisp import _kernel
from cfaisp.cfa import CfaPattern, MosaicImage, decompose, mosaic_from_rgb, recompose
from cfaisp.demosaic import DemosaickerConfig, demosaic
from cfaisp.denoise import DenoiserConfig, denoise_plane
from cfaisp.imageio import (
    CSV_HEADER,
    DimensionError,
    Plane,
    PnmError,
    PnmHeaderError,
    PnmMaxvalError,
    PnmTruncatedError,
    PnmUnsupportedError,
    RgbImage,
    decode_pnm,
    encode_pnm,
    format_float,
    write_csv,
)
from cfaisp.config import parse_name
from cfaisp.noise import NoiseSpec, add_awgn


class TestPlane:
    def test_copies_and_freezes_data(self):
        arr = np.zeros((2, 3))
        plane = Plane(arr)
        arr[0, 0] = 5.0
        assert plane.data[0, 0] == 0.0
        with pytest.raises(ValueError):
            plane.data[0, 0] = 1.0

    def test_dimensions(self):
        plane = Plane(np.zeros((4, 7)))
        assert plane.data.shape == (4, 7)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 4))])
    def test_rejects_non_2d(self, bad):
        with pytest.raises(DimensionError):
            Plane(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            Plane(np.array([[0.0, value]]))


# Each stage, run on a 12x12 RGB image and its GBRG mosaic: the planes it returns.
_STAGES = {
    "mosaic_from_rgb": lambda truth, mosaic: [mosaic_from_rgb(truth, CfaPattern.GBRG).plane],
    "add_awgn": lambda truth, mosaic: [add_awgn(mosaic, NoiseSpec.uniform(0.05, 3)).plane],
    "decompose": lambda truth, mosaic: list(decompose(mosaic).planes),
    "recompose": lambda truth, mosaic: [recompose(decompose(mosaic)).plane],
    "haar-round-trip": lambda truth, mosaic: [Plane._adopt(haar.idwt(*haar.dwt(mosaic.plane.data, 2)))],
    "decode_pnm": lambda truth, mosaic: [decode_pnm(encode_pnm(mosaic.plane, 16)), *decode_pnm(encode_pnm(truth, 16)).planes],
    "gaussian": lambda truth, mosaic: [denoise_plane(mosaic.plane, DenoiserConfig(kind="gaussian"))],
    "median-3x3": lambda truth, mosaic: [denoise_plane(mosaic.plane, DenoiserConfig(kind="median", radius=1))],
    "median-5x5": lambda truth, mosaic: [denoise_plane(mosaic.plane, DenoiserConfig(kind="median", radius=2))],
    "bilateral": lambda truth, mosaic: [denoise_plane(mosaic.plane, DenoiserConfig(kind="bilateral"))],
    "wavelet": lambda truth, mosaic: [denoise_plane(mosaic.plane, DenoiserConfig(kind="wavelet", levels=2))],
    "wavelet-padded": lambda truth, mosaic: [denoise_plane(mosaic.plane, DenoiserConfig(kind="wavelet", levels=3))],
    "bilinear": lambda truth, mosaic: list(demosaic(mosaic, DemosaickerConfig(kind="bilinear")).planes),
    "gradient": lambda truth, mosaic: list(demosaic(mosaic, DemosaickerConfig(kind="gradient")).planes),
    "joint-bilateral": lambda truth, mosaic: list(demosaic(mosaic, DemosaickerConfig(kind="joint-bilateral")).planes),
}


class TestPlaneOwnership:
    def test_constructor_copies_and_leaves_the_argument_writable(self):
        arr = np.random.default_rng(30).random((3, 5))
        plane = Plane(arr)
        assert not np.shares_memory(plane.data, arr)
        assert arr.flags.writeable
        arr[0, 0] = 7.0
        assert plane.data[0, 0] != 7.0

    @pytest.mark.parametrize("stage", sorted(_STAGES))
    def test_stage_outputs_are_read_only_and_share_no_input_memory(self, stage):
        rng = np.random.default_rng(31)
        truth = RgbImage(*(Plane(rng.random((12, 12))) for _ in range(3)))
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(rng.random((12, 12))))
        outputs = _STAGES[stage](truth, mosaic)
        for plane in outputs:
            assert not plane.data.flags.writeable
            with pytest.raises(ValueError):
                plane.data[0, 0] = 0.5
            for source in (*truth.planes, mosaic.plane):
                assert not np.shares_memory(plane.data, source.data)
        for i, plane in enumerate(outputs):
            for other in outputs[i + 1 :]:
                assert not np.shares_memory(plane.data, other.data)

    @pytest.mark.parametrize("kind", ["bilinear", "gradient"])
    def test_non_finite_stage_output_raises(self, kind):
        # Neighbor sums of 1.7e308 pass the largest float. Plane's check
        # reports it; a warning first would fail this suite.
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.full((8, 8), 1.7e308)))
        with pytest.raises(ValueError, match="plane samples must be finite"):
            demosaic(mosaic, DemosaickerConfig(kind=kind))


class TestRgbImage:
    def test_mismatched_planes_rejected(self):
        with pytest.raises(DimensionError):
            RgbImage(Plane(np.zeros((2, 2))), Plane(np.zeros((2, 2))), Plane(np.zeros((2, 3))))

    def test_planes_order(self):
        img = RgbImage(Plane(np.full((1, 1), 0.1)), Plane(np.full((1, 1), 0.2)), Plane(np.full((1, 1), 0.3)))
        assert [p.data[0, 0] for p in img.planes] == [0.1, 0.2, 0.3]


def _independent_read_p5_16bit(data: bytes) -> list[float]:
    """Oracle: minimal struct-based reader for a known-layout 16-bit PGM."""
    header, raster = data.split(b"\n", 1)
    _, width, height, maxval = header.split()
    count = int(width) * int(height)
    values = struct.unpack(f">{count}H", raster[: 2 * count])
    return [v / int(maxval) for v in values]


class TestDecode:
    def test_p5_endpoints(self):
        plane = decode_pnm(b"P5 2 1 255\n" + bytes([0, 255]))
        assert isinstance(plane, Plane)
        assert plane.data.tolist() == [[0.0, 1.0]]

    def test_p6_pure_red(self):
        image = decode_pnm(b"P6 1 1 255\n" + bytes([255, 0, 0]))
        assert isinstance(image, RgbImage)
        assert (image.r.data[0, 0], image.g.data[0, 0], image.b.data[0, 0]) == (1.0, 0.0, 0.0)

    def test_16bit_big_endian_matches_independent_reader(self):
        raster = struct.pack(">4H", 65535, 0, 32768, 16384)
        data = b"P5 2 2 65535\n" + raster
        plane = decode_pnm(data)
        assert plane.data.ravel().tolist() == _independent_read_p5_16bit(data)
        assert plane.data.ravel().tolist() == [1.0, 0.0, 32768 / 65535, 16384 / 65535]

    def test_p6_16bit_interleaving(self):
        raster = struct.pack(">6H", 1, 2, 3, 4, 5, 6)
        image = decode_pnm(b"P6 2 1 65535\n" + raster)
        assert image.r.data.ravel().tolist() == [1 / 65535, 4 / 65535]
        assert image.g.data.ravel().tolist() == [2 / 65535, 5 / 65535]
        assert image.b.data.ravel().tolist() == [3 / 65535, 6 / 65535]

    def test_header_comments_and_mixed_whitespace(self):
        data = b"P5 # magic\n#width next\n 2\t#w\n1 \r\n255\n" + bytes([7, 9])
        plane = decode_pnm(data)
        assert plane.data.shape == (1, 2)
        assert plane.data.ravel().tolist() == [7 / 255, 9 / 255]

    def test_trailing_bytes_tolerated(self):
        plane = decode_pnm(b"P5 1 1 255\n" + bytes([5]) + b"\n")
        assert plane.data.tolist() == [[5 / 255]]

    @pytest.mark.parametrize("magic", [b"P1", b"P2", b"P3", b"P4", b"P7"])
    def test_unsupported_variants(self, magic):
        with pytest.raises(PnmUnsupportedError):
            decode_pnm(magic + b" 1 1 255\n\x00")

    def test_bad_magic(self):
        with pytest.raises(PnmHeaderError):
            decode_pnm(b"XX 1 1 255\n\x00")

    # int() would take "1_0" and "+10" as 10; a Netpbm field is ASCII digits.
    @pytest.mark.parametrize("token", [b"two", b"1_0", b"+10"])
    def test_non_integer_field(self, token):
        with pytest.raises(PnmHeaderError):
            decode_pnm(b"P5 " + token + b" " + token + b" 255\n" + bytes(100))

    def test_zero_dimension(self):
        with pytest.raises(PnmHeaderError):
            decode_pnm(b"P5 0 1 255\n")

    def test_header_ends_early(self):
        with pytest.raises(PnmHeaderError):
            decode_pnm(b"P5 2 2")

    # A comment runs to the end of its line, here the end of the data.
    @pytest.mark.parametrize("data", [b"", b"P5 2 2", b"P5 2 2 #255"])
    def test_header_ended_before_all_fields_were_read(self, data):
        with pytest.raises(PnmHeaderError, match="^header ended before all fields were read$"):
            decode_pnm(data)

    def test_comment_ends_a_token(self):
        plane = decode_pnm(b"P5 2#c\n2 255\n" + bytes([1, 2, 3, 4]))
        assert plane.data.tolist() == [[1 / 255, 2 / 255], [3 / 255, 4 / 255]]

    def test_raster_must_follow_the_maxval(self):
        with pytest.raises(PnmHeaderError, match="^raster must follow the maxval after a single whitespace byte$"):
            decode_pnm(b"P5 2 2 255")

    @pytest.mark.parametrize("maxval", [1, 254, 1000, 65534])
    def test_unsupported_maxval(self, maxval):
        with pytest.raises(PnmMaxvalError):
            decode_pnm(f"P5 1 1 {maxval}\n".encode() + b"\x00\x00")

    def test_truncated_raster(self):
        with pytest.raises(PnmTruncatedError):
            decode_pnm(b"P5 2 2 255\n" + bytes([1, 2, 3]))

    def test_error_hierarchy(self):
        for exc in (PnmHeaderError, PnmUnsupportedError, PnmMaxvalError, PnmTruncatedError):
            assert issubclass(exc, PnmError)
            assert issubclass(exc, ValueError)


class TestEncode:
    def test_half_rounds_up(self):
        # 0.5 * 255 = 127.5; half away from zero gives 128.
        assert encode_pnm(Plane(np.array([[0.5]])), 8)[-1:] == bytes([128])

    def test_half_away_from_zero_not_half_even(self):
        # 1/510 * 255 = 0.5 exactly; half-to-even would give 0.
        assert encode_pnm(Plane(np.array([[1.0 / 510.0]])), 8)[-1:] == bytes([1])

    def test_clamping(self):
        plane = Plane(np.array([[2.0, -1.0]]))
        assert encode_pnm(plane, 8)[-2:] == bytes([255, 0])

    def test_header_format(self):
        assert encode_pnm(Plane(np.zeros((2, 3))), 8).startswith(b"P5 3 2 255\n")
        assert encode_pnm(Plane(np.zeros((2, 3))), 16).startswith(b"P5 3 2 65535\n")
        rgb = RgbImage(Plane(np.zeros((2, 3))), Plane(np.zeros((2, 3))), Plane(np.zeros((2, 3))))
        assert encode_pnm(rgb, 8).startswith(b"P6 3 2 255\n")

    def test_16bit_big_endian(self):
        plane = Plane(np.array([[1.0, 256 / 65535]]))
        assert encode_pnm(plane, 16)[-4:] == b"\xff\xff\x01\x00"

    def test_p6_interleaving(self):
        rgb = RgbImage(Plane(np.array([[0.0]])), Plane(np.array([[0.5]])), Plane(np.array([[1.0]])))
        assert encode_pnm(rgb, 8)[-3:] == bytes([0, 128, 255])

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            encode_pnm(Plane(np.zeros((1, 1))), 12)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            encode_pnm(np.zeros((2, 2)), 8)

    def test_monotone(self):
        values = np.sort(np.random.default_rng(5).uniform(-0.2, 1.2, size=600)).reshape(1, -1)
        raster = encode_pnm(Plane(values), 8)[len(b"P5 600 1 255\n") :]
        assert all(raster[i] <= raster[i + 1] for i in range(len(raster) - 1))


class TestRoundTrip:
    @pytest.mark.parametrize("trial", range(10))
    def test_8bit_raster_exact(self, trial):
        rng = np.random.default_rng(100 + trial)
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        raster = bytes(rng.integers(0, 256, size=h * w, dtype=np.uint8))
        original = b"P5 %d %d 255\n" % (w, h) + raster
        decoded = decode_pnm(original)
        assert encode_pnm(decoded, 8) == original

    @pytest.mark.parametrize("trial", range(5))
    def test_16bit_raster_exact(self, trial):
        rng = np.random.default_rng(200 + trial)
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        words = rng.integers(0, 65536, size=h * w, dtype=np.uint64)
        raster = struct.pack(f">{h * w}H", *words.tolist())
        original = b"P5 %d %d 65535\n" % (w, h) + raster
        assert encode_pnm(decode_pnm(original), 16) == original

    def test_p6_roundtrip(self):
        rng = np.random.default_rng(33)
        raster = bytes(rng.integers(0, 256, size=4 * 3 * 3, dtype=np.uint8))
        original = b"P6 3 4 255\n" + raster
        assert encode_pnm(decode_pnm(original), 8) == original

    def test_quantization_error_bounded(self):
        rng = np.random.default_rng(44)
        plane = Plane(rng.uniform(0, 1, size=(6, 5)))
        decoded = decode_pnm(encode_pnm(plane, 16))
        assert np.max(np.abs(decoded.data - plane.data)) <= 0.5 / 65535


def _whole_frame_encode(image, bit_depth: int) -> bytes:
    """encode_pnm as whole-frame expressions: stack, clip, scale, round, cast."""
    maxval = 255 if bit_depth == 8 else 65535
    if isinstance(image, Plane):
        magic, samples = b"P5", image.data
    else:
        magic, samples = b"P6", np.stack([p.data for p in image.planes], axis=-1)
    quantized = np.floor(np.clip(samples, 0.0, 1.0) * maxval + 0.5)
    header = b"%s %d %d %d\n" % (magic, samples.shape[1], samples.shape[0], maxval)
    return header + quantized.astype(">u2" if bit_depth == 16 else np.uint8).tobytes()


def _whole_frame_decode(raster: bytes, shape, channels: int, maxval: int) -> list:
    """decode_pnm's planes as whole-frame expressions: convert, divide, split, copy."""
    dtype = ">u2" if maxval == 65535 else np.uint8
    samples = np.frombuffer(raster, dtype=dtype).astype(np.float64) / maxval
    rgb = samples.reshape(*shape, channels)
    return [np.array(rgb[:, :, c]) for c in range(channels)]


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _edge_samples(shape, seed: int) -> np.ndarray:
    """Samples below 0, above 1, at -0.0, at 0 and 1, and at exact rounding halves."""
    data = np.random.default_rng(seed).uniform(-0.3, 1.3, size=shape)
    flat = data.reshape(-1)
    flat[0::7], flat[1::11], flat[2::13] = -0.0, 1.0, 0.5 / 255
    flat[3::17], flat[4::19] = 0.5 / 65535, 0.0
    return data


class TestCodecMatchesTheWholeFrameExpressions:
    # With 7-sample tiles, a 5-column frame is walked one row at a time, a
    # 3-column frame two rows at a time with a one-row remainder, and a
    # 130-column one in pieces of 7 and 4 samples.
    @pytest.mark.parametrize("tile", [7, _kernel._STRIP])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (7, 3), (37, 130)])
    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_encode_and_decode_bit_for_bit(self, monkeypatch, tile, shape, bit_depth):
        monkeypatch.setattr(_kernel, "_STRIP", tile)
        planes = [Plane(_edge_samples(shape, seed)) for seed in (40, 41, 42)]
        maxval = 255 if bit_depth == 8 else 65535
        for image, channels in ((planes[0], 1), (RgbImage(*planes), 3)):
            payload = encode_pnm(image, bit_depth)
            assert type(payload) is bytes
            assert payload == _whole_frame_encode(image, bit_depth)
            decoded = decode_pnm(payload)
            got = [decoded.data] if channels == 1 else [p.data for p in decoded.planes]
            raster = payload[payload.index(b"\n") + 1 :]
            for got_plane, want_plane in zip(got, _whole_frame_decode(raster, shape, channels, maxval)):
                assert _same(got_plane, want_plane)
                assert got_plane.flags.c_contiguous and not got_plane.flags.writeable


PLANE_512 = 512 * 512 * 8  # bytes in one 512 x 512 float64 plane


class TestCodecMemory:
    # Whole-frame temporaries peaked at 12 planes (encode) and 7 (decode).
    def test_encode_holds_the_output_twice_and_a_tile(self, peak_bytes):
        rgb = RgbImage(*(Plane(_edge_samples((512, 512), seed)) for seed in (43, 44, 45)))
        # The 16-bit raster and the bytes made from it are 3/4 plane each.
        assert peak_bytes(lambda: encode_pnm(rgb, 16)) < 2 * PLANE_512

    def test_decode_holds_the_three_output_planes(self, peak_bytes):
        payload = encode_pnm(RgbImage(*(Plane(_edge_samples((512, 512), seed)) for seed in (46, 47, 48))), 16)
        assert peak_bytes(lambda: decode_pnm(payload)) < 3.5 * PLANE_512


def _record(**overrides) -> SimpleNamespace:
    base = dict(
        image="img.ppm",
        pattern="gbrg",
        strategy="before",
        denoiser="wavelet(levels=3 sigma_n=auto)",
        demosaicker="bilinear",
        sigma_r=0.05,
        sigma_g=0.05,
        sigma_b=0.05,
        seed=7,
        mse_r=0.001,
        mse_g=0.002,
        mse_b=0.003,
        psnr_r_db=30.0,
        psnr_g_db=26.9897,
        psnr_b_db=25.228787,
        cpsnr_db=20.0,
        wall_ms=1.25,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


class TestFormatFloat:
    def test_six_significant_digits(self):
        assert format_float(20.0) == "20.0000"
        assert format_float(0.05) == "0.0500000"
        assert format_float(26.9897) == "26.9897"
        assert format_float(-3.25) == "-3.25000"

    def test_large_magnitude_has_no_trailing_point(self):
        assert format_float(123456789.0) == "123457000"
        assert format_float(1234567.0) == "1234570"

    def test_infinity_sentinel(self):
        assert format_float(float("inf")) == "inf"

    def test_reparse_preserves_six_digits(self):
        for value in (0.0123456789, 31.4159265, 999999.5, 1e-7):
            rendered = format_float(value)
            assert abs(float(rendered) - value) <= abs(value) * 1e-5 + 1e-300


class TestParseName:
    def test_reads_case_blanks_and_underscores(self):
        assert parse_name("demosaicker", " Joint_Bilateral\n", ("bilinear", "joint-bilateral")) == "joint-bilateral"

    def test_unknown_name_lists_the_names(self):
        with pytest.raises(ValueError) as excinfo:
            parse_name("strategy", "During", ("after", "joint", "before"))
        assert str(excinfo.value) == "unknown strategy 'During'; expected one of after, joint, before"


class TestWriteCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "image,pattern,strategy,denoiser,demosaicker,sigma_r,sigma_g,sigma_b,seed,"
            "mse_r,mse_g,mse_b,psnr_r_db,psnr_g_db,psnr_b_db,cpsnr_db,wall_ms"
        )

    def test_empty_list_gives_header_only(self):
        assert write_csv([]) == (CSV_HEADER + "\n").encode()

    def test_comma_counts_match(self):
        lines = write_csv([_record()]).decode().splitlines()
        assert len(lines) == 2
        assert lines[0].count(",") == lines[1].count(",") == 16

    def test_row_count(self):
        assert len(write_csv([_record(), _record(), _record()]).decode().splitlines()) == 4

    def test_field_rendering(self):
        row = write_csv([_record()]).decode().splitlines()[1].split(",")
        assert row[0] == "img.ppm"
        assert row[5] == "0.0500000"
        assert row[8] == "7"
        assert row[15] == "20.0000"
        assert row[16] == "1.25000"

    def test_infinite_psnr_sentinel(self):
        row = write_csv([_record(psnr_r_db=float("inf"))]).decode().splitlines()[1].split(",")
        assert row[12] == "inf"

    def test_rows_in_input_order(self):
        body = write_csv([_record(image="a"), _record(image="b")]).decode().splitlines()
        assert body[1].startswith("a,") and body[2].startswith("b,")

    def test_separator_in_text_field_rejected(self):
        with pytest.raises(ValueError):
            write_csv([_record(image="a,b")])

    def test_double_quote_in_text_field_rejected(self):
        # Written verbatim, a leading quote makes csv.reader join the cells
        # up to the next quote into one.
        with pytest.raises(ValueError, match="contains a double quote"):
            write_csv([_record(image='"ab.ppm')])


class TestWalk:
    """_kernel._walk, the one thread pool of the program, and its thread count."""

    def test_cpus_is_the_affinity_set_where_the_os_keeps_one(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert _kernel._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _kernel._cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _kernel._cpus() == 1

    def test_threads_are_one_per_cpu_and_per_item_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_cpus", lambda: 8)
        assert [_kernel._threads(items) for items in (0, 1, 3, 10)] == [1, 1, 3, 4]
        monkeypatch.setattr(_kernel, "_threads_max", 1)
        assert _kernel._threads(10) == 1

    def _walk_alone(self, monkeypatch, cpus, small):
        """(items and sets seen, threads that built a set) of a 5-item walk that must start no pool."""
        monkeypatch.setattr(_kernel, "ThreadPoolExecutor", None)
        monkeypatch.setattr(_kernel, "_cpus", lambda: cpus)
        seen, built = [], []
        _kernel._walk(range(5), lambda item, buffers: seen.append((item, buffers, threading.get_ident())), lambda: built.append(threading.get_ident()) or "set", small)
        return seen, built

    def test_one_set_walks_in_order_on_the_calling_thread(self, monkeypatch):
        seen, built = self._walk_alone(monkeypatch, 1, False)
        assert seen == [(item, "set", threading.get_ident()) for item in range(5)]
        assert built == [threading.get_ident()]

    def test_work_below_its_size_rule_walks_on_the_calling_thread(self, monkeypatch):
        assert self._walk_alone(monkeypatch, 4, True) == ([(item, "set", threading.get_ident()) for item in range(5)], [threading.get_ident()])

    @pytest.mark.parametrize("sets", [2, 3, 4])
    def test_no_two_running_items_share_a_set(self, monkeypatch, sets):
        # Up to 4 threads, switching every 10 us.
        running, seen, lock = set(), [], threading.Lock()

        def step(item, buffers):
            with lock:
                assert id(buffers) not in running
                running.add(id(buffers))
            time.sleep(0.0002)
            with lock:
                running.discard(id(buffers))
                seen.append(item)

        # The calling thread builds one set per thread.
        built = []
        monkeypatch.setattr(_kernel, "_cpus", lambda: sets)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _kernel._walk(range(200), step, lambda: built.append(threading.get_ident()) or [])
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(200))
        assert threading.active_count() == before
        assert built == [threading.get_ident()] * sets

    @pytest.mark.parametrize("sets", [1, 2, 3])
    def test_the_first_failing_item_raises_once_the_pool_has_closed(self, monkeypatch, sets):
        done = []

        def step(item, buffers):
            if item in (3, 7):
                raise ValueError(f"item {item}")
            done.append(item)

        monkeypatch.setattr(_kernel, "_cpus", lambda: sets)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^item 3$"):
            _kernel._walk(range(10), step, list)
        assert threading.active_count() == before
        assert {0, 1, 2} <= set(done)
