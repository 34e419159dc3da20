"""CFA geometry tests: pattern layout, mosaicking, and the sub-image split."""

import numpy as np
import pytest
from oracles import color_at

from cfaisp.cfa import CfaPattern, MosaicImage, SubImages, decompose, mosaic_from_rgb, recompose
from cfaisp.imageio import DimensionError, Plane, RgbImage

ALL_PATTERNS = tuple(CfaPattern)


def _random_rgb(rng, h, w):
    return RgbImage(Plane(rng.random((h, w))), Plane(rng.random((h, w))), Plane(rng.random((h, w))))


def _random_mosaic(rng, pattern, h, w):
    return MosaicImage(pattern, Plane(rng.random((h, w))))


class TestCfaPattern:
    def test_parse_case_insensitive(self):
        assert CfaPattern.parse("GbRg") is CfaPattern.GBRG
        assert CfaPattern.parse(" rggb ") is CfaPattern.RGGB

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="gbrg"):
            CfaPattern.parse("xtrans")

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_tile_census(self, pattern):
        assert [color for _, _, color in pattern.sites] == ["R", "G", "G", "B"]
        for dy, dx, color in pattern.sites:
            assert color_at(pattern, dy, dx) == color

    def test_gbrg_offsets(self):
        assert CfaPattern.GBRG.sites == ((1, 0, "R"), (0, 0, "G"), (1, 1, "G"), (0, 1, "B"))

    def test_rggb_offsets(self):
        assert CfaPattern.RGGB.sites == ((0, 0, "R"), (0, 1, "G"), (1, 0, "G"), (1, 1, "B"))

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_g1_in_top_tile_row(self, pattern):
        _, g1, g2, _ = pattern.sites
        assert (g1[0], g2[0]) == (0, 1)

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_offsets_cover_tile(self, pattern):
        offsets = {(dy, dx) for dy, dx, _ in pattern.sites}
        assert offsets == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestColorAt:
    def test_gbrg_tile_reading(self):
        assert color_at(CfaPattern.GBRG, 0, 0) == "G"
        assert color_at(CfaPattern.GBRG, 0, 1) == "B"
        assert color_at(CfaPattern.GBRG, 1, 0) == "R"
        assert color_at(CfaPattern.GBRG, 1, 1) == "G"

    def test_rggb_origin(self):
        assert color_at(CfaPattern.RGGB, 0, 0) == "R"

    def test_periodicity(self):
        for row in range(6):
            for col in range(6):
                assert color_at(CfaPattern.BGGR, row, col) == color_at(CfaPattern.BGGR, row % 2, col % 2)

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_census_8x8(self, pattern):
        counts = {"R": 0, "G": 0, "B": 0}
        for row in range(8):
            for col in range(8):
                counts[color_at(pattern, row, col)] += 1
        assert counts == {"R": 16, "G": 32, "B": 16}


class TestMosaicFromRgb:
    def test_constant_gray(self):
        rgb = RgbImage(Plane(np.full((4, 4), 0.5)), Plane(np.full((4, 4), 0.5)), Plane(np.full((4, 4), 0.5)))
        mosaic = mosaic_from_rgb(rgb, CfaPattern.GBRG)
        assert np.all(mosaic.plane.data == 0.5)

    def test_pure_red_lands_on_r_sites(self):
        rgb = RgbImage(Plane(np.ones((4, 4))), Plane(np.zeros((4, 4))), Plane(np.zeros((4, 4))))
        mosaic = mosaic_from_rgb(rgb, CfaPattern.GBRG)
        for row in range(4):
            for col in range(4):
                expected = 1.0 if color_at(CfaPattern.GBRG, row, col) == "R" else 0.0
                assert mosaic.plane.data[row, col] == expected

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_matches_color_at_selection(self, pattern):
        rng = np.random.default_rng(11)
        rgb = _random_rgb(rng, 4, 4)
        mosaic = mosaic_from_rgb(rgb, pattern)
        channel = {"R": rgb.r.data, "G": rgb.g.data, "B": rgb.b.data}
        for row in range(4):
            for col in range(4):
                assert mosaic.plane.data[row, col] == channel[color_at(pattern, row, col)][row, col]

    def test_odd_dimensions_rejected(self):
        rgb = RgbImage(Plane(np.zeros((3, 4))), Plane(np.zeros((3, 4))), Plane(np.zeros((3, 4))))
        with pytest.raises(DimensionError, match="even dimensions"):
            mosaic_from_rgb(rgb, CfaPattern.GBRG)

    def test_sample_volume_is_one_third(self):
        rng = np.random.default_rng(12)
        rgb = _random_rgb(rng, 6, 8)
        mosaic = mosaic_from_rgb(rgb, CfaPattern.RGGB)
        total_rgb_samples = sum(p.data.size for p in rgb.planes)
        assert mosaic.plane.data.size * 3 == total_rgb_samples


class TestMosaicImage:
    def test_odd_dimensions_rejected(self):
        with pytest.raises(DimensionError, match="even dimensions"):
            MosaicImage(CfaPattern.GBRG, Plane(np.zeros((4, 5))))


class TestDecompose:
    def test_single_tile_gbrg(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.array([[0.1, 0.2], [0.3, 0.4]])))
        subs = decompose(mosaic)
        assert subs.g1.data.tolist() == [[0.1]]
        assert subs.b.data.tolist() == [[0.2]]
        assert subs.r.data.tolist() == [[0.3]]
        assert subs.g2.data.tolist() == [[0.4]]

    def test_8x8_yields_4x4_planes(self):
        rng = np.random.default_rng(21)
        subs = decompose(_random_mosaic(rng, CfaPattern.GRBG, 8, 8))
        for plane in subs.planes:
            assert plane.data.shape == (4, 4)

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_sample_multiset_preserved(self, pattern):
        rng = np.random.default_rng(22)
        mosaic = _random_mosaic(rng, pattern, 6, 10)
        subs = decompose(mosaic)
        gathered = np.concatenate([p.data.ravel() for p in subs.planes])
        assert np.array_equal(np.sort(gathered), np.sort(mosaic.plane.data.ravel()))

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_slices_match_offsets(self, pattern):
        rng = np.random.default_rng(23)
        mosaic = _random_mosaic(rng, pattern, 6, 6)
        subs = decompose(mosaic)
        data = mosaic.plane.data
        for sub, (dy, dx, _) in zip(subs.planes, pattern.sites):
            assert np.array_equal(sub.data, data[dy::2, dx::2])


class TestRecompose:
    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_roundtrip_bit_exact(self, pattern):
        rng = np.random.default_rng(31)
        for _ in range(25):
            h, w = 2 * int(rng.integers(1, 17)), 2 * int(rng.integers(1, 17))
            mosaic = _random_mosaic(rng, pattern, h, w)
            restored = recompose(decompose(mosaic))
            assert restored.pattern is pattern
            assert np.array_equal(restored.plane.data, mosaic.plane.data)

    def test_zeroed_b_plane_edits_only_b_sites(self):
        rng = np.random.default_rng(32)
        mosaic = _random_mosaic(rng, CfaPattern.RGGB, 6, 6)
        subs = decompose(mosaic)
        edited = SubImages(
            r=subs.r,
            g1=subs.g1,
            g2=subs.g2,
            b=Plane(np.zeros_like(subs.b.data)),
            pattern=subs.pattern,
        )
        restored = recompose(edited)
        for row in range(6):
            for col in range(6):
                if color_at(CfaPattern.RGGB, row, col) == "B":
                    assert restored.plane.data[row, col] == 0.0
                else:
                    assert restored.plane.data[row, col] == mosaic.plane.data[row, col]

    def test_constant_subplanes_histogram(self):
        size = 8
        half = size // 2
        subs = SubImages(
            r=Plane(np.full((half, half), 0.1)),
            g1=Plane(np.full((half, half), 0.2)),
            g2=Plane(np.full((half, half), 0.2)),
            b=Plane(np.full((half, half), 0.3)),
            pattern=CfaPattern.GBRG,
        )
        values, counts = np.unique(recompose(subs).plane.data, return_counts=True)
        total = size * size
        assert values.tolist() == [0.1, 0.2, 0.3]
        assert counts.tolist() == [total // 4, total // 2, total // 4]

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_size_comes_from_the_planes(self, pattern):
        # A 3x5 plane recomposes to a 6x10 mosaic: the frame is twice the
        # planes' shape, with no size stored beside them.
        planes = [Plane(np.full((3, 5), value)) for value in (0.1, 0.2, 0.3, 0.4)]
        mosaic = recompose(SubImages(*planes, pattern=pattern))
        assert mosaic.plane.data.shape == (6, 10)
        for (dy, dx, _), value in zip(pattern.sites, (0.1, 0.2, 0.3, 0.4)):
            assert np.all(mosaic.plane.data[dy::2, dx::2] == value)


class TestSubImagesValidation:
    def test_wrong_subplane_shape(self):
        with pytest.raises(DimensionError):
            SubImages(
                r=Plane(np.zeros((2, 2))),
                g1=Plane(np.zeros((2, 2))),
                g2=Plane(np.zeros((2, 2))),
                b=Plane(np.zeros((2, 3))),
                pattern=CfaPattern.GBRG,
            )
