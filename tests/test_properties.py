"""Property tests: every Bayer pattern, every even size from 2x2 to 40x40.

Samples are drawn from [-1, 2], the range a noisy mosaic can reach around
its nominal [0, 1], so the properties cover overshooting inputs too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cfaisp.cfa import CfaPattern, MosaicImage, color_at, decompose, mosaic_from_rgb, recompose
from cfaisp.demosaic import demosaic_bilinear, demosaic_gradient
from cfaisp.imageio import Plane, RgbImage

SAMPLES = st.floats(-1.0, 2.0, allow_nan=False)
EVEN = st.integers(1, 20).map(lambda half: 2 * half)


@st.composite
def _shapes(draw):
    return draw(EVEN), draw(EVEN)


@st.composite
def _mosaics(draw):
    shape = draw(_shapes())
    return MosaicImage(draw(st.sampled_from(tuple(CfaPattern))), Plane(draw(arrays(np.float64, shape, elements=SAMPLES))))


@settings(max_examples=60, deadline=None)
@given(_mosaics())
def test_recompose_inverts_decompose_bit_for_bit(mosaic):
    restored = recompose(decompose(mosaic))
    assert restored.pattern is mosaic.pattern
    assert np.array_equal(restored.plane.data, mosaic.plane.data)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(tuple(CfaPattern)), _shapes(), st.data())
def test_mosaic_keeps_the_channel_color_at_names(pattern, shape, data):
    channels = [data.draw(arrays(np.float64, shape, elements=SAMPLES)) for _ in "RGB"]
    mosaic = mosaic_from_rgb(RgbImage(*(Plane(c) for c in channels)), pattern).plane.data
    for i in range(shape[0]):
        for j in range(shape[1]):
            assert mosaic[i, j] == channels["RGB".index(color_at(pattern, i, j))][i, j]


@settings(max_examples=60, deadline=None)
@given(_mosaics(), st.sampled_from((demosaic_bilinear, demosaic_gradient)))
def test_linear_demosaickers_keep_shape_finiteness_and_measured_sites(mosaic, demosaicker):
    data = mosaic.plane.data
    planes = [plane.data for plane in demosaicker(mosaic).planes]
    for plane in planes:
        assert plane.shape == data.shape
        assert np.all(np.isfinite(plane))
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            assert planes["RGB".index(color_at(mosaic.pattern, i, j))][i, j] == data[i, j]


@settings(max_examples=60, deadline=None)
@given(_mosaics())
def test_bilinear_stays_within_the_mosaic_range(mosaic):
    lo, hi = mosaic.plane.data.min(), mosaic.plane.data.max()
    for plane in demosaic_bilinear(mosaic).planes:
        assert lo <= plane.data.min() and plane.data.max() <= hi
