"""Property tests: every Bayer pattern, every even size from 2x2 to 40x40.

Samples are drawn from [-1, 2], the range a noisy mosaic can reach around
its nominal [0, 1], so the properties cover overshooting inputs too. The
joint-bilateral filter gets sizes up to 16x16 and range kernels down to
sigma_r = 1e-3, where every range weight of many samples underflows.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import color_at

from cfaisp import demosaic, denoise
from cfaisp.cfa import CfaPattern, MosaicImage, decompose, mosaic_from_rgb, recompose
from cfaisp.config import COUNT, LEVELS_MAX, RADIUS_MAX, SEED, SIGMA, SIGMA_FLOOR, SIGMA_MAX, SIGMA_S_MAX
from cfaisp.demosaic import JOINT_SIGMA_S, DemosaickerConfig, demosaic_bilinear, demosaic_gradient, demosaic_joint_bilateral
from cfaisp.denoise import DENOISER_KINDS, DenoiserConfig, denoise_plane
from cfaisp.imageio import DEPTH, Plane, RgbImage

SAMPLES = st.floats(-1.0, 2.0, allow_nan=False)
EVEN = st.integers(1, 20).map(lambda half: 2 * half)


@st.composite
def _shapes(draw):
    return draw(EVEN), draw(EVEN)


@st.composite
def _mosaics(draw, sizes=EVEN, samples=SAMPLES, fill=None):
    shape = draw(sizes), draw(sizes)
    data = draw(arrays(np.float64, shape, elements=samples, fill=fill))
    return MosaicImage(draw(st.sampled_from(tuple(CfaPattern))), Plane(data))


JOINT_SIZES = st.integers(1, 8).map(lambda half: 2 * half)
SIGMA_S = st.floats(0.3, 2.0)
# Log-uniform down to 1e-3, where every range weight of many samples underflows.
SIGMA_R = st.floats(-3.0, 0.0).map(lambda exponent: 10.0**exponent)


# Each denoiser field's values, kept small enough for a fast example.
DENOISER_VALUES = {"sigma_s": SIGMA_S, "radius": st.integers(1, 3), "sigma_r": SIGMA_R, "levels": st.integers(1, 3), "sigma_n": st.none() | st.floats(0.0, 0.5)}


@st.composite
def _denoiser_inputs(draw):
    kind = draw(st.sampled_from(DENOISER_KINDS))
    # A config holds only the fields its kind reads.
    config = DenoiserConfig(kind, **{name: draw(DENOISER_VALUES[name]) for name in denoise._DENOISERS[kind][1]})
    # The wavelet needs both sides divisible by 2**levels.
    unit = 2**config.levels if kind == "wavelet" else 1
    shape = draw(st.integers(1, 24 // unit)) * unit, draw(st.integers(1, 24 // unit)) * unit
    return config, Plane(draw(arrays(np.float64, shape, elements=SAMPLES)))


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


@settings(max_examples=60, deadline=None)
@given(_denoiser_inputs())
def test_every_denoiser_keeps_shape_and_finiteness(inputs):
    config, plane = inputs
    out = denoise_plane(plane, config).data
    assert out.shape == plane.data.shape
    assert np.all(np.isfinite(out))


@settings(max_examples=40, deadline=None)
@given(_mosaics(sizes=JOINT_SIZES), SIGMA_S, SIGMA_R)
def test_joint_bilateral_keeps_shape_and_finiteness(mosaic, sigma_s, sigma_r):
    for plane in demosaic_joint_bilateral(mosaic, sigma_s, sigma_r).planes:
        assert plane.data.shape == mosaic.plane.data.shape
        assert np.all(np.isfinite(plane.data))


@settings(max_examples=40, deadline=None)
@given(_mosaics(sizes=JOINT_SIZES, samples=st.floats(0.1, 1.0), fill=st.nothing()), SIGMA_S, SIGMA_R)
def test_joint_bilateral_stays_within_the_mosaic_range(mosaic, sigma_s, sigma_r):
    # Strictly positive samples, so a sample wrongly set to 0 is out of range.
    # The slack covers rounding in a weighted mean of equal samples.
    lo, hi = mosaic.plane.data.min(), mosaic.plane.data.max()
    for plane in demosaic_joint_bilateral(mosaic, sigma_s, sigma_r).planes:
        assert lo - 1e-12 <= plane.data.min() and plane.data.max() <= hi + 1e-12


# Each config field's values under its CONFIG_FIELDS rule; sigma_r may be
# inf and sigma_n None, which describe() writes as auto.
FIELD_VALUES = {
    "sigma_s": st.floats(SIGMA_FLOOR, SIGMA_S_MAX),
    "radius": st.integers(1, RADIUS_MAX),
    "sigma_r": st.floats(min_value=SIGMA_FLOOR),
    "levels": st.integers(1, LEVELS_MAX),
    "sigma_n": st.none() | st.floats(0.0, SIGMA_MAX),
}
# Each method family's config and the fields each of its kinds reads.
READS = {DenoiserConfig: denoise._DENOISERS, DemosaickerConfig: demosaic._DEMOSAICKERS}


@st.composite
def _configs(draw):
    config = draw(st.sampled_from(tuple(READS)))
    kind = draw(st.sampled_from(tuple(READS[config])))
    values = {name: draw(FIELD_VALUES[name]) for name in READS[config][kind][1]}
    assume(kind != "joint-bilateral" or JOINT_SIGMA_S.test(values["sigma_s"]))
    return config(kind, **values)


@settings(max_examples=300, deadline=None)
@given(_configs())
@example(DenoiserConfig(kind="bilateral", sigma_r=math.inf))
@example(DemosaickerConfig(kind="joint-bilateral", sigma_r=math.inf))
@example(DenoiserConfig(kind="wavelet", sigma_n=None))
def test_parse_reads_back_what_describe_writes(config):
    # A config holds only the fields its kind reads, so describe() writes all of it.
    assert type(config).parse(config.describe()) == config


# Each rule that a typed number is read by, with its cast.
READERS = [(SIGMA, float), (SEED, int), (COUNT, int), (DEPTH, int)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(READERS), st.text() | st.from_regex(r"\s*[-+]?(\d+|\d*\.\d+)(e[-+]?\d+)?\s*", fullmatch=True) | st.sampled_from(["inf", "nan", "8", "16"]))
def test_read_keeps_the_rule_or_quotes_the_text(reader, text):
    rule, cast = reader
    try:
        value = rule.read(cast, text)
    except ValueError as error:
        assert str(error) == f"must be {rule.need}, got {text!r}"
    else:
        assert rule.test(value)
