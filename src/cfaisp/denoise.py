"""Single-plane denoisers and their application to CFA sub-images.

Four filters with one shared contract (Plane in, same-sized Plane out):

- gaussian: separable blur, truncated at three sigmas per side, as one
  vertical and one horizontal pass over each band of the padded plane.
- median: the middle value of each (2 radius + 1)^2 window. Radius 1 sorts
  each column's three samples once per band and takes each window's median
  from its three sorted columns in 18 elementwise min/max calls; larger
  radii partition the windows of one 2-D tile at a time.
- bilateral: edge-preserving blur weighting neighbors by spatial distance
  and intensity difference, walked in bands of up to 2 _STRIP samples that
  compute each neighbour pair's weight once, for both of its samples.
- wavelet: soft thresholding of orthonormal Haar detail coefficients with a
  per-subband data-driven threshold; the coarse approximation is kept as is.

DenoiserConfig.kind picks the filter. Every plane, one through
denoise_plane or a frame's through denoise_subimages, runs through
denoise_planes, which writes the frame's planes into one block. Each kind
has a private kernel that writes one plane's samples into a given plane.
The bilateral kernel's bands (_kernel._bilateral, shared with the joint
demosaicker) run on _kernel._walk's threads. Wavelet planes run on _walk
too, one plane per item: on its threads for planes of at least
_POOLED_SAMPLES samples, on the calling thread with one buffer set below
that. Gaussian and median planes run on the calling thread. The stencil
filters read their neighbours as runs of _kernel._shifted's lattice, and
the wavelet pads with the same np.pad(mode="reflect").
_idwt inverts the pyramid as _dwt lays it out. The fields' rules are
config.CONFIG_FIELDS.

The wavelet threshold for a subband with noise level sigma_n and signal
spread sigma_x = sqrt(max(var - sigma_n^2, 0)) is sigma_n^2 / sigma_x; a
subband with no estimated signal is zeroed outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cfaisp import _kernel
from cfaisp.cfa import SubImages
from cfaisp.config import check_method, describe_method, parse_method
from cfaisp.imageio import DimensionError, Plane

_SQRT2 = math.sqrt(2.0)

# MAD-to-sigma factor for a zero-mean normal: 1 / Phi^-1(3/4).
_MAD_SCALE = 0.6745


@dataclass(frozen=True)
class DenoiserConfig:
    """Denoiser selection plus the parameters the chosen kind reads.

    kind "none" is the identity filter, kept so pipelines can be configured
    with denoising disabled. In a pipeline run it adds no step: with it
    every strategy walks the joint strategy's path, noise then demosaic, so
    before + none and after + none run the same stages. sigma_n=None asks
    the wavelet filter to estimate the noise level from each plane it
    processes.
    """

    kind: str = "wavelet"
    sigma_s: float = 1.0
    radius: int = 1
    sigma_r: float = 0.1
    levels: int = 3
    sigma_n: Optional[float] = None

    def __post_init__(self) -> None:
        check_method(self, _DENOISERS, "denoiser")

    def describe(self) -> str:
        """Compact comma-free descriptor used in CSV output."""
        return describe_method(self, _DENOISERS)

    @classmethod
    def parse(cls, text: str) -> "DenoiserConfig":
        """The config that text names, as describe() writes it; a bare kind takes the defaults."""
        return parse_method(cls, text, _DENOISERS, "denoiser")


def _haar(x: np.ndarray, y: np.ndarray, op, out: np.ndarray) -> np.ndarray:
    """op(x, y) / sqrt(2), one Haar filter tap pair, written into out."""
    out = op(x, y, out=out)
    return np.divide(out, _SQRT2, out=out)


def _wavelet_buffers(shape: tuple, levels: int) -> tuple:
    """The buffers one plane's wavelet denoising writes, for planes of the given shape.

    (each level's [ll, lh, hl, hh], finest first, of the shape padded up to
    multiples of 2**levels; two flat buffers of a finest subband's samples,
    one for the sigma estimate's HH and each subband's temporaries, the other
    for the inverse's hi rows). The pad itself is not among them: _wavelet
    allocates it.
    """
    h, w = (-(-side // 2**levels) * 2**levels for side in shape)
    subbands = [[np.empty((h >> k, w >> k)) for _ in range(4)] for k in range(1, levels + 1)]
    return subbands, np.empty(h * w // 4), np.empty(h * w // 4)


def _prefix(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The first samples of the flat buffer flat, as a C-contiguous array of the given shape."""
    return flat[: shape[0] * shape[1]].reshape(shape)


def _dwt(current: np.ndarray, subbands: list, spare: np.ndarray) -> None:
    """The orthonormal 2-D Haar levels of current, written into subbands as from _wavelet_buffers.

    Each level is [ll, lh, hl, hh], finest first, where the first letter is
    the vertical filter and the second the horizontal one. spare holds a
    temporary. The (a +/- b) / sqrt(2) filter pair preserves energy, so
    _idwt reconstructs to floating-point roundoff.
    """
    for ll, lh, hl, hh in subbands:
        a, b = current[0::2, 0::2], current[0::2, 1::2]
        c, d = current[1::2, 0::2], current[1::2, 1::2]
        # Rows 2i and 2i + 1 of the row pass's lo, then of its hi, each held
        # in a subband whose own value comes once its last reader is done.
        even, odd = _haar(a, b, np.add, out=hl), _haar(c, d, np.add, out=hh)
        _haar(even, odd, np.add, out=ll)
        _haar(even, odd, np.subtract, out=hl)
        even, odd = _haar(a, b, np.subtract, out=hh), _haar(c, d, np.subtract, out=_prefix(spare, ll.shape))
        _haar(even, odd, np.add, out=lh)
        _haar(even, odd, np.subtract, out=hh)
        current = ll


def _idwt(subbands: list, finest: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Invert the pyramid subbands, laid out as _dwt writes it, into finest, which is returned.

    The inverse starts from the coarsest ll. Each level's result is written
    into the next finer level's ll, dead since the forward pass, and the
    finest level's into finest, twice its subbands on each side. lo and hi
    are flat buffers of at least a finest subband's samples.
    """
    current = subbands[-1][0]
    outs = [finest] + [ll for ll, *_ in subbands[:-1]]
    for (_, lh, hl, hh), out in zip(reversed(subbands), reversed(outs)):
        rows, cols = current.shape
        low, high = _prefix(lo, (rows, cols)), _prefix(hi, (rows, cols))
        # Rows 2i, then rows 2i + 1, of the column pass's lo and hi, whose
        # sums and differences fill the output's even and odd columns.
        for row, op in ((0, np.add), (1, np.subtract)):
            _haar(current, hl, op, out=low)
            _haar(lh, hh, op, out=high)
            np.add(low, high, out=out[row::2, 0::2])
            np.subtract(low, high, out=out[row::2, 1::2])
        current = np.divide(out, _SQRT2, out=out)
    return current


def _gaussian_kernel(sigma_s: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma_s)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma_s * sigma_s))
    return kernel / kernel.sum()


def _blur_line(at, kernel: np.ndarray) -> np.ndarray:
    """Sum of kernel[r + j] * at(j) over |j| <= r, for a symmetric odd-length kernel.

    The center tap comes first, then (at(-j) + at(j)) * kernel[r - j] for j
    from r down to 1, the order scipy.ndimage.convolve1d sums a symmetric
    kernel in, so the values equal convolve1d(mode="mirror") bit for bit.
    """
    r = len(kernel) // 2
    out = np.multiply(at(0), kernel[r])
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(at(-j), at(j), out=pair)
        np.add(out, np.multiply(pair, kernel[r - j], out=pair), out=out)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _gaussian(data: np.ndarray, sigma_s: float, out: np.ndarray) -> None:
    """Separable Gaussian blur of data with a renormalized +/- 3 sigma_s kernel, written into out.

    The vertical pass blurs the band's n whole rows of the pad as lattice
    runs from column -r: a padding column is a copy of the column it mirrors,
    so its blur is that column's blur. The horizontal pass then reads those
    rows as flat runs, each 2 r samples shorter. One pad serves both passes.
    """
    kernel = _gaussian_kernel(sigma_s)
    r = len(kernel) // 2
    at = _kernel._shifted(data, r)
    for top, n in at.bands():
        columns = _blur_line(lambda dy: at.run(top + dy, -r, n, 2 * r), kernel)
        rows = _blur_line(lambda dx: columns[r + dx : columns.size - r + dx], kernel)
        out[top : top + n] = at.crop(rows, n)


def _median(data: np.ndarray, radius: int, out: np.ndarray) -> None:
    """Median of each (2 radius + 1)^2 window of the mirror-padded data, written into out.

    Radius 1 sorts the three samples of each column of a band once, into
    runs of column lows, middles and highs from column -1. A window's median
    is then med3(max of its three lows, med3 of its three middles, min of its
    three highs): 18 elementwise calls per band, into five runs this call
    allocates for the largest band, and the last writes the band into out.
    A larger window takes the middle element of a partition over the
    windows of one 2-D tile at a time.
    """
    h, w = data.shape
    at = _kernel._shifted(data, radius)
    if radius == 1:
        most = at.length(max(n for _, n in at.bands())) + 2
        runs = [np.empty(most) for _ in range(5)]
        for top, n in at.bands():
            # The window at sample i reads columns i, i + 1 and i + 2 of a
            # run, which starts one column to the left of the band.
            size = at.length(n)
            low, mid, high, spare, other = (run[: size + 2] for run in runs)
            above, row, below = (at.run(top + dy, -1, n, 2) for dy in (-1, 0, 1))
            np.minimum(above, row, out=spare)
            np.maximum(above, row, out=high)
            np.minimum(high, below, out=mid)
            np.maximum(high, below, out=high)
            np.minimum(spare, mid, out=low)
            np.maximum(spare, mid, out=mid)
            # The largest low, into spare, and the smallest high, into other.
            lows = np.maximum(low[:size], low[1 : size + 1], out=spare[:size])
            np.maximum(lows, low[2:], out=lows)
            highs = np.minimum(high[:size], high[1 : size + 1], out=other[:size])
            np.minimum(highs, high[2:], out=highs)
            # The middle middle, med3(x, y, z) = max(min(x, y), min(max(x, y), z)), into low.
            middle = np.minimum(mid[:size], mid[1 : size + 1], out=low[:size])
            upper = np.maximum(mid[:size], mid[1 : size + 1], out=high[:size])
            np.minimum(upper, mid[2:], out=upper)
            np.maximum(middle, upper, out=middle)
            # med3(lows, middle, highs), its last call writing the band.
            np.minimum(lows, middle, out=upper)
            np.maximum(lows, middle, out=lows)
            np.minimum(lows, highs, out=lows)
            np.maximum(at.crop(upper, n), at.crop(lows, n), out=out[top : top + n])
        return
    side = 2 * radius + 1
    size = side * side
    windows = sliding_window_view(at.flat[0][0].reshape(-1, at.width), (side, side))
    # A tile holds as many samples as 9 x _STRIP, or one window.
    for top, left, n, m in _kernel._tiles(h, w, max(1, 9 * _kernel._STRIP // size)):
        tile = windows[top : top + n, left : left + m].reshape(n, m, size)
        out[top : top + n, left : left + m] = np.partition(tile, size // 2, axis=-1)[..., size // 2]


def _bilateral(data: np.ndarray, sigma_s: float, sigma_r: float, out: np.ndarray) -> None:
    """Bilateral filter of data: Gaussian in space and in intensity difference, written into out.

    Each sample is the weight-normalized mean of its +/- ceil(3 sigma_s)
    window, range-weighted on data itself; the center has weight 1.
    """
    _kernel._bilateral(data, data, sigma_s, sigma_r, out=out[np.newaxis])


def _soft_threshold(band: np.ndarray, threshold: float, magnitude: np.ndarray) -> None:
    """Shrink band toward zero by threshold, in place, with magnitude, band-shaped, as a temporary.

    A band sample of -0.0 gives +0.0, as sign(band) * max(|band| - t, 0) does.
    """
    magnitude = np.abs(band, out=magnitude)
    np.maximum(np.subtract(magnitude, threshold, out=magnitude), 0.0, out=magnitude)
    # + 0.0 turns -0.0 into +0.0 and leaves every other sample as it is.
    np.copysign(magnitude, np.add(band, 0.0, out=band), out=band)


def _variance(band: np.ndarray, spare: np.ndarray) -> float:
    """band.var(), with the deviations written into spare, band-shaped: np.var's sums, in its order."""
    mean = np.add.reduce(band, axis=None, keepdims=True) / band.size
    np.square(np.subtract(band, mean, out=spare), out=spare)
    return float(np.add.reduce(spare, axis=None) / band.size)


def estimate_sigma(plane: Plane) -> float:
    """Robust noise-level estimate from the finest diagonal wavelet band.

    Computes the one-level orthonormal Haar HH coefficients (odd trailing
    row/column cropped first) and returns median(|HH|) / 0.6745, the usual
    median-absolute-deviation estimator. Smooth image structure barely
    reaches HH, so the estimate tracks the noise rather than the content;
    it is zero on a constant plane and on a linear ramp.
    """
    h, w = plane.data.shape
    return _estimate_sigma(plane.data, np.empty((h // 2) * (w // 2)))


@np.errstate(over="ignore", invalid="ignore")
def _estimate_sigma(data: np.ndarray, spare: np.ndarray) -> float:
    """estimate_sigma of the samples data, with HH computed in spare, a flat buffer of at least (h // 2)(w // 2) samples."""
    h, w = data.shape
    if h < 2 or w < 2:
        raise DimensionError(f"sigma estimation needs at least 2x2 samples, got {w}x{h}")
    data = data[: h - (h % 2), : w - (w % 2)]
    hh = np.subtract(data[0::2, 0::2], data[0::2, 1::2], out=spare[: (h // 2) * (w // 2)].reshape(h // 2, w // 2))
    hh -= data[1::2, 0::2]
    hh += data[1::2, 1::2]
    hh /= 2.0
    # One partition places the upper middle value; for an even count the
    # lower one is the largest value below it, and (lo + hi) / 2 is the
    # float np.median gives. Finite samples make HH finite or +-inf, never
    # NaN, so np.median's NaN check would find nothing.
    flat = np.abs(hh, out=hh).reshape(-1)
    middle = flat.size // 2
    flat.partition(middle)
    median = flat[middle] if flat.size % 2 else (flat[:middle].max() + flat[middle]) / 2.0
    return float(median / _MAD_SCALE)


@np.errstate(over="ignore", invalid="ignore")
def _wavelet(data: np.ndarray, levels: int, sigma_n: Optional[float], buffers: tuple, out: np.ndarray) -> bool:
    """Soft-thresholded Haar detail coefficients of data, one threshold per subband, written into out.

    buffers come from _wavelet_buffers. sigma_n=None estimates the noise
    level from data itself. False, with out untouched, where the noise level
    is 0 and the result is data itself. Sides that are not multiples of
    2**levels are mirror-padded at the bottom and right up to the next
    multiples, and the result is cropped back. A subband whose signal spread
    is not positive, or NaN where overflow made inf - inf, is zeroed, as an
    infinite noise level would.
    """
    subbands, spare, other = buffers
    if sigma_n is None:
        # The bound is on the caller's sigma_n: under sigma = SIGMA_MAX noise
        # a plane's own estimate can exceed it.
        sigma_n = _estimate_sigma(data, spare)
    if sigma_n == 0.0:
        return False
    h, w = data.shape
    rows, cols = (2 * side for side in subbands[0][0].shape)
    # The one buffer the caller does not hand in: on a helper thread it lands
    # in that thread's malloc arena, which keeps its peak (after and before
    # runs on a 1004^2 frame: 6-9% more peak RSS than a pad per buffer set;
    # no benchmark plane is padded).
    pad = None if (rows, cols) == (h, w) else np.pad(data, ((0, rows - h), (0, cols - w)), mode="reflect")
    _dwt(data if pad is None else pad, subbands, spare)
    try:
        noise_var = sigma_n**2
    except OverflowError:
        noise_var = math.inf
    for _, *triple in subbands:
        for band in triple:
            temporary = _prefix(spare, band.shape)
            signal_var = _variance(band, temporary) - noise_var
            if signal_var > 0.0:
                _soft_threshold(band, noise_var / math.sqrt(signal_var), temporary)
            else:
                band.fill(0.0)
    # The finest level is written into out, or into the pad to crop.
    _idwt(subbands, out if pad is None else pad, spare, other)
    if pad is not None:
        out[...] = pad[:h, :w]
    return True


# kind -> (the kernel that writes a plane's samples into a given plane, the
# DenoiserConfig fields it takes after the samples). Only denoise_planes
# calls the kernels; the wavelet's also takes a buffer set, and "none" has
# no kernel.
_DENOISERS = {
    "none": (None, ()),
    "gaussian": (_gaussian, ("sigma_s",)),
    "median": (_median, ("radius",)),
    "bilateral": (_bilateral, ("sigma_s", "sigma_r")),
    "wavelet": (_wavelet, ("levels", "sigma_n")),
}
DENOISER_KINDS = tuple(_DENOISERS)


def denoise_plane(plane: Plane, config: DenoiserConfig) -> Plane:
    """Apply the configured denoiser to one plane, a frame of one."""
    return denoise_planes([plane], config)[0]


# The fewest samples of each plane that denoise_planes runs on _walk's
# threads. In one process, three 256^2 planes ran slower on two threads
# than on one, and 512^2 planes faster.
_POOLED_SAMPLES = 8 * _kernel._STRIP


def denoise_planes(planes: Sequence[Plane], config: DenoiserConfig) -> list[Plane]:
    """Apply the configured denoiser to each of planes, the planes of one frame, in order.

    The planes must share one shape; no planes give an empty list, and kind
    "none" the planes themselves. Every other kind writes the frame's
    planes into one (planes, h, w) block allocated here, and each plane it
    returns is a view of that block. Wavelet planes run on _walk, one plane
    per item, with buffers the calling thread allocates: planes of at least
    _POOLED_SAMPLES samples on its threads, smaller ones on the calling
    thread with one buffer set for all. Other kinds run plane by plane on
    the calling thread.
    """
    shapes = dict.fromkeys(plane.data.shape for plane in planes)
    if len(shapes) > 1:
        raise DimensionError(f"the planes of one frame must share one shape, got {', '.join(f'{w}x{h}' for h, w in shapes)}")
    if config.kind == "none" or not planes:
        return list(planes)
    (shape,) = shapes
    outs = np.empty((len(planes), *shape))
    if config.kind != "wavelet":
        kernel, fields = _DENOISERS[config.kind]
        for plane, out in zip(planes, outs):
            kernel(plane.data, *(getattr(config, field) for field in fields), out)
        return [Plane._adopt(out) for out in outs]
    denoised = [False] * len(planes)

    def step(i, buffers):
        denoised[i] = _wavelet(planes[i].data, config.levels, config.sigma_n, buffers, outs[i])

    small = planes[0].data.size < _POOLED_SAMPLES
    _kernel._walk(range(len(planes)), step, lambda: _wavelet_buffers(shape, config.levels), small)
    return [Plane._adopt(out) if done else plane for plane, out, done in zip(planes, outs, denoised)]


def denoise_subimages(subs: SubImages, config: DenoiserConfig) -> SubImages:
    """Denoise the four CFA sub-images independently with one configuration.

    Each half-resolution plane (R, G1, G2, B) is a uniformly sampled image of
    one color class, so denoise_planes filters the four as one frame, without
    modification.
    """
    return SubImages(*denoise_planes(subs.planes, config), pattern=subs.pattern)
