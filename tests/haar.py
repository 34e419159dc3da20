"""The wavelet's orthonormal Haar transform and its inverse, as the denoiser runs them.

dwt and idwt call denoise's own kernels, _dwt and _idwt, on buffer sets from
_wavelet_buffers, laid out as _wavelet lays them out, so the transform tests
check the code that every wavelet plane runs through.
"""

import numpy as np

from cfaisp import denoise


def dwt(data: np.ndarray, levels: int):
    """(ll, details) of data's levels-level pyramid; details[0] is the finest level's (lh, hl, hh).

    data's sides must be multiples of 2**levels: the denoiser pads to them
    before it transforms.
    """
    subbands, spare, _ = denoise._wavelet_buffers(data.shape, levels)
    denoise._dwt(data, subbands, spare)
    return subbands[-1][0], [tuple(level[1:]) for level in subbands]


def idwt(ll: np.ndarray, details) -> np.ndarray:
    """The samples whose pyramid is ll and details, finest first, as dwt gives them.

    As in _wavelet, each level is written into the next finer level's ll
    buffer and the finest into an output of its own.
    """
    levels = len(details)
    shape = tuple(side << levels for side in ll.shape)
    subbands, lo, hi = denoise._wavelet_buffers(shape, levels)
    return denoise._idwt(ll, details, [np.empty(shape)] + [level[0] for level in subbands[:-1]], lo, hi)
