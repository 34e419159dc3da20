"""Oracles the test modules share: a photosite's color, a mirror index and bit-for-bit equality.

Each is written independently of the code it checks: color_at reads the
pattern's name rather than CfaPattern.sites, and reflect indexes the mirror
one sample at a time rather than through np.pad.
"""

import numpy as np


def color_at(pattern, row: int, col: int) -> str:
    """Color class ('R', 'G', or 'B') that pattern samples at photosite (row, col), read from its name."""
    return pattern.name[2 * (row % 2) + col % 2]


def reflect(i: int, n: int) -> int:
    """Mirror index without edge duplication (period 2n-2)."""
    if n == 1:
        return 0
    period = 2 * n - 2
    i %= period
    return i if i < n else period - i


def same(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shapes, equal values and equal sign bits, so -0.0 differs from +0.0."""
    return got.shape == want.shape and np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
