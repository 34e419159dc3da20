"""The rules that every checked value obeys, and the fields of the method configs.

Rule is the one rule type, CONFIG_FIELDS the one table of method config
fields, which check_method and describe_method read for both method
families. parse_name reads every typed name (a pattern, a strategy, a
method kind) for the library and the CLI alike.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np


def is_int(value) -> bool:
    """True for Python and numpy integers; False for bools and integral floats."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for Python and numpy real numbers, integers among them; False for bools, text and ints or fractions beyond float range."""
    in_range = not isinstance(value, numbers.Rational) or -sys.float_info.max <= value <= sys.float_info.max
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and in_range


@dataclass(frozen=True)
class Rule:
    """The one rule type of every checked value: test(value) says whether it holds, need words it."""

    test: Callable[[Any], bool]
    need: str

    def complaint(self, shown: str) -> str:
        """What is wrong with a value that breaks the rule, given the value's text."""
        return f"must be {self.need}, got {shown}"

    def check(self, name: str, value) -> None:
        """Raise ValueError naming name if value breaks the rule; a numpy scalar shows as its Python value."""
        if not self.test(value):
            shown = value.item() if isinstance(value, np.generic) else value
            raise ValueError(f"{name} {self.complaint(repr(shown))}")


# The largest noise sigma, a thousand times the [0, 1] sample range: every
# square the pipeline takes of a noisy sample or of sigma stays far inside
# float range, so a huge sigma is one ValueError, not an overflow later.
SIGMA_MAX = 1e3
SIGMA = Rule(lambda v: is_real(v) and 0 <= v <= SIGMA_MAX, f"finite, >= 0 and <= {SIGMA_MAX:g}")
# A noise seed starts a SplitMix64 stream, whose state is 64 unsigned bits.
SEED = Rule(lambda v: is_int(v) and 0 <= v < 2**64, "an integer in [0, 2^64)")
# A number of repeats or of workers.
COUNT = Rule(lambda v: is_int(v) and v >= 1, "an integer >= 1")
# A number of noise samples, or a metric crop margin in pixels.
SIZE = Rule(lambda v: is_int(v) and v >= 0, "an integer >= 0")

# The largest spatial sigma, a 601 x 601 window. A bound tied to the frame
# size would reject the default sigma_s on the 1x1 sub-images of a 2x2 mosaic.
SIGMA_S_MAX = 100.0
# The smallest spatial or range sigma: below about 5.27e-155 the 1 / (2 sigma^2)
# in a Gaussian weight's exponent overflows, and no weight exists.
SIGMA_FLOOR = 1e-154
# The largest median radius: the same 601 x 601 window.
RADIUS_MAX = math.ceil(3 * SIGMA_S_MAX)
# The most wavelet levels. Padding a side to a multiple of 2^levels then adds
# fewer than 1,024 rows or columns, so a 2 x 2 plane grows to at most 8 MiB.
LEVELS_MAX = 10


def _number_or_auto(text: str) -> Optional[float]:
    """sigma_n's text form: a number, or 'auto' (any case) for None."""
    if text.strip().lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number or 'auto', got {text!r}") from None


def _show_real(v: float) -> str:
    """float(v) in %g form when that reads back to it, else its repr, which always does."""
    v = float(v)
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


class ConfigField(NamedTuple):
    """A method config field: its text parse, its rule, how describe() shows it, and what it means."""

    parse: Callable[[str], Any]
    rule: Rule
    show: Callable[[Any], str]
    meaning: str


# Each config field a method can read. The CLI builds one flag per field of
# DenoiserConfig and DemosaickerConfig from this table, and each show is
# read back by its parse.
CONFIG_FIELDS = {
    "sigma_s": ConfigField(
        float, Rule(lambda v: is_real(v) and SIGMA_FLOOR <= v <= SIGMA_S_MAX, f"finite, >= {SIGMA_FLOOR:g} and <= {SIGMA_S_MAX:g}"), _show_real,
        "spatial sigma in pixels (gaussian, bilateral, joint-bilateral)",
    ),
    "radius": ConfigField(int, Rule(lambda v: is_int(v) and 1 <= v <= RADIUS_MAX, f"an integer in [1, {RADIUS_MAX}]"), str, "median window radius"),
    "sigma_r": ConfigField(
        float, Rule(lambda v: is_real(v) and v >= SIGMA_FLOOR, f"in float range and >= {SIGMA_FLOOR:g}, or inf"), _show_real, "range sigma (bilateral, joint-bilateral), or inf for spatial weights only"
    ),
    "levels": ConfigField(int, Rule(lambda v: is_int(v) and 1 <= v <= LEVELS_MAX, f"an integer in [1, {LEVELS_MAX}]"), str, "wavelet decomposition levels"),
    "sigma_n": ConfigField(
        _number_or_auto, Rule(lambda v: v is None or SIGMA.test(v), SIGMA.need), lambda v: "auto" if v is None else _show_real(v), "wavelet noise level, or 'auto' to estimate it per plane"
    ),
}


def check_method(config, table: dict, family: str) -> None:
    """Reject an unknown config.kind, or an out-of-range field that kind reads.

    table maps each kind to (implementation, the config fields it reads); the
    denoiser and demosaicker configs share this check and describe_method.
    """
    if config.kind not in table:
        raise ValueError(f"unknown {family} kind {config.kind!r}; expected one of {', '.join(table)}")
    for name in table[config.kind][1]:
        CONFIG_FIELDS[name].rule.check(name, getattr(config, name))


def describe_method(config, table: dict) -> str:
    """Comma-free descriptor kind(field=value ...) over the fields the kind reads."""
    params = " ".join(f"{name}={CONFIG_FIELDS[name].show(getattr(config, name))}" for name in table[config.kind][1])
    return f"{config.kind}({params})" if params else config.kind


def parse_name(family: str, text: str, names: Sequence[str]) -> str:
    """The one of names that text spells, read stripped, in any case and with '_' for '-'."""
    name = text.strip().lower().replace("_", "-")
    if name not in names:
        raise ValueError(f"unknown {family} {text!r}; expected one of {', '.join(names)}")
    return name
