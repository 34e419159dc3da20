"""The rules that every checked value obeys, and the fields of the method configs.

Rule is the one rule type: check tests a value built in code, read casts
and tests a typed text and quotes a bad one as typed. CONFIG_FIELDS is the
one table of method config fields, which check_method, describe_method and
parse_method read for both method families: describe_method writes a
config's one text form and parse_method reads it back, each field through
its rule's read. parse_name reads every typed name for the library and CLI.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass, fields
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

    def check(self, name: str, value) -> None:
        """Raise ValueError naming name if value breaks the rule; a numpy scalar shows as its Python value."""
        if not self.test(value):
            shown = value.item() if isinstance(value, np.generic) else value
            raise ValueError(f"{name} must be {self.need}, got {shown!r}")

    def read(self, parse: Callable[[str], Any], text: str, name: str = ""):
        """parse(text) if that cast succeeds and its value keeps the rule, else one ValueError quoting text as typed."""
        try:
            value = parse(text)
            if self.test(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"{name + ' ' if name else ''}must be {self.need}, got {text!r}")


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
    return None if text.strip().lower() == "auto" else float(text)


def _show_real(v: float) -> str:
    """float(v) in %g form when that reads back to it, else its repr, which always does."""
    v = float(v)
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


class ConfigField(NamedTuple):
    """A method config field: its text parse, its rule, and how describe() shows it."""

    parse: Callable[[str], Any]
    rule: Rule
    show: Callable[[Any], str]


# Each config field a method can read. Each show is read back by its parse,
# so parse_method reads what describe_method writes.
CONFIG_FIELDS = {
    # The spatial sigma in pixels (gaussian, bilateral, joint-bilateral).
    "sigma_s": ConfigField(float, Rule(lambda v: is_real(v) and SIGMA_FLOOR <= v <= SIGMA_S_MAX, f"finite, >= {SIGMA_FLOOR:g} and <= {SIGMA_S_MAX:g}"), _show_real),
    # The median's window radius.
    "radius": ConfigField(int, Rule(lambda v: is_int(v) and 1 <= v <= RADIUS_MAX, f"an integer in [1, {RADIUS_MAX}]"), str),
    # The range sigma (bilateral, joint-bilateral), or inf for spatial weights only.
    "sigma_r": ConfigField(float, Rule(lambda v: is_real(v) and v >= SIGMA_FLOOR, f"in float range and >= {SIGMA_FLOOR:g}, or inf"), _show_real),
    # The wavelet's decomposition levels.
    "levels": ConfigField(int, Rule(lambda v: is_int(v) and 1 <= v <= LEVELS_MAX, f"an integer in [1, {LEVELS_MAX}]"), str),
    # The wavelet's noise level, or None ('auto') to estimate it per plane.
    "sigma_n": ConfigField(_number_or_auto, Rule(lambda v: v is None or SIGMA.test(v), f"{SIGMA.need}, or auto"), lambda v: "auto" if v is None else _show_real(v)),
}


def _unread(kind: str, reads: Sequence[str], name: str) -> str:
    """The complaint about a field name that kind does not read."""
    return f"{kind} reads {' and '.join(reads) or 'no field'}, not {name!r}"


def check_method(config, table: dict, family: str) -> None:
    """Reject an unknown config.kind, an out-of-range field that kind reads, or one it does not read off its default.

    table maps each kind to (implementation, the config fields it reads); the
    denoiser and demosaicker configs share this check, describe_method and
    parse_method. So a config holds only what describe() writes.
    """
    if config.kind not in table:
        raise ValueError(f"unknown {family} kind {config.kind!r}; expected one of {', '.join(table)}")
    reads = table[config.kind][1]
    for field in fields(config)[1:]:  # every field after kind
        rule, value = CONFIG_FIELDS[field.name].rule, getattr(config, field.name)
        if field.name in reads:
            rule.check(field.name, value)
        elif not (rule.test(value) and value == field.default):
            raise ValueError(_unread(config.kind, reads, field.name))


def describe_method(config, table: dict) -> str:
    """Comma-free descriptor kind(field=value ...) over the fields the kind reads."""
    params = " ".join(f"{name}={CONFIG_FIELDS[name].show(getattr(config, name))}" for name in table[config.kind][1])
    return f"{config.kind}({params})" if params else config.kind


def parse_method(config_type, text: str, table: dict, family: str):
    """The config_type config that text names as describe_method writes it: a kind, then optionally (field=value ...).

    Only fields the kind reads may be given, each once; the others keep their
    defaults, so texts that describe alike parse to equal configs.
    """
    match = re.fullmatch(r"([^()]*)(?:\(([^()]*)\))?", text.strip())
    if match is None:
        raise ValueError(f"malformed {family} {text!r}; expected kind or kind(field=value ...)")
    kind = parse_name(family, match[1], tuple(table))
    values: dict = {}
    for item in (match[2] or "").split():
        name, _, shown = item.partition("=")
        if name not in table[kind][1]:
            raise ValueError(_unread(kind, table[kind][1], name))
        if name in values:
            raise ValueError(f"{name} is given twice in {text!r}")
        values[name] = CONFIG_FIELDS[name].rule.read(CONFIG_FIELDS[name].parse, shown, name)
    return config_type(kind, **values)


def parse_name(family: str, text: str, names: Sequence[str]) -> str:
    """The one of names that text spells, read stripped, in any case and with '_' for '-'."""
    name = text.strip().lower().replace("_", "-")
    if name not in names:
        raise ValueError(f"unknown {family} {text!r}; expected one of {', '.join(names)}")
    return name
