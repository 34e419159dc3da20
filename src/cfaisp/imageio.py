"""Image containers, binary Netpbm codec, and the experiment record and its CSV.

Images are carried as float64 arrays with a nominal [0, 1] sample range.
File exchange uses the binary Netpbm formats only: P5 (grayscale) and
P6 (RGB), at each sample depth of DEPTHS. The encoder walks its tiles with
_kernel._tiles; the typed names and the config rules live in config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Union

import numpy as np

from cfaisp import _kernel
from cfaisp.config import Rule, is_int

# Each sample depth's maxval and raster dtype, read by the encoder and the decoder.
DEPTHS = {8: (255, np.dtype(np.uint8)), 16: (65535, np.dtype(">u2"))}
# An output sample depth: one of DEPTHS.
DEPTH = Rule(lambda v: is_int(v) and v in DEPTHS, " or ".join(map(str, DEPTHS)))

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PnmError(ValueError):
    """A Netpbm byte string that decode_pnm cannot decode.

    The header is malformed, the variant is not binary P5/P6, the maxval is
    none of DEPTHS', or the raster is shorter than the header promises; the
    message says which.
    """


class DimensionError(ValueError):
    """Image geometry does not satisfy an operation's requirements."""


@dataclass(frozen=True)
class Plane:
    """Single-channel image: a 2-D float64 array, nominal range [0, 1].

    The wrapped array is copied on construction and marked read-only, so a
    Plane can be shared freely without aliasing surprises.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _frozen(np.array(self.data, dtype=np.float64)))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Plane":
        """Wrap a float64 array a stage has just built, without the copy.

        The caller must hold no other reference to arr: it becomes read-only
        and belongs to the Plane. arr may be a view of a frame's block, one
        plane of it, which the caller does not write again; the block then
        lives as long as any of its planes. The checks are those of Plane(arr).
        """
        plane = object.__new__(cls)
        object.__setattr__(plane, "data", _frozen(arr))
        return plane


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Check that arr is a non-empty 2-D plane of finite samples; make it read-only."""
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"plane must be 2-D and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("plane samples must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RgbImage:
    """Three same-sized planes in fixed R, G, B order."""

    r: Plane
    g: Plane
    b: Plane

    def __post_init__(self) -> None:
        shapes = {self.r.data.shape, self.g.data.shape, self.b.data.shape}
        if len(shapes) != 1:
            raise DimensionError(f"channel planes differ in shape: {sorted(shapes)}")

    @property
    def planes(self) -> tuple[Plane, Plane, Plane]:
        return (self.r, self.g, self.b)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token, skipping whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        byte = data[pos : pos + 1]
        if byte in _WHITESPACE:
            pos += 1
        elif byte == b"#":
            newline = data.find(b"\n", pos)
            pos = n if newline < 0 else newline + 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise PnmError("header ended before all fields were read")
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, field: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():  # ASCII digits only, on bytes
        raise PnmError(f"{field} field is not a decimal integer: {token!r}")
    return int(token), pos


def decode_pnm(data: bytes) -> Union[Plane, RgbImage]:
    """Decode a binary PGM (P5) or PPM (P6) byte string.

    Samples are scaled to [0, 1] by the declared maxval; 16-bit rasters are
    read big-endian. Returns a Plane for P5 and an RgbImage for P6. The
    raster is read in place; each channel is converted in one call,
    straight into the plane it returns.
    """
    magic, pos = _next_token(data, 0)
    if magic in (b"P1", b"P2", b"P3", b"P4", b"P7"):
        raise PnmError(f"unsupported Netpbm variant {magic.decode('ascii')}; only binary P5/P6 are handled")
    if magic not in (b"P5", b"P6"):
        raise PnmError(f"not a Netpbm file: magic {magic!r}")

    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PnmError(f"dimensions must be positive, got {width}x{height}")
    maxval, pos = _header_int(data, pos, "maxval")
    dtype = dict(DEPTHS.values()).get(maxval)
    if dtype is None:
        raise PnmError(f"maxval {maxval} not supported; expected {' or '.join(str(known) for known, _ in DEPTHS.values())}")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PnmError("raster must follow the maxval after a single whitespace byte")
    pos += 1

    channels = 3 if magic == b"P6" else 1
    need = width * height * channels * dtype.itemsize
    raster = memoryview(data)[pos : pos + need]
    if len(raster) < need:
        raise PnmError(f"raster needs {need} bytes, found {len(raster)}")

    samples = np.frombuffer(raster, dtype=dtype).reshape(height, width, channels)
    planes = [Plane._adopt(np.divide(samples[:, :, c], maxval, out=np.empty((height, width)))) for c in range(channels)]
    return planes[0] if channels == 1 else RgbImage(*planes)


def encode_pnm(image: Union[Plane, RgbImage], bit_depth: int = 8) -> bytes:
    """Encode a Plane as binary PGM or an RgbImage as binary PPM.

    Samples are clamped to [0, 1] and quantized with round-half-away-from-zero;
    16-bit output is big-endian. The raster is quantized in tiles of _STRIP
    samples per channel, each cast straight into place.
    """
    DEPTH.check("bit_depth", bit_depth)
    maxval, out_dtype = DEPTHS[bit_depth]

    if isinstance(image, Plane):
        magic, planes = b"P5", (image.data,)
    elif isinstance(image, RgbImage):
        magic, planes = b"P6", tuple(p.data for p in image.planes)
    else:
        raise TypeError(f"expected Plane or RgbImage, got {type(image).__name__}")
    height, width = planes[0].shape
    raster = np.empty((height, width, len(planes)), dtype=out_dtype)
    buffer = np.empty(min(height * width, _kernel._STRIP) * len(planes))
    for top, left, n, m in _kernel._tiles(height, width, _kernel._STRIP):
        window = slice(top, top + n), slice(left, left + m)
        tile = buffer[: n * m * len(planes)].reshape(n, m, len(planes))
        for c, data in enumerate(planes):
            np.clip(data[window], 0.0, 1.0, out=tile[:, :, c])
        # Round half away from zero: floor(x + 0.5) on the clamped values
        # (np.round would round half to even).
        np.floor(np.add(np.multiply(tile, maxval, out=tile), 0.5, out=tile), out=tile)
        raster[window] = tile

    header = b"%s %d %d %d\n" % (magic, width, height, maxval)
    return b"".join((header, raster.data))


@dataclass(frozen=True)
class ExperimentRecord:
    """One scored pipeline run; its fields, in order, are the CSV columns."""

    image: str
    pattern: str
    strategy: str
    denoiser: str
    demosaicker: str
    sigma_r: float
    sigma_g: float
    sigma_b: float
    seed: int
    mse_r: float
    mse_g: float
    mse_b: float
    psnr_r_db: float
    psnr_g_db: float
    psnr_b_db: float
    cpsnr_db: float
    wall_ms: float


CSV_HEADER = ",".join(field.name for field in fields(ExperimentRecord))


def format_float(value: float) -> str:
    """Render a float with 6 significant digits, no exponent notation."""
    text = np.format_float_positional(value, precision=6, unique=False, fractional=False, trim="k")
    # Magnitudes >= 1e6 come back with a dangling decimal point ("123457.").
    return text[:-1] if text.endswith(".") else text


def check_text(name: str, value: str) -> None:
    """Raise ValueError unless value can be a CSV text cell, written verbatim as ASCII.

    A CSV reader would split a cell at a separator, and would read a cell
    that starts with a double quote as a quoted one.
    """
    if "," in value or "\n" in value or "\r" in value:
        raise ValueError(f"CSV field {name}={value!r} contains a separator")
    if '"' in value:
        raise ValueError(f"CSV field {name}={value!r} contains a double quote")
    if not value.isascii():
        raise ValueError(f"CSV field {name}={value!r} is not ASCII")


def write_csv(records: Iterable[ExperimentRecord]) -> bytes:
    """Serialize experiment records to CSV bytes, one column per ExperimentRecord field.

    Each cell is written as its field's declared type: text verbatim (it
    must pass check_text), an int as an integer and a float with
    format_float, so equal results serialize to identical bytes.
    """
    columns = [(field.name, field.type) for field in fields(ExperimentRecord)]
    lines = [CSV_HEADER]
    for record in records:
        cells = []
        for name, kind in columns:
            value = getattr(record, name)
            if kind == "str":
                check_text(name, value)
                cells.append(value)
            else:
                cells.append(str(int(value)) if kind == "int" else format_float(value))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")
