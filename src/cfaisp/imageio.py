"""Image containers, binary Netpbm codec, and CSV serialization.

Images are carried as float64 arrays with a nominal [0, 1] sample range.
File exchange uses the binary Netpbm formats only: P5 (grayscale) and
P6 (RGB), at 8 or 16 bits per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

MAXVAL_BY_DEPTH = {8: 255, 16: 65535}

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PnmError(ValueError):
    """Base class for Netpbm encode/decode failures."""


class PnmHeaderError(PnmError):
    """Header is malformed: bad magic, missing fields, or non-numeric fields."""


class PnmUnsupportedError(PnmError):
    """File is valid Netpbm but not a binary P5/P6 image."""


class PnmMaxvalError(PnmError):
    """Declared maxval is outside the supported {255, 65535} set."""


class PnmTruncatedError(PnmError):
    """Raster holds fewer bytes than the header promises."""


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
        arr = np.array(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"plane must be 2-D and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("plane samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


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
    def height(self) -> int:
        return self.r.height

    @property
    def width(self) -> int:
        return self.r.width

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
        raise PnmHeaderError("header ended before all fields were read")
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, field: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        value = int(token.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise PnmHeaderError(f"{field} field is not a decimal integer: {token!r}") from None
    return value, pos


def decode_pnm(data: bytes) -> Union[Plane, RgbImage]:
    """Decode a binary PGM (P5) or PPM (P6) byte string.

    Samples are scaled to [0, 1] by the declared maxval; 16-bit rasters are
    read big-endian. Returns a Plane for P5 and an RgbImage for P6.
    """
    magic, pos = _next_token(data, 0)
    if magic in (b"P1", b"P2", b"P3", b"P4", b"P7"):
        raise PnmUnsupportedError(f"unsupported Netpbm variant {magic.decode('ascii')}; only binary P5/P6 are handled")
    if magic not in (b"P5", b"P6"):
        raise PnmHeaderError(f"not a Netpbm file: magic {magic!r}")

    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PnmHeaderError(f"dimensions must be positive, got {width}x{height}")
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval not in (255, 65535):
        raise PnmMaxvalError(f"maxval {maxval} not supported; expected 255 or 65535")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PnmHeaderError("raster must follow the maxval after a single whitespace byte")
    pos += 1

    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype(np.uint8)
    need = width * height * channels * dtype.itemsize
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise PnmTruncatedError(f"raster needs {need} bytes, found {len(raster)}")

    samples = np.frombuffer(raster, dtype=dtype).astype(np.float64) / maxval
    if channels == 1:
        return Plane(samples.reshape(height, width))
    rgb = samples.reshape(height, width, 3)
    return RgbImage(Plane(rgb[:, :, 0]), Plane(rgb[:, :, 1]), Plane(rgb[:, :, 2]))


def _quantize(values: np.ndarray, maxval: int) -> np.ndarray:
    # Clamp, then round half away from zero (plain floor(x + 0.5) on the
    # non-negative clamped values; np.round would round half to even).
    scaled = np.clip(values, 0.0, 1.0) * maxval
    return np.floor(scaled + 0.5)


def encode_pnm(image: Union[Plane, RgbImage], bit_depth: int = 8) -> bytes:
    """Encode a Plane as binary PGM or an RgbImage as binary PPM.

    Samples are clamped to [0, 1] and quantized with round-half-away-from-zero;
    16-bit output is big-endian.
    """
    if bit_depth not in MAXVAL_BY_DEPTH:
        raise ValueError(f"bit_depth must be 8 or 16, got {bit_depth}")
    maxval = MAXVAL_BY_DEPTH[bit_depth]
    out_dtype = np.dtype(">u2") if bit_depth == 16 else np.dtype(np.uint8)

    if isinstance(image, Plane):
        magic = b"P5"
        samples = _quantize(image.data, maxval)
        height, width = image.data.shape
    elif isinstance(image, RgbImage):
        magic = b"P6"
        stacked = np.stack([p.data for p in image.planes], axis=-1)
        samples = _quantize(stacked, maxval)
        height, width = image.r.data.shape
    else:
        raise TypeError(f"expected Plane or RgbImage, got {type(image).__name__}")

    header = b"%s %d %d %d\n" % (magic, width, height, maxval)
    return header + samples.astype(out_dtype).tobytes()


CSV_HEADER = (
    "image,pattern,strategy,denoiser,demosaicker,sigma_r,sigma_g,sigma_b,seed,"
    "mse_r,mse_g,mse_b,psnr_r_db,psnr_g_db,psnr_b_db,cpsnr_db,wall_ms"
)

def format_float(value: float) -> str:
    """Render a float with 6 significant digits, no exponent notation."""
    if np.isinf(value):
        return "inf" if value > 0 else "-inf"
    text = np.format_float_positional(value, precision=6, unique=False, fractional=False, trim="k")
    # Magnitudes >= 1e6 come back with a dangling decimal point ("123457.").
    return text[:-1] if text.endswith(".") else text


def write_csv(records: Iterable) -> bytes:
    """Serialize experiment records to CSV bytes, one column per CSV_HEADER name.

    Text values are written verbatim and must not contain separators; the
    seed is written as an integer and every other value with format_float,
    so equal results serialize to identical bytes.
    """
    names = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for record in records:
        cells = []
        for name in names:
            value = getattr(record, name)
            if isinstance(value, str):
                if "," in value or "\n" in value or "\r" in value:
                    raise ValueError(f"CSV field {name}={value!r} contains a separator")
                cells.append(value)
            else:
                cells.append(str(int(value)) if name == "seed" else format_float(value))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")
