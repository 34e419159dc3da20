"""Command-line entry point: one subcommand per pipeline stage plus the sweep.

Exit codes: 0 on success, 1 for usage errors, 2 for I/O or processing
errors. Diagnostics are single lines on stderr. All outputs are pure
functions of the arguments and input bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from cfaisp.cfa import CfaPattern, MosaicImage, decompose, mosaic_from_rgb
from cfaisp.demosaic import DEMOSAICKER_KINDS, DemosaickerConfig, demosaic
from cfaisp.denoise import DENOISER_KINDS, SIGMA_S_MAX, DenoiserConfig, denoise_plane
from cfaisp.imageio import DimensionError, Plane, PnmError, RgbImage, decode_pnm, encode_pnm, write_csv
from cfaisp.noise import SIGMA_RANGE, NoiseSpec, add_awgn, sigma_in_range
from cfaisp.pipeline import ExperimentGrid, Strategy, run_experiment, run_pipeline


class UsageError(Exception):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _parsed(parse):
    """argparse type from a parse function whose ValueError names the bad text."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _kind(family: str, kinds: tuple[str, ...]):
    """argparse type for a method kind; case and '_' for '-' are forgiven."""

    def convert(text: str) -> str:
        kind = text.strip().lower().replace("_", "-")
        if kind not in kinds:
            raise argparse.ArgumentTypeError(f"unknown {family} {text!r}; expected one of {kinds}")
        return kind

    return convert


def _checked(cast, test, need: str):
    """argparse type: cast the text, then reject values outside the range test."""

    def convert(text: str):
        value = cast(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    convert.__name__ = cast.__name__  # argparse says "invalid int value" when cast fails
    return convert


_count = _checked(int, lambda v: v >= 1, ">= 1")
_seed = _checked(int, lambda v: 0 <= v < 2**64, "in [0, 2^64)")
_sigma = _checked(float, sigma_in_range, SIGMA_RANGE)
_scale = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_spatial = _checked(float, lambda v: math.isfinite(v) and 0 < v <= SIGMA_S_MAX, f"finite, > 0 and <= {SIGMA_S_MAX:g}")


def _sigma_n_type(text: str) -> Optional[float]:
    if text.strip().lower() == "auto":
        return None
    try:
        return _sigma(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


def _add_pattern_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pattern",
        type=_parsed(CfaPattern.parse),
        default=CfaPattern.GBRG,
        help="Bayer pattern: rggb, grbg, gbrg, or bggr (case-insensitive; default gbrg)",
    )


def _add_depth_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", type=int, choices=(8, 16), default=8, help="output bits per sample (default 8)")


def _add_sigma_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=_sigma, default=0.05, help="noise sigma for all color classes (default 0.05)")
    parser.add_argument("--sigma-r", type=_sigma, default=None, help="override sigma for red sites")
    parser.add_argument("--sigma-g", type=_sigma, default=None, help="override sigma for green sites")
    parser.add_argument("--sigma-b", type=_sigma, default=None, help="override sigma for blue sites")
    parser.add_argument("--seed", type=_seed, default=0, help="64-bit noise seed (default 0)")


def _add_denoiser_flags(parser: argparse.ArgumentParser, plural: bool = False) -> None:
    if plural:
        parser.add_argument(
            "--denoisers",
            type=_kind("denoiser", DENOISER_KINDS),
            nargs="+",
            default=["wavelet"],
            help="denoiser kinds to sweep (default: wavelet)",
        )
    else:
        parser.add_argument("--denoiser", type=_kind("denoiser", DENOISER_KINDS), default="wavelet", help="denoiser kind (default wavelet)")
    parser.add_argument("--dn-sigma-s", type=_spatial, default=1.0, help="gaussian/bilateral spatial sigma in pixels (default 1.0)")
    parser.add_argument("--dn-radius", type=_count, default=1, help="median window radius (default 1)")
    parser.add_argument("--dn-sigma-r", type=_scale, default=0.1, help="bilateral range sigma (default 0.1)")
    parser.add_argument("--dn-levels", type=_count, default=3, help="wavelet decomposition levels (default 3)")
    parser.add_argument(
        "--dn-sigma-n",
        type=_sigma_n_type,
        default=None,
        help="wavelet noise level, or 'auto' to estimate per plane (default auto)",
    )


def _add_demosaicker_flags(parser: argparse.ArgumentParser, plural: bool = False) -> None:
    if plural:
        parser.add_argument(
            "--demosaickers",
            type=_kind("demosaicker", DEMOSAICKER_KINDS),
            nargs="+",
            default=None,
            help="non-joint demosaickers to sweep (default: bilinear)",
        )
    else:
        parser.add_argument(
            "--demosaicker",
            type=_kind("demosaicker", DEMOSAICKER_KINDS),
            default=None,
            help="bilinear, gradient, or joint-bilateral (default: bilinear; joint strategy always uses joint-bilateral)",
        )
    parser.add_argument("--jb-sigma-s", type=_spatial, default=1.5, help="joint-bilateral spatial sigma in pixels (default 1.5)")
    parser.add_argument("--jb-sigma-r", type=_scale, default=0.1, help="joint-bilateral range sigma (default 0.1)")


def _denoiser_config(args: argparse.Namespace, kind: Optional[str] = None) -> DenoiserConfig:
    return DenoiserConfig(
        kind=kind if kind is not None else args.denoiser,
        sigma_s=args.dn_sigma_s,
        radius=args.dn_radius,
        sigma_r=args.dn_sigma_r,
        levels=args.dn_levels,
        sigma_n=args.dn_sigma_n,
    )


def _joint_config(args: argparse.Namespace) -> DemosaickerConfig:
    return DemosaickerConfig(kind="joint-bilateral", sigma_s=args.jb_sigma_s, sigma_r=args.jb_sigma_r)


def _demosaicker_config(args: argparse.Namespace, kind: str) -> DemosaickerConfig:
    if kind == "joint-bilateral":
        return _joint_config(args)
    return DemosaickerConfig(kind=kind)


def _noise_spec(args: argparse.Namespace) -> NoiseSpec:
    base = args.sigma
    return NoiseSpec(
        sigma_r=base if args.sigma_r is None else args.sigma_r,
        sigma_g=base if args.sigma_g is None else args.sigma_g,
        sigma_b=base if args.sigma_b is None else args.sigma_b,
        seed=args.seed,
    )


def _read_pnm(path: str):
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return decode_pnm(data)
    except PnmError as exc:
        raise PnmError(f"{path}: {exc}") from None


def _read_rgb(path: str) -> RgbImage:
    image = _read_pnm(path)
    if not isinstance(image, RgbImage):
        raise PnmError(f"{path}: expected a 3-channel PPM (P6), found a grayscale PGM")
    return image


def _read_plane(path: str) -> Plane:
    image = _read_pnm(path)
    if not isinstance(image, Plane):
        raise PnmError(f"{path}: expected a grayscale PGM (P5), found a 3-channel PPM")
    return image


def _write_pnm(path: str, image, depth: int) -> None:
    payload = encode_pnm(image, bit_depth=depth)
    try:
        with open(path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_mosaic(args: argparse.Namespace) -> int:
    rgb = _read_rgb(getattr(args, "in"))
    mosaic = mosaic_from_rgb(rgb, args.pattern)
    _write_pnm(args.out, mosaic.plane, args.depth)
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    plane = _read_plane(getattr(args, "in"))
    mosaic = MosaicImage(args.pattern, plane)
    noisy = add_awgn(mosaic, _noise_spec(args))
    _write_pnm(args.out, noisy.plane, args.depth)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    plane = _read_plane(getattr(args, "in"))
    subs = decompose(MosaicImage(args.pattern, plane))
    for name, sub in (("r", subs.r), ("g1", subs.g1), ("g2", subs.g2), ("b", subs.b)):
        _write_pnm(f"{args.out_prefix}.{name}.pgm", sub, args.depth)
    return 0


def _cmd_denoise(args: argparse.Namespace) -> int:
    plane = _read_plane(getattr(args, "in"))
    result = denoise_plane(plane, _denoiser_config(args))
    _write_pnm(args.out, result, args.depth)
    return 0


def _cmd_demosaic(args: argparse.Namespace) -> int:
    plane = _read_plane(getattr(args, "in"))
    kind = args.demosaicker if args.demosaicker is not None else "bilinear"
    rgb = demosaic(MosaicImage(args.pattern, plane), _demosaicker_config(args, kind))
    _write_pnm(args.out, rgb, args.depth)
    return 0


def _resolve_single_demosaicker(args: argparse.Namespace, strategy: Strategy) -> DemosaickerConfig:
    if strategy is Strategy.JOINT:
        if args.demosaicker not in (None, "joint-bilateral"):
            raise UsageError(f"strategy joint uses the joint-bilateral demosaicker, not {args.demosaicker!r}")
        return _joint_config(args)
    kind = args.demosaicker if args.demosaicker is not None else "bilinear"
    if kind == "joint-bilateral":
        raise UsageError(f"demosaicker joint-bilateral requires --strategy joint, not {strategy.value!r}")
    return _demosaicker_config(args, kind)


def _cmd_pipeline(args: argparse.Namespace) -> int:
    path = getattr(args, "in")
    truth = _read_rgb(path)
    dm = _resolve_single_demosaicker(args, args.strategy)
    result, record = run_pipeline(
        truth,
        args.pattern,
        _noise_spec(args),
        args.strategy,
        _denoiser_config(args),
        dm,
        image_id=os.path.basename(path),
    )
    if args.out:
        _write_pnm(args.out, result, args.depth)
    sys.stdout.buffer.write(write_csv([record]))
    sys.stdout.flush()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    corpus = [(os.path.basename(path), _read_rgb(path)) for path in args.inputs]
    demosaicker_kinds = args.demosaickers if args.demosaickers is not None else ["bilinear"]
    if "joint-bilateral" in demosaicker_kinds:
        raise UsageError("--demosaickers entries must be non-joint; strategy joint runs joint-bilateral automatically")
    grid = ExperimentGrid(
        strategies=tuple(args.strategies),
        sigmas=tuple(args.sigmas),
        denoisers=tuple(_denoiser_config(args, kind) for kind in args.denoisers),
        demosaickers=tuple(_demosaicker_config(args, kind) for kind in demosaicker_kinds),
        joint_demosaicker=_joint_config(args),
        repeats=args.repeats,
        pattern=args.pattern,
    )
    records = run_experiment(corpus, grid, master_seed=args.seed, jobs=args.jobs, keep_timing=args.timing)
    payload = write_csv(records)
    if args.out:
        try:
            with open(args.out, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            raise OSError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="cfaisp", description="Bayer CFA pipeline simulator: mosaic, noise, denoise, demosaic, compare.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    mosaic_cmd = commands.add_parser("mosaic", help="sample an RGB image through a Bayer CFA")
    mosaic_cmd.add_argument("--in", required=True, help="input PPM (P6)")
    mosaic_cmd.add_argument("--out", required=True, help="output PGM (P5)")
    _add_pattern_flag(mosaic_cmd)
    _add_depth_flag(mosaic_cmd)
    mosaic_cmd.set_defaults(handler=_cmd_mosaic)

    noise_cmd = commands.add_parser("noise", help="add seeded per-color-class Gaussian noise to a mosaic")
    noise_cmd.add_argument("--in", required=True, help="input PGM mosaic")
    noise_cmd.add_argument("--out", required=True, help="output PGM")
    _add_pattern_flag(noise_cmd)
    _add_sigma_flags(noise_cmd)
    _add_depth_flag(noise_cmd)
    noise_cmd.set_defaults(handler=_cmd_noise)

    decompose_cmd = commands.add_parser("decompose", help="split a mosaic into R, G1, G2, B sub-images")
    decompose_cmd.add_argument("--in", required=True, help="input PGM mosaic")
    decompose_cmd.add_argument("--out-prefix", required=True, help="output prefix; writes <prefix>.{r,g1,g2,b}.pgm")
    _add_pattern_flag(decompose_cmd)
    _add_depth_flag(decompose_cmd)
    decompose_cmd.set_defaults(handler=_cmd_decompose)

    denoise_cmd = commands.add_parser("denoise", help="denoise a single plane")
    denoise_cmd.add_argument("--in", required=True, help="input PGM")
    denoise_cmd.add_argument("--out", required=True, help="output PGM")
    _add_denoiser_flags(denoise_cmd)
    _add_depth_flag(denoise_cmd)
    denoise_cmd.set_defaults(handler=_cmd_denoise)

    demosaic_cmd = commands.add_parser("demosaic", help="reconstruct RGB from a mosaic")
    demosaic_cmd.add_argument("--in", required=True, help="input PGM mosaic")
    demosaic_cmd.add_argument("--out", required=True, help="output PPM")
    _add_pattern_flag(demosaic_cmd)
    _add_demosaicker_flags(demosaic_cmd)
    _add_depth_flag(demosaic_cmd)
    demosaic_cmd.set_defaults(handler=_cmd_demosaic)

    pipeline_cmd = commands.add_parser("pipeline", help="run one strategy end to end and print its CSV record")
    pipeline_cmd.add_argument("--in", required=True, help="reference PPM (P6)")
    pipeline_cmd.add_argument("--out", default=None, help="optional output PPM of the reconstruction")
    pipeline_cmd.add_argument("--strategy", type=_parsed(Strategy.parse), default=Strategy.AFTER, help="after, joint, or before (default after)")
    _add_pattern_flag(pipeline_cmd)
    _add_sigma_flags(pipeline_cmd)
    _add_denoiser_flags(pipeline_cmd)
    _add_demosaicker_flags(pipeline_cmd)
    _add_depth_flag(pipeline_cmd)
    pipeline_cmd.set_defaults(handler=_cmd_pipeline)

    experiment_cmd = commands.add_parser("experiment", help="sweep strategies x sigmas x configs over an image corpus")
    experiment_cmd.add_argument("inputs", nargs="+", metavar="image.ppm", help="reference PPM images")
    experiment_cmd.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    experiment_cmd.add_argument(
        "--strategies",
        type=_parsed(Strategy.parse),
        nargs="+",
        default=[Strategy.AFTER, Strategy.BEFORE],
        help="strategies to sweep (default: after before)",
    )
    experiment_cmd.add_argument("--sigmas", type=_sigma, nargs="+", default=[0.02, 0.05, 0.1], help="noise sigmas (default: 0.02 0.05 0.1)")
    experiment_cmd.add_argument("--repeats", type=_count, default=1, help="noise realizations per grid point (default 1)")
    experiment_cmd.add_argument("--seed", type=_seed, default=0, help="master seed; per-run seeds derive from it (default 0)")
    experiment_cmd.add_argument("--jobs", type=_count, default=None, help="worker processes (default: CPU count)")
    experiment_cmd.add_argument("--timing", action="store_true", help="record wall time per run (off by default so CSVs are reproducible)")
    _add_pattern_flag(experiment_cmd)
    _add_denoiser_flags(experiment_cmd, plural=True)
    _add_demosaicker_flags(experiment_cmd, plural=True)
    experiment_cmd.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and map failures to the exit-code contract."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (UsageError, PnmError, DimensionError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
