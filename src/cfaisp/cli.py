"""Command-line entry point: one subcommand per pipeline stage plus the sweep.

Exit codes: 0 on success, 1 for usage errors, 2 for I/O or processing
errors. Diagnostics are single lines on stderr. All outputs are pure
functions of the arguments and input bytes.

The CLI states no library policy; each rule has one home in the library.
Defaults come from DenoiserConfig(), DemosaickerConfig(), ExperimentGrid()
and DEFAULT_PATTERN. A method flag takes the text its config's describe()
writes in the CSV, read back by the config's parse. config.parse_name reads
every typed name and a config.Rule's read every typed number, so argparse
casts nothing. The strategy/demosaicker pairing is pipeline.check_pairing
for one run and ExperimentGrid.demosaickers_for for a sweep. A
configuration the library rejects is a usage error, and a bad image id
(pipeline.check_image_ids) exits 2, both reported before any input is read.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from cfaisp.cfa import DEFAULT_PATTERN, CfaPattern, MosaicImage, decompose, mosaic_from_rgb
from cfaisp.config import COUNT, SEED, SIGMA
from cfaisp.demosaic import DEMOSAICKER_KINDS, DemosaickerConfig, demosaic
from cfaisp.denoise import DENOISER_KINDS, DenoiserConfig, denoise_plane
from cfaisp.imageio import DEPTH, Plane, PnmError, RgbImage, decode_pnm, encode_pnm, write_csv
from cfaisp.noise import NoiseSpec, add_awgn
from cfaisp.pipeline import ExperimentGrid, Strategy, check_image_ids, check_pairing, run_experiment, run_pipeline

# The library's defaults, which the flags' defaults and help text read.
_DN = DenoiserConfig()
_DM = DemosaickerConfig()
_GRID = ExperimentGrid()


class UsageError(Exception):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _parsed(parse):
    """argparse type: parse(text), whose ValueError becomes the usage error, worded by the library."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_count = _parsed(lambda text: COUNT.read(int, text))
_seed = _parsed(lambda text: SEED.read(int, text))
_sigma = _parsed(lambda text: SIGMA.read(float, text))
_denoiser = _parsed(DenoiserConfig.parse)
_demosaicker = _parsed(DemosaickerConfig.parse)
# Each kind as describe() writes it at the defaults: a bare kind or kind(field=value ...).
_DN_HELP = f"{', '.join(DenoiserConfig(kind).describe() for kind in DENOISER_KINDS)}, with any fields changed"
_DM_HELP = f"{', '.join(DemosaickerConfig(kind).describe() for kind in DEMOSAICKER_KINDS)}, with any fields changed"


def _add_pattern_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pattern",
        type=_parsed(CfaPattern.parse),
        default=DEFAULT_PATTERN,
        help=f"Bayer pattern: {', '.join(p.value for p in CfaPattern)} (case-insensitive; default {DEFAULT_PATTERN.value})",
    )


def _add_depth_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", type=_parsed(lambda text: DEPTH.read(int, text)), default=8, help=f"output bits per sample: {DEPTH.need} (default %(default)s)")


def _add_sigma_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=_sigma, default=0.05, help="noise sigma for all color classes (default %(default)s)")
    parser.add_argument("--sigma-r", type=_sigma, default=None, help="override sigma for red sites")
    parser.add_argument("--sigma-g", type=_sigma, default=None, help="override sigma for green sites")
    parser.add_argument("--sigma-b", type=_sigma, default=None, help="override sigma for blue sites")
    parser.add_argument("--seed", type=_seed, default=0, help="64-bit noise seed (default %(default)s)")


def _noise_spec(args: argparse.Namespace) -> NoiseSpec:
    base = args.sigma
    return NoiseSpec(
        sigma_r=base if args.sigma_r is None else args.sigma_r,
        sigma_g=base if args.sigma_g is None else args.sigma_g,
        sigma_b=base if args.sigma_b is None else args.sigma_b,
        seed=args.seed,
    )


# How _read names each image type in its errors: (description, PNM magic).
_PNM_TYPES = {RgbImage: ("a 3-channel PPM", "P6"), Plane: ("a grayscale PGM", "P5")}


def _read(path: str, kind: type):
    """Decode the PNM file at path, which must hold a kind (RgbImage or Plane)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        image = decode_pnm(data)
    except PnmError as exc:
        raise PnmError(f"{path}: {exc}") from None
    if not isinstance(image, kind):
        (want, magic), (found, _) = _PNM_TYPES[kind], _PNM_TYPES[type(image)]
        raise PnmError(f"{path}: expected {want} ({magic}), found {found}")
    return image


def _write(path: Optional[str], payload: bytes) -> None:
    """Write payload to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
        return
    try:
        with open(path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def _stage(read: type, transform):
    """Handler of a one-file stage: read --in as read, write transform(args, image) to --out."""

    def handler(args: argparse.Namespace) -> int:
        image = transform(args, _read(getattr(args, "in"), read))
        _write(args.out, encode_pnm(image, bit_depth=args.depth))
        return 0

    return handler


def _cmd_decompose(args: argparse.Namespace) -> int:
    plane = _read(getattr(args, "in"), Plane)
    subs = decompose(MosaicImage(args.pattern, plane))
    for name, sub in (("r", subs.r), ("g1", subs.g1), ("g2", subs.g2), ("b", subs.b)):
        _write(f"{args.out_prefix}.{name}.pgm", encode_pnm(sub, bit_depth=args.depth))
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    # Without --demosaicker, each strategy runs the default grid's first demosaicker for it.
    dm = args.demosaicker or _GRID.demosaickers_for(args.strategy)[0]
    try:
        check_pairing(args.strategy, dm)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    path = getattr(args, "in")
    image_id = os.path.basename(path)
    check_image_ids([image_id])
    result, record = run_pipeline(_read(path, RgbImage), args.pattern, _noise_spec(args), args.strategy, args.denoiser, dm, image_id=image_id)
    if args.out:
        _write(args.out, encode_pnm(result, bit_depth=args.depth))
    _write(None, write_csv([record]))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        grid = ExperimentGrid(
            strategies=tuple(args.strategies),
            sigmas=tuple(args.sigmas),
            denoisers=tuple(args.denoisers),
            demosaickers=tuple(args.demosaickers),
            repeats=args.repeats,
            pattern=args.pattern,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ids = [os.path.basename(path) for path in args.inputs]
    check_image_ids(ids)
    corpus = [(image_id, _read(path, RgbImage)) for image_id, path in zip(ids, args.inputs)]
    records = run_experiment(corpus, grid, master_seed=args.seed, jobs=args.jobs, keep_timing=args.timing)
    _write(args.out or None, write_csv(records))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="cfaisp", description="Bayer CFA pipeline simulator: mosaic, noise, denoise, demosaic, compare.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    mosaic_cmd = commands.add_parser("mosaic", help="sample an RGB image through a Bayer CFA")
    mosaic_cmd.add_argument("--in", required=True, help="input PPM (P6)")
    mosaic_cmd.add_argument("--out", required=True, help="output PGM (P5)")
    _add_pattern_flag(mosaic_cmd)
    _add_depth_flag(mosaic_cmd)
    mosaic_cmd.set_defaults(handler=_stage(RgbImage, lambda args, rgb: mosaic_from_rgb(rgb, args.pattern).plane))

    noise_cmd = commands.add_parser("noise", help="add seeded per-color-class Gaussian noise to a mosaic")
    noise_cmd.add_argument("--in", required=True, help="input PGM mosaic")
    noise_cmd.add_argument("--out", required=True, help="output PGM")
    _add_pattern_flag(noise_cmd)
    _add_sigma_flags(noise_cmd)
    _add_depth_flag(noise_cmd)
    noise_cmd.set_defaults(handler=_stage(Plane, lambda args, plane: add_awgn(MosaicImage(args.pattern, plane), _noise_spec(args)).plane))

    decompose_cmd = commands.add_parser("decompose", help="split a mosaic into R, G1, G2, B sub-images")
    decompose_cmd.add_argument("--in", required=True, help="input PGM mosaic")
    decompose_cmd.add_argument("--out-prefix", required=True, help="output prefix; writes <prefix>.{r,g1,g2,b}.pgm")
    _add_pattern_flag(decompose_cmd)
    _add_depth_flag(decompose_cmd)
    decompose_cmd.set_defaults(handler=_cmd_decompose)

    denoise_cmd = commands.add_parser("denoise", help="denoise a single plane")
    denoise_cmd.add_argument("--in", required=True, help="input PGM")
    denoise_cmd.add_argument("--out", required=True, help="output PGM")
    denoise_cmd.add_argument("--denoiser", type=_denoiser, default=_DN, help=f"{_DN_HELP} (default {_DN.describe()})")
    _add_depth_flag(denoise_cmd)
    denoise_cmd.set_defaults(handler=_stage(Plane, lambda args, plane: denoise_plane(plane, args.denoiser)))

    demosaic_cmd = commands.add_parser("demosaic", help="reconstruct RGB from a mosaic")
    demosaic_cmd.add_argument("--in", required=True, help="input PGM mosaic")
    demosaic_cmd.add_argument("--out", required=True, help="output PPM")
    _add_pattern_flag(demosaic_cmd)
    demosaic_cmd.add_argument("--demosaicker", type=_demosaicker, default=_DM, help=f"{_DM_HELP} (default {_DM.describe()})")
    _add_depth_flag(demosaic_cmd)
    demosaic_cmd.set_defaults(handler=_stage(Plane, lambda args, plane: demosaic(MosaicImage(args.pattern, plane), args.demosaicker)))

    pipeline_cmd = commands.add_parser("pipeline", help="run one strategy end to end and print its CSV record")
    pipeline_cmd.add_argument("--in", required=True, help="reference PPM (P6)")
    pipeline_cmd.add_argument("--out", default=None, help="optional output PPM of the reconstruction")
    pipeline_cmd.add_argument("--strategy", type=_parsed(Strategy.parse), default=Strategy.AFTER, help=f"{', '.join(s.value for s in Strategy)} (default {Strategy.AFTER.value})")
    _add_pattern_flag(pipeline_cmd)
    _add_sigma_flags(pipeline_cmd)
    pipeline_cmd.add_argument("--denoiser", type=_denoiser, default=_DN, help=f"{_DN_HELP} (default {_DN.describe()})")
    by_strategy = ", ".join(f"{s.value}={_GRID.demosaickers_for(s)[0].describe()}" for s in Strategy)
    pipeline_cmd.add_argument("--demosaicker", type=_demosaicker, default=None, help=f"{_DM_HELP} (default by strategy: {by_strategy})")
    _add_depth_flag(pipeline_cmd)
    pipeline_cmd.set_defaults(handler=_cmd_pipeline)

    experiment_cmd = commands.add_parser("experiment", help="sweep strategies x sigmas x configs over an image corpus")
    experiment_cmd.add_argument("inputs", nargs="+", metavar="image.ppm", help="reference PPM images")
    experiment_cmd.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    # The sweep's axes, whose defaults are ExperimentGrid's, shown as they are typed.
    axes = (
        ("--strategies", _parsed(Strategy.parse), _GRID.strategies, "strategies to sweep"),
        ("--sigmas", _sigma, _GRID.sigmas, "noise sigmas"),
        ("--denoisers", _denoiser, _GRID.denoisers, f"denoisers to sweep: {_DN_HELP}"),
        ("--demosaickers", _demosaicker, _GRID.demosaickers, f"demosaickers to sweep: {_DM_HELP}; joint runs the joint-bilateral ones, after and before the others"),
    )
    for flag, axis_type, default, meaning in axes:
        shown = " ".join(value.describe() if hasattr(value, "describe") else str(getattr(value, "value", value)) for value in default)
        experiment_cmd.add_argument(flag, type=axis_type, nargs="+", default=default, help=f"{meaning} (default: {shown})")
    experiment_cmd.add_argument("--repeats", type=_count, default=_GRID.repeats, help="noise realizations per grid point (default %(default)s)")
    experiment_cmd.add_argument("--seed", type=_seed, default=0, help="master seed; per-run seeds derive from it (default 0)")
    experiment_cmd.add_argument("--jobs", type=_count, default=None, help="worker processes, at most one per CPU this process may run on (default: one per CPU)")
    experiment_cmd.add_argument("--timing", action="store_true", help="record wall time per run (off by default so CSVs are reproducible)")
    _add_pattern_flag(experiment_cmd)
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
    except (UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
