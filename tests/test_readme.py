"""README's examples run as written: the Library snippet and every command of the CLI block.

The CLI commands run in-process through main(), in order, in a temporary
directory where each image the block reads but never writes is a scene of
the synthetic corpus. The experiment's pool runs inline, so no process
starts. README documents the public surface only: the internals are
described in their own docstrings, so it names no private identifier.
"""

import fnmatch
import importlib.util
import pathlib
import pkgutil
import re
import shlex

import cfaisp
from cfaisp.cli import main
from cfaisp.demosaic import DEMOSAICKER_KINDS, DemosaickerConfig
from cfaisp.denoise import DENOISER_KINDS, DenoiserConfig
from cfaisp.imageio import encode_pnm

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of the given language in the section under heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _entry_points() -> list:
    """(module, name) for each backticked name of the Library list's `cfaisp.<module>` — `name`, ... entries."""
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^- `cfaisp\.(\w+)` — (.*?)(?=^\S|\Z)", section, re.M | re.S)
    return [(module, name) for module, text in entries for name in re.findall(r"`([^`]+)`", text)]


def _commands() -> list:
    """The argument lists of the CLI block's cfaisp commands, continuation lines joined."""
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cfaisp ")]


def test_the_library_snippet_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0.0


def test_every_cli_command_exits_0(tmp_path, monkeypatch, corpus, inline_pool):
    commands = _commands()
    assert commands
    written = {argv[i + 1] for argv in commands for i, arg in enumerate(argv[:-1]) if arg == "--out"}
    scenes = sorted({arg for argv in commands for arg in argv if arg.endswith(".ppm")} - written)
    for i, name in enumerate(scenes):
        _, image = corpus[i % len(corpus)]
        (tmp_path / name).write_bytes(encode_pnm(image, bit_depth=16))
    monkeypatch.chdir(tmp_path)
    assert [(argv[0], main(argv)) for argv in commands] == [(argv[0], 0) for argv in commands]
    assert sorted(name for name in written if not (tmp_path / name).is_file()) == []


def test_every_kind_is_shown_at_its_defaults():
    for config, kinds in ((DenoiserConfig, DENOISER_KINDS), (DemosaickerConfig, DEMOSAICKER_KINDS)):
        for kind in kinds:
            assert f"`{config(kind).describe()}`" in README


def test_no_private_name_is_named():
    assert re.findall(r"(?<![\w-])_[A-Za-z]\w*", README) == []


def test_every_library_entry_point_exists():
    # A name is an attribute of its entry's module, or, as in
    # `pipeline.ExperimentRecord`, of the sibling module it starts with;
    # `main(argv)` names main, and a pattern like `demosaic_*` some attribute.
    entries = _entry_points()
    assert {module for module, _ in entries} == {info.name for info in pkgutil.iter_modules(cfaisp.__path__) if not info.name.startswith("_")}
    missing = []
    for module, name in entries:
        *path, last = name.split("(")[0].split(".")
        owner = importlib.import_module(f"cfaisp.{module}")
        if path and importlib.util.find_spec(f"cfaisp.{path[0]}") is not None:
            owner = importlib.import_module(f"cfaisp.{path.pop(0)}")
        for part in path:
            owner = getattr(owner, part, None)
        if not (fnmatch.filter(dir(owner), last) if "*" in last else hasattr(owner, last)):
            missing.append((module, name))
    assert missing == []
