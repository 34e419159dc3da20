"""The package's module layout, read from the source with ast.

The stage machinery has one home, the private _kernel module: no other
module reads a sibling's private names, binds the strip, opens a thread
pool or sizes one. The demosaickers do not depend on the denoisers. Every
wavelet plane enters the transform through denoise_planes.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cfaisp"
KERNEL = "_kernel"


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))}


TREES = _trees()
SIBLINGS = set(TREES) - {"__init__"}


def _sibling_aliases(tree) -> dict:
    """Local name -> sibling module, for `from cfaisp import m` and `import cfaisp.m as n`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cfaisp":
            aliases.update({alias.asname or alias.name: alias.name for alias in node.names if alias.name in SIBLINGS})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cfaisp.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]
    return aliases


def _private_reads(module: str, tree) -> list:
    """(module, sibling, name) for each private name module takes from a sibling."""
    found = []
    aliases = _sibling_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cfaisp."):
            sibling = node.module.split(".", 1)[1]
            found += [(module, sibling, alias.name) for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases and node.attr.startswith("_"):
            found.append((module, aliases[node.value.id], node.attr))
    return found


def test_the_layout_is_read_from_every_module():
    # A glob that found nothing would pass every rule below.
    assert {"_kernel", "config", "demosaic", "denoise", "imageio", "noise", "pipeline"} <= SIBLINGS


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_private_name_crosses_module_lines_but_the_kernel(module):
    assert [read for read in _private_reads(module, TREES[module]) if read[1] != KERNEL] == []


@pytest.mark.parametrize("module", sorted(set(TREES) - {KERNEL}))
def test_the_strip_pool_and_thread_count_live_in_the_kernel(module):
    found = []
    for node in ast.walk(TREES[module]):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        for target in targets:
            name = target.id if isinstance(target, ast.Name) else target.attr if isinstance(target, ast.Attribute) else None
            if name == "_STRIP":
                found.append(("assigns", name))
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            found += [("imports", alias.name) for alias in node.names if alias.name in ("_STRIP", "ThreadPoolExecutor")]
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "ThreadPoolExecutor":
            found.append(("names", name))
        if isinstance(node, ast.Call):
            called = node.func.id if isinstance(node.func, ast.Name) else node.func.attr if isinstance(node.func, ast.Attribute) else None
            if called == "_threads":
                found.append(("calls", called))
    assert found == []


def test_demosaic_does_not_import_denoise():
    tree = TREES["demosaic"]
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= set(_sibling_aliases(tree).values())
    assert not imported & {"cfaisp.denoise", "denoise"}


def test_the_wavelet_is_called_only_inside_denoise_planes():
    # (module, top-level definition) of each call of _wavelet, by name or attribute.
    calls = []
    for module, tree in TREES.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = node.func.id if isinstance(node.func, ast.Name) else node.func.attr if isinstance(node.func, ast.Attribute) else None
                    if called == "_wavelet":
                        calls.append((module, getattr(top, "name", None)))
    assert calls == [("denoise", "denoise_planes")]
