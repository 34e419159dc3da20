"""The package's module layout, read from the source with ast.

The stage machinery has one home, the private _kernel module: no other
module reads a sibling's private names, binds the strip, opens a thread
pool or sizes one, but for pipeline's pool workers, which set
_kernel._threads_max to 1 as they start. The demosaickers do not depend on
the denoisers. Every plane enters a denoise kernel through
denoise_planes. Each layout has one reader: the Bayer tile is read from
CfaPattern.sites, a padded plane through _kernel._shifted's lattice, and
the wavelet pyramid by _idwt. The runtime imports the standard library,
numpy and cfaisp only. Each argument is checked where it enters the
library, so _kernel imports no cfaisp module and _run_group checks nothing.
Which strategy runs which demosaicker is decided only by check_pairing and
ExperimentGrid.demosaickers_for, the only readers of is_joint outside demosaic.
"""

import ast
import pathlib
import sys

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


def _nodes():
    """(module, scope, node) for every node of the package, scope the dotted name of its innermost enclosing def or class."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
            yield inner, child
            yield from visit(child, inner)

    for module, tree in TREES.items():
        for scope, node in visit(tree, ""):
            yield module, scope, node


def _calls(name: str) -> list:
    """(module, scope) of each call of name, by name or attribute."""
    return [(module, scope) for module, scope, node in _nodes() if isinstance(node, ast.Call) and _name(node.func) == name]


def _name(node):
    """The name a Name or Attribute node reads, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_the_layout_is_read_from_every_module():
    # A glob that found nothing would pass every rule below.
    assert {"_kernel", "config", "demosaic", "denoise", "imageio", "noise", "pipeline"} <= SIBLINGS


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_private_name_crosses_module_lines_but_the_kernel(module):
    assert [read for read in _private_reads(module, TREES[module]) if read[1] != KERNEL] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_only_the_standard_library_numpy_and_cfaisp_are_imported(module):
    # Every import statement, at any depth, so each code path is covered:
    # pool workers, thread pools, the CLI and the codec.
    allowed = sys.stdlib_module_names | {"numpy", "cfaisp"}
    imported = []
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("cfaisp" if node.level else node.module)
    assert [name for name in imported if name.split(".")[0] not in allowed] == []


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


def test_the_denoise_kernels_are_named_only_in_their_table_and_denoise_planes():
    # A wrapper that called a kernel itself would be a second way into it.
    kernels = ("_gaussian", "_median", "_bilateral", "_wavelet")
    (table,) = [node.value for node in TREES["denoise"].body if isinstance(node, ast.Assign) and _name(node.targets[0]) == "_DENOISERS"]
    in_table = set(ast.walk(table))
    named = [("_DENOISERS" if node in in_table else scope, node.id) for module, scope, node in _nodes() if module == "denoise" and isinstance(node, ast.Name) and node.id in kernels]
    assert named == [("_DENOISERS", kernel) for kernel in kernels] + [("denoise_planes.step", "_wavelet")]


def test_the_tile_is_read_only_from_cfa_pattern_sites():
    # A pattern's name spells its tile: a subscript of it is a second reading.
    reads = [(module, scope) for module, scope, node in _nodes() if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr == "name"]
    assert reads == [("cfa", "CfaPattern.sites")]


def test_planes_are_padded_only_by_the_lattice_and_the_wavelet():
    assert _calls("pad") == [("_kernel", "_shifted"), ("denoise", "_wavelet")]


def test_padded_rows_are_read_through_the_lattice():
    # Outside _kernel, only the wide median's window view reads a phase plane whole.
    reads = [(module, scope) for module, scope, node in _nodes() if module != KERNEL and isinstance(node, ast.Attribute) and node.attr == "flat"]
    assert reads == [("denoise", "_median")]


def test_the_pyramid_is_inverted_only_by_the_wavelet():
    assert _calls("_idwt") == [("denoise", "_wavelet")]


def test_only_the_pool_workers_set_a_kernel_attribute():
    found = []
    for module, scope, node in _nodes():
        if module != KERNEL and isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            aliases = _sibling_aliases(TREES[module])
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and aliases.get(target.value.id) == KERNEL for target in targets):
                found.append((module, scope, ast.unparse(node)))
    assert found == [("pipeline", "_init_worker", "_kernel._threads_max = 1")]


def test_the_kernel_imports_no_cfaisp_module():
    # Its callers check what they pass it, so it needs none of their rules.
    nodes = list(ast.walk(TREES[KERNEL]))
    imported = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    imported += ["cfaisp" if node.level else node.module for node in nodes if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.split(".")[0] == "cfaisp"] == []


def test_run_group_checks_nothing():
    # run_pipeline, run_experiment and ExperimentGrid check before it runs.
    checks = ["check_text", "_check_sides", "check_pairing", "_check_types"]
    assert [(check, scope) for check in checks for module, scope in _calls(check) if module == "pipeline" and scope.split(".")[0] == "_run_group"] == []


def test_only_the_pairing_rules_read_is_joint():
    reads = {(module, scope) for module, scope, node in _nodes() if module != "demosaic" and isinstance(node, ast.Attribute) and node.attr == "is_joint"}
    assert reads == {("pipeline", "check_pairing"), ("pipeline", "ExperimentGrid.demosaickers_for")}
