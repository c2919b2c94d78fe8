"""The solver never imports its test references, and keeps no dead import.

``hybnet.oracles`` holds the brute-force answers and the one-description
replay that the tests compare the solver against.  No module of the package
imports them, the package's ``__init__`` included, so ``import hybnet``
does not export them: the tests import them from ``hybnet.oracles``.  A
solver module that imported them, or that defined one of them itself, would
blur the line between the code under test and its reference.

Every module-level import of a solver module is used in that module; this
AST check stands in for a linter's unused-import rule.

``import hybnet`` loads neither ``dataclasses`` nor the modules it pulls in
(``inspect``, ``ast``): the package's records are NamedTuples, and every
CLI call and solve pays for what the import loads.  The check imports the
package in a fresh interpreter, so it also catches an indirect import that
no rule over the source text would see.
"""

import ast
import subprocess
import sys
from pathlib import Path

# read as text, so that a circular import the rule forbids cannot hide it
SRC = Path(__file__).resolve().parents[1] / "src" / "hybnet"

# names that live in oracles.py only
REFERENCES = {
    "build_signature", "reconstruct_cnet", "free_under",
    "enumerate_descriptions", "description_count",
    "descendant_dag", "dag_sources", "is_chain_of", "reference_aaf_stream",
    "collapsed_cut_lists", "signature_key",
}
# names that no module defines any more
GONE = {"_expand_tree", "_expand_network", "expand_labels", "invisible_nodes",
        "component_of_block", "edge_doomed", "split_unread", "_pendant_owners",
        "cut_spaces", "attached_pendants", "_hangs_from", "locks_stuck_inode",
        "PartialSignature", "shape_of", "export",
        # wrappers whose callers use the wrapped value: a chain is a tuple of
        # taxa, the reduction record a dict, a guess key a tree index or
        # None, a CNET a Network with edge colours, a report a list of pairs
        "Chain", "TaxonMap", "INode", "AafRoot", "RhoRoot", "CnetEdge", "CnetReport",
        "as_network", "child_edges", "free_components", "guess_kind",
        # helpers that only tests read
        "root_block", "block_of", "singletons", "from_json", "topological",
        # a cache in front of enumerate_wiring_guesses, which keeps its own
        "guesses_for"}
# imports kept unused on purpose: the benchmark's per-layer wrappers
# (hybbench/layers.py) patch these module attributes by name
PATCHED_ALIASES = {("forests.py", "restrict"), ("extended_aaf.py", "spanning_nodes")}


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def imports_oracles(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "oracles" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[-1] == "oracles" or any(a.name == "oracles" for a in node.names)
    return False


def defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def unused_imports(tree):
    """The names bound by the module's top-level imports that no expression
    of the module reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                if name not in read:
                    yield name


def test_no_module_imports_the_oracles():
    found = sorted(name for name, tree in modules() if any(map(imports_oracles, ast.walk(tree))))
    assert found == []


def test_references_are_defined_in_oracles_only():
    names = {name: set(defined_names(tree)) for name, tree in modules()}
    assert REFERENCES <= names["oracles.py"]
    misplaced = sorted((name, ref) for name, defined in names.items() if name != "oracles.py"
                       for ref in REFERENCES & defined)
    assert misplaced == []
    assert sorted((name, gone) for name, defined in names.items() for gone in GONE & defined) == []


def test_the_package_exports_no_removed_name():
    import hybnet

    assert sorted(GONE & set(dir(hybnet))) == []
    assert sorted(REFERENCES & set(dir(hybnet))) == []


def test_every_module_level_import_is_used():
    """The imports of the package's ``__init__`` are its exports, so the
    rule reads the other modules."""
    unused = {(name, alias) for name, tree in modules() if name != "__init__.py"
              for alias in unused_imports(tree)}
    assert sorted(unused - PATCHED_ALIASES) == []
    assert PATCHED_ALIASES <= unused  # an alias used or no longer imported leaves the set


def test_the_unused_import_rule_sees_a_dead_import():
    tree = ast.parse("from __future__ import annotations\nimport json\n"
                     "from typing import List, Optional\nimport os.path\n"
                     "def f(x: List[int]):\n    return os.path.join(*x)\n")
    assert sorted(unused_imports(tree)) == ["Optional", "json"]


def test_importing_the_package_loads_no_dataclass_machinery():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hybnet; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
