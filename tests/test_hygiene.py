import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "clonekit"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no Name node references;
    ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in stmt.names]
    return [name for name in bound if name not in used]


def test_unused_import_check_catches_one():
    source = "import itertools\nfrom typing import Mapping, Sequence\nx: Mapping = {}\n"
    assert unused_imports(source) == ["itertools", "Sequence"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_module_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def orphaned_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each module-level private name (a function,
    class or assignment target starting with one underscore) that no
    module of ``sources`` reads: as a name, an attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    orphaned = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                continue
            orphaned += [(module, name) for name in names
                         if name.startswith("_") and not name.startswith("__")
                         and name not in read]
    return orphaned


def test_orphaned_private_name_check_catches_them():
    sources = {
        "a": ("import re\n_WORD_RE = re.compile('w')\n_KEPT = 1\n"
              "def _orphan():\n    return _KEPT\n"
              "class _Orphan:\n    pass\n"
              "def _by_attribute():\n    pass\n"
              "def _imported():\n    pass\n"),
        "b": "from . import a\nfrom .a import _imported\nx = a._by_attribute\n",
    }
    assert orphaned_private_names(sources) == [("a", "_WORD_RE"), ("a", "_orphan"),
                                               ("a", "_Orphan")]


def test_no_orphaned_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def csp_sites(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """The modules of ``sources`` that call ``Csp(...)``, and those that
    name ``_csp_forms``: as a name, an attribute or a string."""
    builders, memo = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None)) == "Csp":
                    builders.add(module)
            elif (isinstance(node, ast.Name) and node.id == "_csp_forms"
                    or isinstance(node, ast.Attribute) and node.attr == "_csp_forms"
                    or isinstance(node, ast.Constant) and node.value == "_csp_forms"):
                memo.add(module)
    return sorted(builders), sorted(memo)


def test_csp_site_check_catches_them():
    sources = {
        "a": "from .search import Csp\ncsp = Csp(2, 2)\n",
        "b": "from . import search\ncsp = search.Csp(2, 2)\nforms = s._csp_forms\n",
        "c": "_csp_forms = None\nsetattr(s, '_csp_forms', {})\nCsp\n",
    }
    assert csp_sites(sources) == (["a", "b"], ["b", "c"])


def test_one_builder_of_csps():
    # every CSP is a homomorphism instance built by homs.hom_csp, and only
    # it compiles through the target's memo
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert csp_sites(sources) == (["homs.py", "search.py"], ["homs.py", "structures.py"])


def uncalled_exports(init: str, sources: dict[str, str]) -> list[str]:
    """The names that ``init`` imports from the package's modules, in
    order, that no module of ``sources`` reads as a name or an attribute
    outside the module-level statement that defines that same name."""
    read = set()
    for source in sources.values():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    exported = [alias.asname or alias.name for stmt in ast.parse(init).body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]
    return [name for name in exported if name not in read]


def test_uncalled_export_check_catches_them():
    init = "from .a import used, alone, recursive\nfrom .b import by_attribute\n"
    sources = {
        "a": ("def used():\n    return 1\n"
              "def alone():\n    return used()\n"
              "def recursive():\n    return recursive()\n"),
        "b": "from . import a\nfrom .a import alone\ndef by_attribute():\n    pass\n"
             "x = a.by_attribute\n",
    }
    assert uncalled_exports(init, sources) == ["alone", "recursive"]


# Public functions that nothing in src/ calls: each should gain a caller or
# leave the package, and no other may join them.  bounded_pp_search is
# called by the benchmark and named only in a docstring here.
UNCALLED_API = [
    "compose", "has_cyclic", "bounded_pp_search", "check_pp_constructible",
    "identity_power_spec", "reflect_operations", "verify_pp_interpretation",
    "add_singletons", "all_homomorphisms", "power_structure", "serialize_structure",
]


def test_uncalled_public_api_cannot_grow():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    assert uncalled_exports((SRC / "__init__.py").read_text(), sources) == UNCALLED_API
