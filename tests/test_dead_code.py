"""Every module-level function, class and constant of the package is read
somewhere in the package.

No linter ships with the project, so this AST scan stands in for one, as
``tests/test_imports.py`` does for imports. A name counts as read where it
appears as a loaded name or as an attribute (``desc.build_descriptors``) in
any module of ``src/hieract``, its own definition aside. Readers in the
tests do not count: code only the tests run is dead code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hieract"

# (module, name) pairs read from outside the package, each with its reason
EXEMPT = {
    ("__init__", "__version__"): "the package version, read by its users",
    ("learning", "assign_regions"): "the benchmark's P1 probe calls it "
                                    "until ROADMAP item 3 retires the probe",
}


def _defined(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level (name, defining node) pairs: functions, classes and
    assigned constants."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return out


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded or read as attributes under ``tree``, outside the
    subtree ``skip``."""
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return found


def _unread(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level definition that no module
    reads, its own definition aside."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = {name: _reads(tree) for name, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        elsewhere = set().union(*(r for m, r in reads.items() if m != module))
        unread += [f"{module}.{name}" for name, node in _defined(tree)
                   if name not in elsewhere | _reads(tree, skip=node)]
    return sorted(unread)


def test_every_definition_is_read():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    exempt = {f"{module}.{name}" for module, name in EXEMPT}
    assert [n for n in _unread(sources) if n not in exempt] == []


def test_exemptions_are_still_defined():
    for module, name in EXEMPT:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in dict(_defined(tree)), f"{module}.{name}"


def test_scan_finds_unread_definitions():
    sources = {
        "a": "X = 1\nY: int = 2\ndef f():\n    return f() + Z\n"
             "class C:\n    pass\ndef g():\n    return X\n",
        "b": "import a\nZ = a.g()\n",
    }
    assert _unread(sources) == ["a.C", "a.Y", "a.f"]
