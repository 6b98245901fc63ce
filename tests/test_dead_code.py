"""Every module-level function, class and constant of the package, and
every method and property of its classes, is read somewhere in the
package.

No linter ships with the project, so this AST scan stands in for one, as
``tests/test_imports.py`` does for imports. A module-level name counts as
read where it is loaded as a name or read as an attribute
(``desc.build_descriptors``) in any module of ``src/hieract``, its own
definition aside. A method or property counts as read where its name is
read as an attribute (``model.transform``) anywhere in the package, its
own definition aside; methods Python calls by their double-underscore
names do not count as unread. Readers in the tests do not count: code only
the tests run is dead code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hieract"

# (module, name) pairs read from outside the package, each with its reason;
# a method's name is ``Class.method``
EXEMPT = {
    ("__init__", "__version__"): "the package version, read by its users",
    ("cli", "_Parser.error"): "argparse calls it to report a bad command "
                              "line",
    ("learning", "assign_regions"): "the benchmark's P1 probe calls it "
                                    "until ROADMAP item 2 retires the probe",
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


def _methods(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(``Class.method``, defining node) pairs of the methods and
    properties of module-level classes, double-underscore methods aside."""
    return [(f"{cls.name}.{node.name}", node) for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _reads(tree: ast.AST,
           skip: ast.AST | None = None) -> tuple[set[str], set[str]]:
    """(names loaded, names read as attributes) under ``tree``, outside
    the subtree ``skip``."""
    names, attributes, todo = set(), set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            attributes.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names, attributes


def _unread(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level definition that no module
    reads, and ``module.Class.method`` of each method that no module reads
    as an attribute, its own definition aside in both."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = {name: _reads(tree) for name, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        others = [r for m, r in reads.items() if m != module]
        attributes = set().union(*(a for _, a in others))
        names = attributes.union(*(n for n, _ in others))
        for name, node in _defined(tree):
            if name not in names.union(*_reads(tree, skip=node)):
                unread.append(f"{module}.{name}")
        for name, node in _methods(tree):
            if node.name not in attributes | _reads(tree, skip=node)[1]:
                unread.append(f"{module}.{name}")
    return sorted(unread)


def test_every_definition_is_read():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    exempt = {f"{module}.{name}" for module, name in EXEMPT}
    assert [n for n in _unread(sources) if n not in exempt] == []


def test_exemptions_are_still_defined():
    for module, name in EXEMPT:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        defined = dict(_defined(tree) + _methods(tree))
        assert name in defined, f"{module}.{name}"


def test_scan_finds_unread_definitions():
    # D.h reads only itself, D.k is only loaded as a name and D.m only
    # assigned to; D.g is read (as the function a.g is), D.p is read in b,
    # and Python calls D.__init__
    sources = {
        "a": "X = 1\nY: int = 2\ndef f():\n    return f() + Z\n"
             "class C:\n    pass\ndef g():\n    return X\n"
             "class D:\n"
             "    def __init__(self):\n        self.m = 0\n"
             "    def g(self):\n        return 0\n"
             "    def h(self):\n        return self.h() + k\n"
             "    @property\n    def p(self):\n        return 1\n"
             "    def k(self):\n        return 0\n"
             "    def m(self):\n        return 0\n",
        "b": "import a\nZ = a.g() + a.D().p\n",
    }
    assert _unread(sources) == ["a.C", "a.D.h", "a.D.k", "a.D.m", "a.Y",
                                "a.f"]
