"""README's quick start runs, and README names every public name it keeps
though no path reaches it.

The paths are the experiments' registry, the command line, README's quick
start and the benchmark worker. From them the reachability check follows
names through the source, without importing it: a reached top-level
function, class or assignment reaches every name its definition mentions,
either bare in its own module (or imported into it from a semiclab module)
or as an attribute of an imported semiclab module. Every public top-level
name of the layer modules must be reached, or be listed under README's
"Kept though unreached" with the reason it stays. Every private top-level
name of the layer modules and `experiments` must be reached from a path or
from a kept name, so a helper that a deletion orphans fails the suite.
"""

import ast
import pathlib
import re

from semiclab import catmap

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAYERS = ("lattice", "torus", "sphere", "catmap", "dynamics", "spectra", "_kernels")


def _semiclab_imports(tree):
    # bare name -> (module, name) or (module, None) for the module itself
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[0] != "semiclab":
                continue
            for a in node.names:
                if len(parts) == 1:
                    aliases[a.asname or a.name] = (a.name, None)
                else:
                    aliases[a.asname or a.name] = (parts[1], a.name)
    return aliases


def _top_level(tree):
    # top-level name -> its defining statements; the other statements run at import
    defs, run = {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        defs.setdefault(n.id, []).append(node)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            run.append(node)
    return defs, run


def _mentions(node, module, defs, aliases):
    # the (module, name) pairs one statement refers to
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            target = aliases.get(n.value.id)
            if target is not None and target[1] is None:
                out.add((target[0], n.attr))
        if isinstance(n, ast.Name):
            if n.id in aliases and aliases[n.id][1] is not None:
                out.add(aliases[n.id])
            elif module is not None and n.id in defs:
                out.add((module, n.id))
    return out


def unreached(modules, roots, layers):
    """Top-level (module, name) pairs of `layers` that no root reaches.

    modules maps a semiclab module name to its source; roots are sources run
    as a whole, or (module, name) pairs. Statements a module runs at import,
    such as its `__main__` guard, are roots too.
    """
    parsed, todo = {}, []
    for name, source in modules.items():
        tree = ast.parse(source)
        defs, run = _top_level(tree)
        parsed[name] = (defs, _semiclab_imports(tree))
        for stmt in run:
            todo.extend(_mentions(stmt, name, *parsed[name]))
    for root in roots:
        if isinstance(root, tuple):
            todo.append(root)
        else:
            tree = ast.parse(root)
            todo.extend(_mentions(tree, None, {}, _semiclab_imports(tree)))
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen or key[0] not in parsed:
            continue
        seen.add(key)
        defs, aliases = parsed[key[0]]
        for stmt in defs.get(key[1], ()):
            todo.extend(_mentions(stmt, key[0], defs, aliases))
    return sorted((m, name) for m in layers for name in parsed[m][0] if (m, name) not in seen)


def _readme_section(heading):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.split(r"\n##+ ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def _quick_start():
    return re.search(r"```python\n(.*?)```", _readme_section("## Quick start"), re.S).group(1)


def _kept_names():
    # the first `module.name` of each bullet in README's kept list
    section = _readme_section("### Kept though unreached")
    return sorted(
        tuple(m.group(1).split(".", 1))
        for m in re.finditer(r"^- `([\w.]+)`", section, re.M)
    )


def _package():
    src = ROOT / "src" / "semiclab"
    return {p.stem: p.read_text(encoding="utf-8") for p in src.glob("*.py")}


def test_quick_start_runs():
    ns = {}
    exec(compile(_quick_start(), "README.md", "exec"), ns)
    assert catmap.quantum_period(ns["Q"])["period"] == 10


def _roots():
    return [
        ("experiments", "REGISTRY"),
        ("cli", "main"),
        _quick_start(),
        (ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"),
    ]


def test_every_public_name_is_reached_or_kept_by_readme():
    found = unreached(_package(), _roots(), LAYERS)
    assert [(m, name) for m, name in found if not name.startswith("_")] == _kept_names()


def test_every_private_helper_is_reached():
    found = unreached(_package(), _roots() + _kept_names(), LAYERS + ("experiments",))
    assert [(m, name) for m, name in found if name.startswith("_")] == []


def test_checker_reports_an_unreached_name():
    modules = {
        "a": "import math\n"
             "from semiclab import b\n"
             "from semiclab.b import shared\n"
             "LIMIT = math.pi\n"
             "def used(x):\n    return _helper(x) + b.via_module() + shared()\n"
             "def _helper(x):\n    return x * LIMIT\n"
             "def orphan():\n    return used(1)\n",
        "b": "def via_module():\n    return 1\n"
             "def shared():\n    return 2\n"
             "def at_import():\n    return 3\n"
             "def dead():\n    return at_import()\n"
             "def _orphaned():\n    return 4\n"
             "SPARE = (1, 2)\n"
             "if __name__ == '__main__':\n    at_import()\n",
    }
    root = "from semiclab import a\nprint(a.used(2))\n"
    want = [("a", "orphan"), ("b", "SPARE"), ("b", "_orphaned"), ("b", "dead")]
    assert unreached(modules, [root], ("a", "b")) == want
    assert unreached(modules, [root, ("a", "orphan")], ("a", "b")) == want[1:]
