"""Reachability guard: ``src/repro`` holds what runs.

Every module under ``src/repro/`` must be reached, by import closure
(module-level and function-level imports, parent packages included),
from something that runs: the CLI, the tracked public API, the e2e
benchmark, or a ``bench_fig*`` / ``bench_table*`` module that reproduces
a figure or table of the paper.  An extension only an ablation benchmark
or an example imports lives beside that consumer instead.

The same holds symbol by symbol.  Every public top-level function and
class, and every public method or property of a top-level class, must
be named somewhere that runs: as an identifier or attribute, or as a
word of a string constant (``benchmarks/e2e/layers.py``'s ``WRAP_TABLE``
names methods that way).  Somewhere that runs is any ``src/repro``
module outside the symbol's own body, ``benchmarks/`` and ``examples/``
(their ``tests`` directories excepted), or a member listed in
``src/repro/api/api_manifest.json``.  Imports, ``__all__``, docstrings
and an ``__init__``'s re-export tables name a symbol without using it.
Both guards are computed with ``ast`` alone — nothing is imported.
"""

import ast
import json
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
MANIFEST = PACKAGE / "api" / "api_manifest.json"

#: Public symbols kept although nothing that runs names them.
ALLOWLIST = {
    "repro.db.transaction.Transaction.rollback": "the abort half of "
    "RWNode.begin's transactions; begin and commit pass only because "
    "Tracer.begin and GroupCommitPipeline.commit share their names, so "
    "the transaction API goes whole or not at all",
    "repro.storage.store.PolarStore.write_partial": "paper section "
    "3.2.3's rule for a non-page-aligned write (decompress, splice, store "
    "uncompressed); the model-based store test drives it, no figure does",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def package_modules(package_dir):
    """Dotted name -> path for every module of the package at ``package_dir``."""
    modules = {}
    for path in package_dir.rglob("*.py"):
        parts = path.relative_to(package_dir.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path, module=None):
    """Every dotted name ``path`` imports, anywhere in its body.

    ``from a import b`` yields ``a`` and ``a.b`` (``b`` may be a module);
    relative imports resolve against ``module``, the file's own dotted name.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            parts = [node.module] if node.module else []
            if node.level:
                package = module.split(".")
                if path.name != "__init__.py":
                    package.pop()
                parts = package[:len(package) - node.level + 1] + parts
            base = ".".join(parts)
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def unreached(package_dir, root_files=(), root_modules=()):
    """Modules of the package no root reaches through its import closure."""
    modules = package_modules(package_dir)
    reached = set()
    pending = []

    def reach(name):
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        parts = name.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                pending.append(prefix)

    for name in root_modules:
        reach(name)
    for path in root_files:
        for name in imported_names(path):
            reach(name)
    while pending:
        module = pending.pop()
        for name in imported_names(modules[module], module):
            reach(name)
    return set(modules) - reached


def roots():
    benchmarks = REPO / "benchmarks"
    files = sorted(benchmarks.glob("e2e/*.py"))
    files += sorted(benchmarks.glob("bench_fig*.py"))
    files += sorted(benchmarks.glob("bench_table*.py"))
    return files, ("repro.__main__", "repro.api", "repro.api.manifest")


def public_symbols(path):
    """``(key, name)`` for every public top-level function and class of
    ``path`` and every public method of a top-level class; ``key`` is
    ``name`` or ``Class.name``."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFS[:2]) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def is_prose(node):
    """A bare string statement: a docstring, which does not run."""
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def is_reexport(node, init):
    """An import, an ``__all__``, or any module-level assignment of an
    ``__init__`` (``repro/__init__.py``'s lazy-export table)."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and (init or any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    ))


def mentions(path):
    """``(word, owners)`` for every name ``path`` uses, where ``owners``
    holds the keys of the symbols whose body the mention sits in."""
    found = []

    def visit(node, owners):
        if is_prose(node) or isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name):
            found.append((node.id, owners))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, owners))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.extend((word, owners) for word in WORD.findall(node.value))
        for child in ast.iter_child_nodes(node):
            inner = owners
            if (isinstance(node, ast.ClassDef) and isinstance(child, DEFS)
                    and len(owners) == 1):
                inner = owners + (f"{owners[0]}.{child.name}",)
            visit(child, inner)

    init = path.name == "__init__.py"
    for node in ast.parse(path.read_text()).body:
        if not is_reexport(node, init):
            visit(node, (node.name,) if isinstance(node, DEFS) else ())
    return found


def manifest_names(manifest):
    """Exported names and ``Class.member`` keys of an API manifest."""
    names = set()
    for module in manifest.values():
        names.update(module["exports"])
        for name, symbol in module["symbols"].items():
            names.update(f"{name}.{member}" for member in symbol.get("members", ()))
    return names


def unused(package_dir, root_files=(), manifest=None):
    """Dotted keys of the package's public symbols that nothing names
    outside their own body: not the package, ``root_files`` or the
    manifest."""
    modules = {path: name for name, path in package_modules(package_dir).items()}
    uses = {}
    for path in [*modules, *root_files]:
        for word, owners in mentions(path):
            uses.setdefault(word, []).append((path, owners))
    listed = manifest_names(manifest or {})
    found = set()
    for path, module in modules.items():
        for key, name in public_symbols(path):
            if key in listed or any(
                where != path or key not in owners
                for where, owners in uses.get(name, ())
            ):
                continue
            found.add(f"{module}.{key}")
    return found


def symbol_roots():
    return [
        path
        for top in ("benchmarks", "examples")
        for path in sorted((REPO / top).rglob("*.py"))
        if "tests" not in path.relative_to(REPO).parts
    ]


def test_every_module_under_src_is_reached_from_something_that_runs():
    files, modules = roots()
    orphans = unreached(PACKAGE, files, modules)
    assert not orphans, (
        "imported by nothing that runs — move beside the only consumer "
        "(benchmarks/ablation/, examples/) or wire in:\n"
        + "\n".join(sorted(orphans))
    )


def test_every_public_symbol_under_src_is_named_by_something_that_runs():
    found = unused(PACKAGE, symbol_roots(), json.loads(MANIFEST.read_text()))
    stale = set(ALLOWLIST) - found
    assert not stale, "allowlisted but now named — drop:\n" + "\n".join(sorted(stale))
    dead = found - set(ALLOWLIST)
    assert not dead, (
        "named by nothing that runs — delete, move beside the only consumer "
        "(benchmarks/, examples/, a tests/ helper) or wire in:\n"
        + "\n".join(sorted(dead))
    )


def build_package(tmp_path, orphan_import):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "used.py").write_text(orphan_import)
    (package / "orphan.py").write_text("X = 1\n")
    root = tmp_path / "run.py"
    root.write_text("from pkg import used\n")
    return package, root


def test_closure_reports_an_orphan(tmp_path):
    package, root = build_package(tmp_path, "Y = 2\n")
    assert unreached(package, [root]) == {"pkg.orphan"}


def test_closure_follows_function_level_imports(tmp_path):
    package, root = build_package(
        tmp_path, "def f():\n    from .orphan import X\n    return X\n"
    )
    assert unreached(package, [root]) == set()


def build_symbols(tmp_path, used, root="import pkg.used\n", init=""):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(init)
    (package / "used.py").write_text(used)
    run = tmp_path / "run.py"
    run.write_text(root)
    return package, [run]


def test_symbols_report_a_function_named_only_in_its_own_body(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "def live():\n    return 1\n\n"
        "def dead(n):\n    return dead(n - 1) if n else 0\n",
        root="from pkg.used import live\nlive()\n",
    )
    assert unused(package, roots) == {"pkg.used.dead"}


def test_symbols_report_a_method_only_its_own_body_names(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "class Box:\n"
        "    def get(self):\n        return self.get\n"
        "    def put(self):\n        return 1\n",
        root="from pkg.used import Box\nBox().put()\n",
    )
    assert unused(package, roots) == {"pkg.used.Box.get"}


def test_symbols_count_a_sibling_method_as_a_caller(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "class Box:\n"
        "    def get(self):\n        return 1\n"
        "    def put(self):\n        return self.get()\n",
        root="from pkg.used import Box\nBox().put()\n",
    )
    assert unused(package, roots) == set()


def test_symbols_count_a_word_inside_a_string_in_a_root(tmp_path):
    package, roots = build_symbols(
        tmp_path, "class Box:\n    def get(self):\n        return 1\n",
        root='TABLE = [("pkg.used", "Box.get")]\n',
    )
    assert unused(package, roots) == set()


def test_symbols_do_not_count_docstrings(tmp_path):
    package, roots = build_symbols(
        tmp_path, "def dead():\n    return 1\n",
        root='"""Calls dead()."""\n',
    )
    assert unused(package, roots) == {"pkg.used.dead"}


def test_symbols_do_not_count_reexports_or_all(tmp_path):
    package, roots = build_symbols(
        tmp_path, "def dead():\n    return 1\n",
        init="from .used import dead\n__all__ = ['dead']\n"
        "_PUBLIC = {'dead': ('pkg.used', 'dead')}\n",
        root="from pkg.used import dead\n__all__ = ['dead']\n",
    )
    assert unused(package, roots) == {"pkg.used.dead"}


def test_symbols_count_a_manifest_member(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "class Box:\n    def get(self):\n        return 1\n"
        "    def put(self):\n        return 2\n",
        root="import pkg.used\n",
    )
    manifest = {"pkg": {"exports": ["Box"],
                        "symbols": {"Box": {"members": {"get": "()"}}}}}
    assert unused(package, roots, manifest) == {"pkg.used.Box.put"}
