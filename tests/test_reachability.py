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

The same holds parameter by parameter.  Every defaulted or keyword-only
parameter of a function or method under ``src/repro`` (and every
``**kwargs``) must be passed by some call in those same places.  Calls
are matched by callee name, so methods of one name share their callers
and a class name calls its ``__init__``; a call passes a parameter by
keyword, or by position at its index (``self`` skipped for a method).
A value forwarded from the enclosing function's own defaulted parameter
(``p=p``, or ``p`` by position) passes only if that parameter is itself
passed, and a forwarded ``**kwargs`` passes only the keywords the
enclosing function's callers pass; both are resolved to a fixed point.
A parameter no call passes is a constant, and a branch only its other
values reached goes with it.

All three guards are computed with ``ast`` alone — nothing is imported.
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


def symbol_roots(repo=REPO):
    """``benchmarks/`` and ``examples/`` of ``repo``, their ``tests``
    directories excepted."""
    return [
        path
        for top in ("benchmarks", "examples")
        for path in sorted((repo / top).rglob("*.py"))
        if "tests" not in path.relative_to(repo).parts
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


#: Defaulted parameters kept although no call that runs passes them.
PARAMETER_ALLOWLIST = {
    "repro.__main__.main:argv": "tests/test_cli.py runs each subcommand "
    "in-process with the argv a shell would give; the console entry "
    "passes none and argparse reads sys.argv",
    "repro.api.client.PolarStoreClient.select_proc:ro_index": "the "
    "sysbench driver's _op reaches select_proc through getattr with "
    "ro_index, which bench/figures.py's Fig 15 run sets to 0",
    "repro.db.database.PolarDB.select_proc:ro_index": "the sysbench "
    "driver's _op reaches select_proc through getattr with ro_index, "
    "which bench/figures.py's Fig 15 run sets to 0",
    "repro.baselines.lsm.LSMTree.__init__:memtable_bytes": "tests/"
    "baselines/test_baselines.py flushes and compacts a few hundred "
    "100-byte rows through a 4-32 KiB memtable (256 KiB by default)",
    "repro.net.client.SocketPool.__init__:max_inflight": "tests/net/"
    "test_server_client.py fills the client queue behind a one-slot "
    "window and holds a 2*steps pipeline in flight at once",
    "repro.net.client.SocketPool.__init__:queue_cap": "tests/net/"
    "test_server_client.py fills the client queue with one queued "
    "request (4096 by default)",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def call_name(call):
    """The name a call is matched by: ``f(...)`` and ``x.f(...)`` -> ``f``;
    ``None`` for any other callee."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None
    )


class Signature:
    """One function or method: the names its calls go by, its positional
    parameters, and the parameters the guard checks."""

    def __init__(self, key, fn, bound):
        args = fn.args
        self.key = key
        # An __init__ is called by its class's name, set by ``unpassed``.
        self.init = fn.name == "__init__"
        self.names = set() if self.init else {fn.name}
        self.positional = [a.arg for a in args.posonlyargs + args.args]
        self.skip = 1 if bound else 0
        self.keywords = set(self.positional[len(args.posonlyargs):])
        self.keywords.update(a.arg for a in args.kwonlyargs)
        self.var_kw = args.kwarg.arg if args.kwarg else None
        first = len(self.positional) - len(args.defaults)
        self.checked = self.positional[first:] + [a.arg for a in args.kwonlyargs]
        if self.var_kw:
            self.checked.append(f"**{self.var_kw}")
        # A parameter the body rebinds no longer holds what was passed.
        rebound = {
            node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        self.forwarded = set(self.checked) - rebound


def scan(tree, module=None):
    """``(signatures, calls, inits, bases, values)`` of a module.

    ``signatures`` has one ``Signature`` per function and method when
    ``module`` is given (dunders other than ``__init__`` are called by
    syntax, not by name); ``calls`` holds ``(call, name, enclosing
    Signature or None)``, where a classmethod's ``cls(...)`` is named by
    its class and ``super().__init__(...)`` by the first base; ``inits``
    maps a class to its ``__init__`` and ``bases`` a class to its base
    names; ``values`` holds every name read other than as a callee and
    ``bound`` every name assigned or declared as a parameter.
    """
    sigs, calls, inits, bases, values, bound = [], [], {}, {}, set(), set()

    def visit(node, prefix, cls, enclosing):
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [getattr(b, "id", None) for b in node.bases]
            for child in node.body:
                visit(child, f"{prefix}{node.name}.", node, enclosing)
            return
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, FUNCTIONS):
            enclosing = None
            if module and (not node.name.startswith("__")
                           or node.name == "__init__"):
                method = cls is not None and node in cls.body
                decorators = {getattr(d, "id", None) for d in node.decorator_list}
                enclosing = Signature(
                    f"{module}.{prefix}{node.name}", node,
                    method and "staticmethod" not in decorators,
                )
                sigs.append(enclosing)
                if method and node.name == "__init__":
                    inits[cls.name] = enclosing
            prefix = f"{prefix}{node.name}."
        elif isinstance(node, ast.Lambda):
            # Its parameters shadow the enclosing function's.
            enclosing = None
        elif isinstance(node, ast.Call):
            name = call_name(node)
            func = node.func
            if name == "cls" and enclosing and enclosing.positional[:1] == ["cls"]:
                name = cls.name
            elif (cls is not None and name == "__init__"
                  and isinstance(func.value, ast.Call)
                  and call_name(func.value) == "super"):
                name = (bases[cls.name] or [None])[0]
            calls.append((node, name, enclosing))
            children = [*node.args, *node.keywords]
            if isinstance(func, ast.Attribute):
                children.append(func.value)
            elif not isinstance(func, ast.Name):
                children.append(func)
        elif isinstance(node, ast.Name):
            (values if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.Attribute):
            (values if isinstance(node.ctx, ast.Load) else bound).add(node.attr)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        for child in children:
            visit(child, prefix, cls, enclosing)

    visit(tree, "", None, None)
    return sigs, calls, inits, bases, values, bound


def passes(sig, call, enclosing, passed, extra):
    """The parameters of ``sig`` that ``call`` passes and the keywords it
    passes into ``sig``'s ``**kwargs``, given what is passed so far."""
    named, keywords = set(), set()

    def given(value):
        return not (
            isinstance(value, ast.Name) and enclosing is not None
            and value.id in enclosing.forwarded
            and (enclosing.key, value.id) not in passed
        )

    def keyword(name):
        if name == "*":
            # A mapping built in place may hold any keyword.
            named.update(sig.keywords)
            keywords.add(name)
        elif name in sig.keywords:
            named.add(name)
        else:
            keywords.add(name)

    for index, arg in enumerate(call.args, sig.skip):
        if isinstance(arg, ast.Starred):
            named.update(sig.positional[index:])
            break
        if index < len(sig.positional) and given(arg):
            named.add(sig.positional[index])
    for kw in call.keywords:
        if kw.arg is not None:
            if given(kw.value):
                keyword(kw.arg)
        elif (isinstance(kw.value, ast.Name) and enclosing is not None
              and kw.value.id == enclosing.var_kw):
            for name in extra.get(enclosing.key, ()):
                keyword(name)
        else:
            keyword("*")
    if keywords and sig.var_kw:
        named.add(f"**{sig.var_kw}")
    return named, keywords


def unpassed(package_dir, root_files=()):
    """``module.Qualname:parameter`` for every checked parameter of the
    package that no call in the package or ``root_files`` passes."""
    sigs, calls, inits, bases, values, bound = [], [], {}, {}, set(), set()
    sources = [(path, name) for name, path in package_modules(package_dir).items()]
    sources += [(path, None) for path in root_files]
    for path, module in sorted(sources, key=str):
        found = scan(ast.parse(path.read_text()), module)
        sigs += found[0]
        calls += found[1]
        inits.update(found[2])
        bases.update(found[3])
        values |= found[4]
        bound |= found[5]
    for cls in bases:
        owner = cls
        for _ in bases:  # a base may share its subclass's name
            if owner in inits or not bases.get(owner):
                break
            owner = bases[owner][0]
        if owner in inits:
            inits[owner].names.add(cls)
    by_name = {}
    for sig in sigs:
        for name in sig.names:
            by_name.setdefault(name, []).append(sig)
    edges = [
        (sig, call, enclosing)
        for call, name, enclosing in calls
        for sig in by_name.get(name, ())
    ]
    # A function read as a value (a table entry, a callback) may be
    # called with anything; a name something assigns is a variable.
    values -= bound
    passed = {
        (sig.key, name)
        for sig in sigs if not sig.init and sig.names & values
        for name in sig.checked
    }
    extra = {}
    changed = True
    while changed:
        changed = False
        for sig, call, enclosing in edges:
            named, keywords = passes(sig, call, enclosing, passed, extra)
            new = {(sig.key, name) for name in named} - passed
            more = keywords - extra.get(sig.key, set())
            if new or more:
                passed |= new
                extra.setdefault(sig.key, set()).update(more)
                changed = True
    return {
        f"{sig.key}:{name}"
        for sig in sigs
        for name in sig.checked
        if (sig.key, name) not in passed
    }


def test_every_defaulted_parameter_under_src_is_passed_by_something_that_runs():
    found = unpassed(PACKAGE, symbol_roots())
    stale = set(PARAMETER_ALLOWLIST) - found
    assert not stale, "allowlisted but now passed — drop:\n" + "\n".join(sorted(stale))
    dead = found - set(PARAMETER_ALLOWLIST)
    assert not dead, (
        "passed by no call that runs — make it a constant, delete the "
        "branch only its other values reach, or wire in a caller:\n"
        + "\n".join(sorted(dead))
    )


def test_parameters_pass_by_keyword_or_by_position(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
        "class Box:\n"
        "    def put(self, x=0, y=0):\n        return x\n",
        root="from pkg.used import Box, f\nf(0, 1, d=2)\nBox().put(5)\n",
    )
    assert unpassed(package, roots) == {
        "pkg.used.f:c", "pkg.used.f:e", "pkg.used.Box.put:y",
    }


def test_a_class_name_calls_its_init_and_super_its_base(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "class Base:\n"
        "    def __init__(self, size=1, name=''):\n        self.size = size\n"
        "class Child(Base):\n"
        "    def __init__(self, size=2):\n"
        "        super().__init__(size)\n",
        root="from pkg.used import Child\nChild(size=3)\n",
    )
    assert unpassed(package, roots) == {"pkg.used.Base.__init__:name"}


def test_methods_of_one_name_share_their_callers(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "class Disk:\n"
        "    def write(self, data, sync=False):\n        return data\n"
        "class Net:\n"
        "    def write(self, data, sync=False, retries=0):\n"
        "        return data\n",
        root="def flush(sink):\n    sink.write(b'', sync=True)\n",
    )
    assert unpassed(package, roots) == {"pkg.used.Net.write:retries"}


def test_a_forwarded_value_passes_only_if_it_was_passed(tmp_path):
    used = (
        "def outer(p=1):\n    return middle(p=p)\n\n"
        "def middle(p=1):\n    return inner(p)\n\n"
        "def inner(p=1):\n    return p\n"
    )
    package, roots = build_symbols(
        tmp_path, used, root="from pkg.used import outer\nouter()\n"
    )
    assert unpassed(package, roots) == {
        "pkg.used.outer:p", "pkg.used.middle:p", "pkg.used.inner:p",
    }
    (tmp_path / "run.py").write_text("from pkg.used import outer\nouter(p=2)\n")
    assert unpassed(package, roots) == set()


def test_forwarded_kwargs_pass_only_what_their_callers_pass(tmp_path):
    used = (
        "def wrap(x, **options):\n    return target(x, **options)\n\n"
        "def target(x, y=1, z=2):\n    return x\n"
    )
    package, roots = build_symbols(
        tmp_path, used, root="from pkg.used import wrap\nwrap(1)\n"
    )
    assert unpassed(package, roots) == {
        "pkg.used.wrap:**options", "pkg.used.target:y", "pkg.used.target:z",
    }
    (tmp_path / "run.py").write_text("from pkg.used import wrap\nwrap(1, y=0)\n")
    assert unpassed(package, roots) == {"pkg.used.target:z"}


def test_a_function_read_as_a_value_counts_as_passed(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "def handler(event, retries=0):\n    return event\n\n"
        "def idle(event, retries=0):\n    return event\n",
        root="from pkg.used import handler\nTABLE = {'go': handler}\n",
    )
    assert unpassed(package, roots) == {"pkg.used.idle:retries"}


def test_calls_from_tests_do_not_count(tmp_path):
    package, _ = build_symbols(tmp_path, "def f(quiet=False):\n    return 1\n")
    for name, text in {
        "benchmarks/tests/test_f.py": "from pkg.used import f\nf(quiet=True)\n",
        "examples/tests/test_f.py": "from pkg.used import f\nf(quiet=True)\n",
        "examples/demo.py": "from pkg.used import f\nf()\n",
    }.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    roots = symbol_roots(tmp_path)
    assert [path.name for path in roots] == ["demo.py"]
    assert unpassed(package, roots) == {"pkg.used.f:quiet"}
