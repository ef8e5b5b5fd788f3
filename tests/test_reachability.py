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
values reached goes with it.  A ``**mapping`` that is a local dict
display with constant keys, assigned once and never changed in place,
passes only those keys.

The same holds instrument by instrument.  Every counter, gauge,
histogram or series registered under ``src/repro`` must be read by
something that runs: the object the registration returns used for
anything but a write, or its name named outside a registration (a
string token, the constant holding it, or a CI step).  Metric dumps
(``snapshot``, ``state``, ``metrics_digest``) iterate without naming,
so they read nothing, and tests never count.

Every name has one import path.  A package ``__init__`` holds only its
docstring (the top-level one may also set ``__version__``), and every
absolute ``from repro.<m> import <n>`` in ``src/repro``, ``tests/``,
``benchmarks/`` and ``examples/`` names a module that defines ``<n>`` at
its top level, or a submodule ``<n>`` of ``<m>``: a name one module
imported is not imported from it again.  ``repro.api``, the client
facade, is the one exception.

Every ``self.<name>`` read under ``src/repro`` has a definition of
``<name>`` there, by name: an attribute store, a def or class, a
class-level name or a slot.  A deletion that misses one of its readers
fails here, not at run time.

Its mirror: every ``self.<name>`` store under ``src/repro`` (by ``=``,
``+=`` or an annotated assignment) is read by something that runs, the
symbol guard's places: an ``.<name>`` load outside the value stored to
that same name (``self.m = max(self.m, x)`` only feeds itself), or a
word of a string constant that is not a docstring.  A counter kept
outside the registry that nothing reads fails here.

The guards are computed with ``ast`` alone — nothing is imported.
"""

import ast
import functools
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

#: One parse per distinct source text: the guards share their trees.
parse = functools.lru_cache(maxsize=None)(ast.parse)


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
    for node in ast.walk(parse(path.read_text())):
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
    for node in parse(path.read_text()).body:
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
    ``__init__``."""
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
    for node in parse(path.read_text()).body:
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
    "100-byte rows through a 4-32 KiB memtable, and tests/baselines/"
    "test_lsm_properties.py through a 64-byte one (2 KiB, "
    "lsm.MEMTABLE_BYTES, by default)",
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
        stores, touched, displays = [], set(), {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.append(node.id)
            elif (isinstance(node, (ast.Subscript, ast.Attribute))
                  and isinstance(node.value, ast.Name)
                  and (isinstance(node, ast.Attribute)
                       or not isinstance(node.ctx, ast.Load))):
                touched.add(node.value.id)
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)
                  and isinstance(node.value, ast.Dict)
                  and all(isinstance(k, ast.Constant) for k in node.value.keys)):
                displays[node.targets[0].id] = {k.value for k in node.value.keys}
        # A parameter the body rebinds no longer holds what was passed.
        self.forwarded = set(self.checked) - set(stores)
        # A local dict display with constant keys, assigned once and never
        # touched through a subscript or a method, passes only its keys
        # as ``**name``.
        self.mappings = {
            name: keys for name, keys in displays.items()
            if stores.count(name) == 1 and name not in touched
        }
        self.node = fn


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
        elif (isinstance(kw.value, ast.Name) and enclosing is not None
              and kw.value.id in enclosing.mappings):
            for name in enclosing.mappings[kw.value.id]:
                keyword(name)
        else:
            keyword("*")
    if keywords and sig.var_kw:
        named.add(f"**{sig.var_kw}")
    return named, keywords


def parsed(package_dir, root_files=()):
    """``(path, module, tree)`` for every module of the package (``module``
    its dotted name) and every root file (``module`` None)."""
    sources = [(path, name) for name, path in package_modules(package_dir).items()]
    sources += [(path, None) for path in root_files]
    return tuple(
        (path, module, parse(path.read_text()))
        for path, module in sorted(sources, key=lambda source: str(source[0]))
    )


@functools.lru_cache(maxsize=None)
def call_graph(sources):
    """``(signatures, edges, values)`` of parsed ``sources``: every function
    of the package, every ``(signature, call, enclosing, tree)`` whose
    callee name matches, and the names read other than as a callee and
    never assigned."""
    sigs, calls, inits, bases, values, bound = [], [], {}, {}, set(), set()
    for _, module, tree in sources:
        found = scan(tree, module)
        sigs += found[0]
        calls += [(*call, tree) for call in found[1]]
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
        (sig, call, enclosing, tree)
        for call, name, enclosing, tree in calls
        for sig in by_name.get(name, ())
    ]
    return sigs, edges, values - bound


def unpassed(package_dir, root_files=()):
    """``module.Qualname:parameter`` for every checked parameter of the
    package that no call in the package or ``root_files`` passes."""
    sigs, edges, values = call_graph(parsed(package_dir, root_files))
    # A function read as a value (a table entry, a callback) may be
    # called with anything; a name something assigns is a variable.
    passed = {
        (sig.key, name)
        for sig in sigs if not sig.init and sig.names & values
        for name in sig.checked
    }
    extra = {}
    changed = True
    while changed:
        changed = False
        for sig, call, enclosing, _ in edges:
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


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------

#: Registry calls that register an instrument under their first argument.
REGISTERS = {"counter", "gauge", "histogram", "series"}
#: Instrument calls that only write.
WRITES = {"inc", "add", "record", "set", "append"}
#: The registry's own module: its calls register a name their caller
#: gave (``series``) or a ``state()`` capture holds (``merge_states``).
REGISTRY_MODULE = "repro.obs.metrics"
#: A dotted lowercase name, as instruments are named.
INSTRUMENT = re.compile(r"[a-z_][a-z0-9_]*(?:\.[a-z0-9_]+)+")

#: Registrations, by enclosing function, whose name no literal gives.
COMPUTED_NAMES = {
    "repro.obs.tracing.Tracer._finish": "the trace.<span>.total_us / "
    "self_us families, one pair per span the tracer names; which of them "
    "anything reads is ROADMAP's observability item (spans and flight-"
    "recorder events converge there)",
}

#: Instruments kept although nothing that runs reads them.
INSTRUMENT_ALLOWLIST = {
    "net.server.frame_errors": "tests/net/test_protocol_fuzz.py feeds a "
    "live server hostile bytes; a stream that loses framing is dropped "
    "without a reply, so this count is the only sign the server saw each "
    "probe",
}


@functools.lru_cache(maxsize=None)
def parents(tree):
    """Child node -> parent node, for every node of ``tree``."""
    return {
        child: node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }


def module_strings(tree):
    """Module-level ``NAME = "literal"`` constants of ``tree``."""
    return {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def written(node, up):
    """``node`` (an instrument) is only written, or only tested for None,
    where it stands: ``node.inc(...)``, ``node is not None``."""
    parent = up.get(node)
    if isinstance(parent, ast.Attribute) and parent.attr in WRITES:
        call = up.get(parent)
        return isinstance(call, ast.Call) and call.func is parent
    return (
        isinstance(parent, ast.Compare)
        and all(isinstance(op, (ast.Is, ast.IsNot)) for op in parent.ops)
        and all(isinstance(side, ast.Constant) and side.value is None
                for side in [parent.left, *parent.comparators] if side is not node)
    )


class Instruments:
    """What a package registers, and which of it anything reads.

    A registration is a ``counter``/``gauge``/``histogram``/
    ``series`` call outside the registry's own module.  Its name argument
    resolves through literals, f-strings, ``+``, module constants and, for
    a parameter of the enclosing function, the values every call that
    passes it gives.  The instrument is read if the object the call
    returns is used for anything but a write, held in a local or an
    attribute, or if its name appears outside a registration: as a token
    of a string or through the constant that holds it.
    """

    def __init__(self, package_dir, root_files=(), texts=()):
        self.sources = parsed(package_dir, root_files)
        sigs, self.edges, _ = call_graph(self.sources)
        self.sig_of = {sig.node: sig for sig in sigs}
        self.names = {}        # instrument name -> registering modules
        self.unresolved = {}   # enclosing function -> line
        self.read = set()
        self.handles = {}      # attribute or constant name -> instruments
        excluded = set()
        for path, module, tree in self.sources:
            if module is None or module == REGISTRY_MODULE:
                continue
            up = parents(tree)
            strings = module_strings(tree)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and call_name(node) in REGISTERS
                        and isinstance(node.func, ast.Attribute) and node.args):
                    continue
                scope = node
                while scope in up and not isinstance(scope, FUNCTIONS):
                    scope = up[scope]
                sig = self.sig_of.get(scope)
                arg = node.args[0]
                names = self.resolve(arg, sig, strings)
                excluded.update(id(n) for n in ast.walk(arg))
                if isinstance(arg, ast.Name) and arg.id in strings:
                    excluded.add(id(strings[arg.id]))
                    self.handles.setdefault(arg.id, set()).update(names or ())
                if names is None:
                    where = sig.key if sig else module
                    self.unresolved[where] = node.lineno
                    continue
                for name in names:
                    self.names.setdefault(name, set()).add(module)
                self.classify(node, names, scope, up)
        self.excluded = excluded
        self.read_by_name(texts)

    def resolve(self, node, sig, strings, depth=0):
        """The set of names ``node`` evaluates to, or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {node.value}
        if isinstance(node, ast.FormattedValue) and not node.format_spec:
            return self.resolve(node.value, sig, strings, depth)
        if isinstance(node, (ast.JoinedStr, ast.BinOp)):
            parts = node.values if isinstance(node, ast.JoinedStr) else (
                [node.left, node.right] if isinstance(node.op, ast.Add) else None
            )
            out = {""}
            for part in parts or [None]:
                values = part and self.resolve(part, sig, strings, depth)
                if values is None:
                    return None
                out = {a + b for a in out for b in values}
            return out
        if isinstance(node, ast.Name):
            if sig is not None and node.id in sig.positional + list(sig.keywords):
                return self.passed_values(sig, node.id, depth)
            if node.id in strings:
                return {strings[node.id].value}
        return None

    def passed_values(self, sig, param, depth):
        """Every value the calls that pass ``param`` of ``sig`` give."""
        if depth > 4:
            return None
        out = set()
        for callee, call, enclosing, tree in self.edges:
            if callee is not sig:
                continue
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                kw.arg is None for kw in call.keywords
            ):
                return None
            given = [kw.value for kw in call.keywords if kw.arg == param]
            if not given and param in sig.positional:
                index = sig.positional.index(param) - sig.skip
                given = call.args[index:index + 1]
            for arg in given:
                values = self.resolve(arg, enclosing, module_strings(tree), depth + 1)
                if values is None:
                    return None
                out |= values
        return out or None

    def classify(self, call, names, scope, up):
        """Mark ``names`` read if ``call``'s result is; remember where it
        is held."""
        parent = up.get(call)
        if isinstance(parent, ast.Expr) or written(call, up):
            return
        targets = parent.targets if isinstance(parent, ast.Assign) else []
        if not targets or not all(
            isinstance(t, (ast.Name, ast.Attribute)) for t in targets
        ):
            self.read |= names  # passed, returned or stored elsewhere
            return
        for target in targets:
            if isinstance(target, ast.Attribute):
                self.handles.setdefault(target.attr, set()).update(names)
            elif any(
                isinstance(node, ast.Name) and node.id == target.id
                and isinstance(node.ctx, ast.Load) and not written(node, up)
                for node in ast.walk(scope)
            ):
                self.read |= names

    def read_by_name(self, texts):
        """Mark every instrument read whose name a string, a CI step or a
        handle's use names, outside the registrations."""
        tokens = set()
        for text in texts:
            tokens.update(INSTRUMENT.findall(text))
        for _, _, tree in self.sources:
            up = parents(tree)
            prose = {
                id(node.value) for node in ast.walk(tree) if is_prose(node)
            }
            for node in ast.walk(tree):
                if id(node) in self.excluded or id(node) in prose:
                    continue
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    tokens.update(INSTRUMENT.findall(node.value))
                name = node.attr if isinstance(node, ast.Attribute) else (
                    node.id if isinstance(node, ast.Name) else None
                )
                if (name in self.handles and isinstance(node.ctx, ast.Load)
                        and not written(node, up)):
                    self.read |= self.handles[name]
        self.read |= tokens & set(self.names)

    def unread(self):
        return set(self.names) - self.read


@functools.lru_cache(maxsize=None)
def repo_instruments():
    """``src/repro``'s instruments, read from everything that runs."""
    return Instruments(PACKAGE, symbol_roots(), ci_steps())


def ci_steps(repo=REPO):
    """The CI workflow's lines, its comments dropped."""
    return [
        line for path in sorted((repo / ".github").rglob("*.yml"))
        for line in path.read_text().splitlines()
        if not line.lstrip().startswith("#")
    ]


def test_every_instrument_under_src_is_read_by_something_that_runs():
    found = repo_instruments()
    stale = set(COMPUTED_NAMES) - set(found.unresolved)
    assert not stale, "listed but now resolved — drop:\n" + "\n".join(sorted(stale))
    unlisted = set(found.unresolved) - set(COMPUTED_NAMES)
    assert not unlisted, (
        "registers a name no literal gives — resolve it or list it in "
        "COMPUTED_NAMES with its reason:\n" + "\n".join(sorted(unlisted))
    )
    unread = found.unread()
    stale = set(INSTRUMENT_ALLOWLIST) - unread
    assert not stale, "allowlisted but now read — drop:\n" + "\n".join(sorted(stale))
    dead = unread - set(INSTRUMENT_ALLOWLIST)
    assert not dead, (
        "read by nothing that runs — delete the instrument (and whatever "
        "bookkeeping exists only to feed it) or read it:\n"
        + "\n".join(sorted(dead))
    )


def test_an_instrument_is_read_through_the_object_it_returns(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "class Node:\n"
        "    def __init__(self, m):\n"
        "        self._writes = m.counter('node.writes')\n"
        "        self._spare = m.counter('node.spare')\n"
        "        self.latency = m.histogram('node.latency_us')\n"
        "        local = m.histogram('node.local_us')\n"
        "        local.record(1.0)\n"
        "        self.p95 = local.p95\n"
        "        m.counter('node.inline').add(1)\n"
        "    def write(self):\n"
        "        self._writes.inc()\n"
        "        if self._spare is not None:\n"
        "            self._spare.add(2)\n\n"
        "def timer(m):\n"
        "    return m.histogram('node.returned_us')\n",
        root="from pkg.used import Node\n"
        "def report(node):\n    return node.latency.mean\n",
    )
    found = Instruments(package, roots)
    assert found.unread() == {"node.writes", "node.spare", "node.inline"}


def test_an_instrument_is_read_through_its_name(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "HITS = 'b.hits'\n\n"
        "def setup(m):\n"
        "    '''Registers a.hits, b.hits, c.hits and d.hits.'''\n"
        "    m.counter('a.hits').inc()\n"
        "    m.counter(HITS).inc()\n"
        "    m.counter('c.hits').inc()\n"
        "    m.counter('d.hits').inc()\n",
        root="from pkg.used import HITS\n"
        "def check(m):\n"
        "    '''Reads c.hits.'''\n"
        "    return m.find('a.hits'), m.get(HITS)\n",
    )
    found = Instruments(package, roots, ["run: grep -c d.hits out.json"])
    assert found.unread() == {"c.hits"}
    assert Instruments(package, roots).unread() == {"c.hits", "d.hits"}


def test_a_computed_name_resolves_through_its_callers_or_is_listed(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "class Cache:\n"
        "    def __init__(self, size, m=None, prefix=None):\n"
        "        if m is not None:\n"
        "            m.counter(f'{prefix}.hits').inc()\n"
        "            m.counter(prefix + '.misses').inc()\n\n"
        "class Pool:\n"
        "    def __init__(self, m):\n"
        "        self.cache = Cache(8, m, prefix='pool')\n"
        "        self.spare = Cache(8)\n\n"
        "def span(m, name):\n"
        "    m.histogram(f'trace.{name}.us').record(1.0)\n\n"
        "def run(m, names):\n"
        "    for name in names:\n"
        "        span(m, name)\n",
        root="def check(m):\n    return m.get('pool.misses')\n",
    )
    found = Instruments(package, roots)
    assert set(found.names) == {"pool.hits", "pool.misses"}
    assert found.unread() == {"pool.hits"}
    assert set(found.unresolved) == {"pkg.used.span"}


def test_reads_from_tests_do_not_count(tmp_path):
    package, _ = build_symbols(
        tmp_path, "def setup(m):\n    m.counter('a.hits').inc()\n"
    )
    path = tmp_path / "benchmarks" / "tests" / "test_a.py"
    path.parent.mkdir(parents=True)
    path.write_text("def test_a(m):\n    assert m.get('a.hits').value\n")
    roots = symbol_roots(tmp_path)
    assert roots == []
    assert Instruments(package, roots).unread() == {"a.hits"}


def test_a_local_dict_display_passes_only_its_keys(tmp_path):
    used = (
        "def register(name, window=1, **labels):\n    return name\n\n"
        "def node(name):\n"
        "    labels = {'node': name}\n"
        "    return register('x', **labels)\n"
    )
    package, roots = build_symbols(tmp_path, used, root="import pkg.used\n")
    assert unpassed(package, roots) == {"pkg.used.register:window"}
    for change in ("labels.update(window=2)", "labels = dict(labels)"):
        (package / "used.py").write_text(used.replace(
            "    return register", f"    {change}\n    return register"
        ))
        assert unpassed(package, roots) == set(), change


#: The one package whose ``__init__`` re-exports: the client facade.
#: ``api_manifest.json`` tracks what it exports, and ``from repro.api
#: import PolarStore`` is the front door the examples and the e2e
#: benchmark use.
FACADE = "repro.api"


def is_version(node):
    """``__version__ = ...``, which the top-level package may keep."""
    return isinstance(node, ast.Assign) and [
        getattr(target, "id", None) for target in node.targets
    ] == ["__version__"]


def busy_inits(package_dir, facade=FACADE):
    """Packages other than ``facade`` whose ``__init__`` holds anything
    but its docstring (and, at the top, ``__version__``)."""
    found = set()
    for name, path in package_modules(package_dir).items():
        if path.name != "__init__.py" or name == facade:
            continue
        for node in parse(path.read_text()).body:
            if is_prose(node) or (name == package_dir.name and is_version(node)):
                continue
            found.add(name)
    return found


def top_level_bindings(path):
    """Names ``path`` defines at module level: defs, classes and
    assignment targets, inside top-level ``if``/``try``/``with``/``for``
    blocks too.  An import binds nothing here: a name is imported from
    the module that defines it."""
    names = set()

    def visit(body):
        for node in body:
            if isinstance(node, DEFS):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names.update(
                    name.id for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                )
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For)):
                for block in ("body", "orelse", "finalbody"):
                    visit(getattr(node, block, ()))
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body)

    visit(parse(path.read_text()).body)
    return names


def misdirected_imports(package_dir, files, facade=FACADE):
    """``(path, line, "module.name")`` for every absolute ``from <m>
    import <n>`` in ``files`` that reaches into the package at
    ``package_dir`` and names neither a submodule of ``<m>`` nor a name
    ``<m>`` defines.  ``facade`` is exempt."""
    modules = package_modules(package_dir)
    top = package_dir.name
    bindings = {}
    found = set()
    for path in files:
        for node in ast.walk(parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0):
                continue
            module = node.module
            if module == facade or module.split(".")[0] != top:
                continue
            for alias in node.names:
                if f"{module}.{alias.name}" in modules:
                    continue
                if module in modules:
                    if module not in bindings:
                        bindings[module] = top_level_bindings(modules[module])
                    if alias.name in bindings[module]:
                        continue
                found.add((path, node.lineno, f"{module}.{alias.name}"))
    return found


def import_roots(repo=REPO):
    """Every Python file of ``src/repro``, ``tests/``, ``benchmarks/`` and
    ``examples/``."""
    return [
        path for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((repo / top).rglob("*.py"))
    ]


def test_no_package_init_under_src_reexports():
    busy = busy_inits(PACKAGE)
    assert not busy, (
        "an __init__ holds more than its docstring — import each name from "
        "the module that defines it:\n" + "\n".join(sorted(busy))
    )


def test_every_name_is_imported_from_the_module_that_defines_it():
    found = misdirected_imports(PACKAGE, import_roots())
    assert not found, (
        "imported from a module that does not define it — import it from "
        "the one that does:\n" + "\n".join(
            f"{path.relative_to(REPO)}:{line}: {name}"
            for path, line, name in sorted(found)
        )
    )


def test_an_init_holds_only_its_docstring(tmp_path):
    package = tmp_path / "pkg"
    inits = {
        "": '"""Top."""\n__version__ = "1"\n',
        "api": '"""Facade."""\nfrom pkg.api.client import Client\n',
        "quiet": '"""Nothing else."""\n',
        "loud": '"""Re-exports."""\nfrom pkg.loud.leaf import f\n',
        "listed": '"""Lists."""\n__all__ = ["leaf"]\n',
        "versioned": '"""Not the top."""\n__version__ = "1"\n',
    }
    for sub, text in inits.items():
        (package / sub).mkdir(parents=True, exist_ok=True)
        (package / sub / "__init__.py").write_text(text)
    assert busy_inits(package, facade="pkg.api") == {
        "pkg.loud", "pkg.listed", "pkg.versioned",
    }


def test_an_import_names_the_defining_module_or_a_submodule(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        "from pkg.other import g\n"
        "def f():\n    return g()\n"
        "X = 1\n"
        "if X:\n    Y: int = 2\n"
        "try:\n    Z = 3\nexcept ImportError:\n    W = 4\n",
        root="import os\n"
        "from os import path\n"
        "from pkg.used import f, X, Y, Z, W\n"
        "from pkg.used import g\n"
        "from pkg import used, sub\n"
        "from pkg.sub import leaf, thing\n"
        "from pkg.api import Client\n"
        "def h():\n    from pkg.used import os\n",
    )
    (package / "other.py").write_text("def g():\n    return 1\n")
    (package / "sub").mkdir()
    (package / "sub" / "__init__.py").write_text('"""Sub."""\n')
    (package / "sub" / "leaf.py").write_text("V = 1\n")
    found = misdirected_imports(package, roots, facade="pkg.api")
    assert {name for _, _, name in found} == {
        "pkg.used.g", "pkg.sub.thing", "pkg.used.os",
    }
    assert {line for _, line, _ in found} == {4, 6, 9}


def undefined_attributes(package_dir):
    """``(path, line, name)`` for every ``self.<name>`` read under
    ``package_dir`` that nothing there defines, by name: an attribute
    store or delete on any object, a def or class, a class-level name
    (a dataclass field) or a ``__slots__`` entry.  Dunders are the
    object model's."""
    defined, reads = set(), []
    for path in sorted(package_dir.rglob("*.py")):
        for node in ast.walk(parse(path.read_text())):
            if isinstance(node, DEFS):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    for target in getattr(stmt, "targets", None) or [
                        getattr(stmt, "target", None)
                    ]:
                        if not isinstance(target, ast.Name):
                            continue
                        defined.add(target.id)
                        if target.id == "__slots__":
                            defined.update(
                                slot.value for slot in ast.walk(stmt.value)
                                if isinstance(slot, ast.Constant)
                            )
            elif isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Load):
                    defined.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    reads.append((path, node.lineno, node.attr))
    return {
        (path, line, name) for path, line, name in reads
        if name not in defined
        and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_self_attribute_read_under_src_has_a_definition():
    found = undefined_attributes(PACKAGE)
    assert not found, (
        "read through self but defined nowhere — a deletion left it "
        "dangling:\n" + "\n".join(
            f"{path.relative_to(REPO)}:{line}: self.{name}"
            for path, line, name in sorted(found)
        )
    )


def test_a_self_read_needs_a_store_def_class_name_or_slot(tmp_path):
    package, _ = build_symbols(
        tmp_path,
        "import dataclasses\n\n"
        "@dataclasses.dataclass\n"
        "class Row:\n"
        "    key: int\n"
        "    def k(self):\n        return self.key\n\n"
        "class Box:\n"
        "    __slots__ = ('slot',)\n"
        "    LIMIT = 3\n"
        "    def __init__(self):\n        self.items = []\n"
        "    def size(self):\n"
        "        return len(self.items) + self.LIMIT + self.slot\n"
        "    def grow(self):\n"
        "        self.items.append(self.__class__)\n"
        "        return self.size() + self._count + self.gone\n\n"
        "def reset(box):\n    box._count = 0\n",
    )
    assert {name for _, _, name in undefined_attributes(package)} == {"gone"}


# ---------------------------------------------------------------------------
# state that is only ever written
# ---------------------------------------------------------------------------

#: ``self.<name>`` stores kept although nothing that runs reads them.
WRITTEN_ALLOWLIST = {
    "repro.common.errors.PageCorruptionError.symptom": "a fault's "
    "diagnostic field, carried on the raised error; "
    "tests/storage/test_node_and_store.py reads it off the exception",
}

STORES = (ast.Assign, ast.AugAssign, ast.AnnAssign)


def stored_attributes(node):
    """The attribute targets an assignment stores to, on any object."""
    targets = getattr(node, "targets", None) or [node.target]
    return [
        leaf for target in targets for leaf in ast.walk(target)
        if isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store)
    ]


def attribute_reads(path):
    """Every name ``path`` reads: an ``.<name>`` load outside the value
    being stored to that same name (``self.m = max(self.m, x)`` only
    feeds itself), or a word of a string constant that is not a
    docstring (a ``getattr`` name, a wrap-table row)."""
    found = set()

    def visit(node, skip):
        if is_prose(node):
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in skip:
                found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(WORD.findall(node.value))
        for field, child in ast.iter_fields(node):
            scope = skip
            if field == "value" and isinstance(node, STORES):
                scope = skip | {leaf.attr for leaf in stored_attributes(node)}
            for each in child if isinstance(child, list) else [child]:
                if isinstance(each, ast.AST):
                    visit(each, scope)

    visit(parse(path.read_text()), frozenset())
    return found


def self_stores(path, module):
    """``(key, line, name)`` for every ``self.<name>`` store by ``=``,
    ``+=`` or an annotated assignment in ``path``; ``key`` is
    ``module.Class.name`` (the enclosing function's name stands in for a
    class outside one)."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef) or (
                isinstance(node, DEFS[:2]) and owner is None):
            owner = node.name
        if isinstance(node, STORES):
            found.extend(
                (f"{module}.{owner}.{leaf.attr}", leaf.lineno, leaf.attr)
                for leaf in stored_attributes(node)
                if isinstance(leaf.value, ast.Name) and leaf.value.id == "self"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(parse(path.read_text()), None)
    return found


def written_only(package_dir, root_files=()):
    """``(key, path, line)`` for every ``self.<name>`` store under
    ``package_dir`` whose name nothing in the package or ``root_files``
    reads."""
    modules = {path: name for name, path in package_modules(package_dir).items()}
    reads = set()
    for path in [*modules, *root_files]:
        reads |= attribute_reads(path)
    return {
        (key, path, line)
        for path, module in modules.items()
        for key, line, name in self_stores(path, module)
        if name not in reads
    }


def test_every_self_attribute_stored_under_src_is_read_by_something_that_runs():
    found = written_only(PACKAGE, symbol_roots())
    keys = {key for key, _, _ in found}
    stale = set(WRITTEN_ALLOWLIST) - keys
    assert not stale, "allowlisted but now read — drop:\n" + "\n".join(sorted(stale))
    dead = sorted(
        (path.relative_to(REPO), line, key) for key, path, line in found
        if key not in WRITTEN_ALLOWLIST
    )
    assert not dead, (
        "stored on self but read by nothing that runs — delete it, or read "
        "it where it matters:\n" + "\n".join(
            f"{path}:{line}: {key}" for path, line, key in dead
        )
    )


def test_written_only_state_is_reported_and_reads_are_found(tmp_path):
    package, roots = build_symbols(
        tmp_path,
        '"""Mentions docs only in a docstring."""\n'
        "class Box:\n"
        "    peak: int\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "        self.peak = 0\n"
        "        self.docs = 0\n"
        "        self.named = 0\n"
        "        self.used = 0\n"
        "        self.items = []\n"
        "    def add(self, item):\n"
        "        self.count += 1\n"
        "        self.items.append(item)\n"
        "        self.peak = max(self.peak, len(self.items))\n"
        "        return self.used\n",
        root="import pkg.used\n"
        "FIELDS = ('named',)\n",
    )
    assert {key for key, _, _ in written_only(package, roots)} == {
        "pkg.used.Box.count", "pkg.used.Box.peak", "pkg.used.Box.docs",
    }


def test_reads_of_stored_state_from_tests_do_not_count(tmp_path):
    package, _ = build_symbols(
        tmp_path, "class Box:\n    def __init__(self):\n        self.hits = 0\n"
    )
    path = tmp_path / "examples" / "tests" / "test_box.py"
    path.parent.mkdir(parents=True)
    path.write_text("def test_box(box):\n    assert box.hits == 0\n")
    roots = symbol_roots(tmp_path)
    assert roots == []
    assert {key for key, _, _ in written_only(package, roots)} == {
        "pkg.used.Box.hits",
    }
