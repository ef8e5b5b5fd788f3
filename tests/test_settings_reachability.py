"""Settings-reachability guard: ``ReproConfig`` holds what a caller sets.

Every leaf of ``ReproConfig().to_dict()`` must be set to a non-default
value by code that is not a test — a module under ``src/repro`` (the CLI
included), a benchmark or an example.  A setting only tests turn on is a
constant.  A caller sets a leaf either as a config-dict key inside its
section (``{"net": {"window": args.window}}``) or as a keyword argument
of the same name to a constructor the config feeds
(``NodeConfig(opt_per_page_log=False)``, ``PolarDB(buffer_pool_pages=10)``).
What does not count: a literal equal to the default, and a pass-through
that forwards a value of the same name (``seed=seed``,
``replicas=store_cfg.replicas``) unless it reads a CLI option
(``args.window``).  Callers are found with ``ast`` alone.

No module under ``src/repro`` reads the environment either: a setting
an environment variable could switch would have no caller to find.
"""

import ast
import pathlib

from repro.api.config import ReproConfig
from tests.test_reachability import call_name

REPO = pathlib.Path(__file__).resolve().parent.parent

#: The config tree's declaration and the factory that forwards it are
#: wiring, not callers.
WIRING = {
    REPO / "src" / "repro" / "api" / "config.py",
    REPO / "src" / "repro" / "api" / "factory.py",
}

#: Leaves kept without a caller, each until the named change lands.
ALLOWLIST = {
    "engine.defer_gc": "benchmarks/e2e/layers.py's WRAP_TABLE names "
    "BlockDevice.gc_proc by name; it goes when that table is keyed by layer",
    "store.physical_bytes": "its only user is the defer-GC drain test in "
    "tests/csd/test_deferred_gc.py, so it goes with engine.defer_gc",
}

#: Calls whose keyword arguments set leaves of these sections.
FEEDS = {
    "NodeConfig": ("node",),
    "build_node": ("store", "device"),
    "PolarStore": ("store", "device"),
    "PolarDB": ("store", "db"),
}

#: The name every CLI handler gives the parsed argparse namespace.
CLI_NAMESPACE = "args"


def config_leaves(doc, prefix=""):
    """Dotted path -> default for every leaf of a ``to_dict`` tree."""
    leaves = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            leaves.update(config_leaves(value, f"{prefix}{key}."))
        else:
            leaves[f"{prefix}{key}"] = value
    return leaves


def assignments(tree):
    """Every ``(section, key, value node)`` a module sets.

    A dict's section is the key it sits under (``{"net": {...}}``,
    ``doc["net"] = {...}``) or the keyword it is passed as
    (``open(net={...})``); a ``FEEDS`` call's keywords set its sections.
    """
    sections = []  # (section name, dict node)
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(value, ast.Dict):
                    sections.append((key.value, value))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.slice, ast.Constant
                ):
                    sections.append((target.slice.value, node.value))
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg and isinstance(kw.value, ast.Dict):
                    sections.append((kw.arg, kw.value))
            for section in FEEDS.get(call_name(node), ()):
                for kw in node.keywords:
                    if kw.arg:
                        yield section, kw.arg, kw.value
    for section, doc in sections:
        for key, value in zip(doc.keys, doc.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield section, key.value, value


def cli_options(tree):
    """The destinations of every ``add_argument("--name", ...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and call_name(node) == "add_argument":
            dest = next(
                (kw.value.value for kw in node.keywords if kw.arg == "dest"),
                None,
            )
            for arg in node.args:
                if (
                    dest is None and isinstance(arg, ast.Constant)
                    and str(arg.value).startswith("--")
                ):
                    dest = arg.value[2:].replace("-", "_")
            if dest:
                yield dest


def sets_non_default(value, name, default, options):
    """Whether assigning ``value`` to leaf ``name`` is a real setting."""
    try:
        return ast.literal_eval(value) != default
    except ValueError:
        pass
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == CLI_NAMESPACE
        and value.attr in options
    ):
        return True
    forwarded = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(value)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return name not in forwarded


def unset_leaves(leaves, files):
    """Leaves no file in ``files`` sets to a non-default value."""
    trees = [ast.parse(path.read_text()) for path in files]
    options = {dest for tree in trees for dest in cli_options(tree)}
    reached = set()
    for tree in trees:
        for section, key, value in assignments(tree):
            for path, default in leaves.items():
                *parents, name = path.split(".")
                if (
                    parents and parents[-1] == section and name == key
                    and sets_non_default(value, name, default, options)
                ):
                    reached.add(path)
    return set(leaves) - reached


def caller_files():
    files = sorted((REPO / "src" / "repro").rglob("*.py"))
    files += sorted((REPO / "benchmarks").rglob("*.py"))
    files += sorted((REPO / "examples").rglob("*.py"))
    return [path for path in files if path not in WIRING]


def test_every_setting_has_a_caller_that_is_not_a_test():
    leaves = config_leaves(ReproConfig().to_dict())
    unset = unset_leaves(leaves, caller_files()) - set(ALLOWLIST)
    assert not unset, (
        "set by no caller outside tests/ — make it a constant or give it "
        "a caller:\n" + "\n".join(sorted(unset))
    )


def test_allowlist_names_live_leaves_that_still_need_it():
    leaves = config_leaves(ReproConfig().to_dict())
    assert set(ALLOWLIST) <= set(leaves)
    assert set(ALLOWLIST) <= unset_leaves(leaves, caller_files())
    assert all(reason.strip() for reason in ALLOWLIST.values())


def environment_reads(tree):
    """Line numbers where a module reads ``os.environ`` / ``os.getenv``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in ("environ", "getenv") for a in node.names):
                yield node.lineno


def test_no_module_reads_the_environment():
    reads = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        for line in environment_reads(ast.parse(path.read_text()))
    ]
    assert not reads, (
        "a setting comes from ReproConfig or a CLI option, never from "
        "the environment:\n" + "\n".join(reads)
    )


def test_environment_guard_sees_every_spelling():
    for source in (
        'import os\nX = os.environ.get("A")\n',
        'import os\nX = os.getenv("A")\n',
        "from os import environ\n",
    ):
        assert list(environment_reads(ast.parse(source))), source
    assert not list(environment_reads(ast.parse("import os\nos.getpid()\n")))


LEAVES = {"net.window": 64, "store.replicas": 3, "cluster.chunk_keys": 8}


def build_tree(tmp_path, sources):
    files = []
    for name, text in sources.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        files.append(path)
    return files


def test_key_set_only_under_tests_is_flagged(tmp_path):
    build_tree(tmp_path, {
        "tests/test_net.py": 'DOC = {"net": {"window": 8}}\n',
    })
    src = build_tree(tmp_path, {"src/pkg/run.py": "X = 1\n"})
    assert unset_leaves(LEAVES, src) == set(LEAVES)


def test_key_set_from_argparse_is_a_caller(tmp_path):
    src = build_tree(tmp_path, {
        "src/pkg/cli.py": (
            'parser.add_argument("--window", type=int, default=64)\n'
            "def cmd(args):\n"
            '    doc = {}\n'
            '    doc["net"] = {"window": args.window}\n'
        ),
    })
    assert "net.window" not in unset_leaves(LEAVES, src)


def test_pass_through_and_default_literal_are_not_callers(tmp_path):
    src = build_tree(tmp_path, {
        "src/pkg/wire.py": (
            "def build(store_cfg, window):\n"
            "    PolarStore(replicas=store_cfg.replicas)\n"
            '    open(net={"window": window})\n'
            '    return {"cluster": {"chunk_keys": 8}}\n'
        ),
    })
    assert unset_leaves(LEAVES, src) == set(LEAVES)


def test_keyword_to_a_fed_constructor_is_a_caller(tmp_path):
    src = build_tree(tmp_path, {
        "src/pkg/bench.py": 'PolarStore(replicas=5)\n',
    })
    assert unset_leaves(LEAVES, src) == {"net.window", "cluster.chunk_keys"}
