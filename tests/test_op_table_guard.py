"""One-table guard: only ``repro.common.ops`` knows what an op is.

The transports, the server and the client's ``_proc`` adapters look an
op up in the table; none of them may branch on an op's *name*.  This
fails on any comparison against an op-name string literal (``op ==
"select"``, ``op in ("insert", "update")``) in those files, and on the
table module importing anything of ``repro`` but ``repro.common`` at
module level.  Computed with ``ast`` alone over the source text; the op
names are read from the table's own ``OpSpec(code, "name", ...)`` rows.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
TABLE = PACKAGE / "common" / "ops.py"
#: file -> function-name prefix the guard covers ("" = the whole file).
GUARDED = {
    "api/transport.py": "",
    "api/client.py": "_proc",
    "net/client.py": "",
    "net/server.py": "",
}


def op_names(table_source):
    """The name literal of every ``OpSpec(...)`` row."""
    return {
        node.args[1].value
        for node in ast.walk(ast.parse(table_source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "OpSpec"
    }


def op_name_comparisons(source, names, prefix=""):
    """``line: text`` of every comparison against an op-name literal —
    in the whole file, or inside functions whose name starts with
    ``prefix``."""
    tree = ast.parse(source)
    scopes = [tree] if not prefix else [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith(prefix)
    ]
    found = set()
    for scope in scopes:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Compare):
                continue
            literals = {
                leaf.value
                for side in [node.left, *node.comparators]
                for leaf in ast.walk(side)
                if isinstance(leaf, ast.Constant)
            }
            if literals & names:
                found.add((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_the_table_names_all_eighteen_ops():
    names = op_names(TABLE.read_text())
    assert len(names) == 18
    assert {"hello", "flush", "select", "bulk_load", "space"} <= names


def test_no_guarded_file_compares_against_an_op_name():
    names = op_names(TABLE.read_text())
    offenders = [
        f"{relative}:{hit}"
        for relative, prefix in GUARDED.items()
        for hit in op_name_comparisons(
            (PACKAGE / relative).read_text(), names, prefix
        )
    ]
    assert not offenders, "\n".join(offenders)


def test_guard_catches_a_re_added_branch():
    names = op_names(TABLE.read_text())
    source = (PACKAGE / "net" / "server.py").read_text()
    branch = (
        "\n\ndef _call_args(op, args):\n"
        "    if op == 'bulk_load':\n"
        "        return args\n"
        "    if op in ('insert', 'update'):\n"
        "        return args\n"
    )
    hits = op_name_comparisons(source + branch, names)
    assert [hit.split(": ")[1] for hit in hits] == [
        "op == 'bulk_load'", "op in ('insert', 'update')"
    ]
    # Scoped to a prefix, only functions carrying it are searched.
    assert op_name_comparisons(source + branch, names, "_proc") == []
    assert len(op_name_comparisons(source + branch, names, "_call")) == 2


def test_the_table_is_a_leaf_module():
    imported = set()
    for node in ast.parse(TABLE.read_text()).body:  # module level only
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    inside = {name for name in imported if name.split(".")[0] == "repro"}
    assert inside and all(
        name.startswith("repro.common") for name in inside
    ), inside
