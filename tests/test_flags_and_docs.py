"""CLI flags and docs resolve.

Every option a ``python -m repro`` subcommand declares in
``src/repro/__main__.py`` must be passed somewhere: by a test (a list or
tuple of strings that holds the command and the flag), by a CI step, or
on a ``python -m repro <command>`` line of README.md or EXPERIMENTS.md.  A flag
nothing passes is a knob nobody turns; ``FLAG_ALLOWLIST`` keeps one with
its reason.

The docs (README, DESIGN, EXPERIMENTS and the verify skill) must name
only what exists: every backticked instrument-like name (a layer prefix
such as ``storage.`` followed by a dotted lowercase name) is a
registered instrument, a span name, a module path under ``src/repro``
(or a name or file such a module defines) or a ``ReproConfig`` setting,
and every ``--flag`` on a ``python -m repro <command>`` line is an
option of that command.
"""

import ast
import re

from repro.api.config import ReproConfig
from tests.test_reachability import (
    PACKAGE,
    REPO,
    call_name,
    ci_steps,
    parse,
    repo_instruments,
)
from tests.test_settings_reachability import config_leaves

MAIN = PACKAGE / "__main__.py"
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")

#: Options kept although nothing passes them.
FLAG_ALLOWLIST = {
    "serve --host": "the bind address of a deployment: a server meant "
    "to be reached from another host needs it, and an address is "
    "configuration a deployer sets, not a tuning knob",
}

COMMAND = re.compile(r"-m\s+repro\s+([a-z]+)")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
INSTRUMENT_LIKE = re.compile(
    r"`((?:storage|csd|net|cluster|chaos|engine|db|compression|obs)"
    r"(?:\.[a-z0-9_]+)+)(?=[`{])"
)


def subcommand_options(path=MAIN):
    """``{command: {flag, ...}}`` for every ``add_parser`` of ``path``;
    a ``parents=[shared_options(...)]`` adds the flags its keywords
    switch on."""
    tree = parse(path.read_text())
    switched = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "shared_options":
            for node in ast.walk(fn):
                if isinstance(node, ast.If):
                    (flag,) = [
                        call.args[0].value for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and call_name(call) == "add_argument"
                    ]
                    switched[node.test.left.id] = flag
    parsers, options = {}, {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and call_name(node.value) == "add_parser"):
            command = node.value.args[0].value
            parsers[node.targets[0].id] = command
            flags = options.setdefault(command, set())
            for kw in node.value.keywords:
                if kw.arg == "parents":
                    flags.update(
                        switched[given.arg]
                        for parent in kw.value.elts
                        for given in parent.keywords
                        if given.arg in switched
                    )
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and call_name(node) == "add_argument"
                and getattr(node.func.value, "id", None) in parsers):
            options[parsers[node.func.value.id]].update(
                arg.value for arg in node.args
                if isinstance(arg, ast.Constant) and arg.value.startswith("--")
            )
    return options


def command_lines(lines):
    """``(command, flags)`` for every ``repro <command>`` in ``lines``,
    a trailing backslash continuing a line; a command's flags run to the
    next command or shell operator."""
    text = "\n".join(lines).replace("\\\n", " ")
    for line in text.splitlines():
        for part in re.split(r"[|;&]", line):
            matches = list(COMMAND.finditer(part))
            for match, following in zip(matches, matches[1:] + [None]):
                end = following.start() if following else len(part)
                yield match.group(1), set(FLAG.findall(part[match.end():end]))


def argv_pairs(tests_dir):
    """``(command, flag)`` pairs that a list or tuple of strings in
    ``tests_dir`` holds together."""
    pairs = set()
    for path in sorted(tests_dir.rglob("*.py")):
        text = path.read_text()
        if "'--" not in text and '"--' not in text:
            continue
        for node in ast.walk(parse(text)):
            if isinstance(node, (ast.List, ast.Tuple)):
                words = [
                    elt.value for elt in node.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ]
                flags = {w.split("=")[0] for w in words if w.startswith("--")}
                pairs.update((word, flag) for word in words for flag in flags)
    return pairs


def unpassed_flags(main=MAIN, repo=REPO):
    """``"command --flag"`` for every option no test, CI step, README.md
    or EXPERIMENTS.md line passes."""
    passed = argv_pairs(repo / "tests")
    lines = ci_steps(repo)
    for name in ("README.md", "EXPERIMENTS.md"):
        lines += (repo / name).read_text().splitlines()
    for command, flags in command_lines(lines):
        passed.update((command, flag) for flag in flags)
    return {
        f"{command} {flag}"
        for command, flags in subcommand_options(main).items()
        for flag in flags
        if (command, flag) not in passed
    }


def test_every_cli_flag_is_passed_by_a_test_ci_or_the_docs():
    found = unpassed_flags()
    stale = set(FLAG_ALLOWLIST) - found
    assert not stale, "allowlisted but now passed — drop:\n" + "\n".join(sorted(stale))
    dead = found - set(FLAG_ALLOWLIST)
    assert not dead, (
        "passed by no test, CI step, README or EXPERIMENTS line — delete "
        "the option (and what only it reaches) or show it in use:\n"
        + "\n".join(sorted(dead))
    )


def test_flags_count_only_beside_their_command(tmp_path):
    main = tmp_path / "main.py"
    main.write_text(
        "def shared_options(*, seed=None, out=None):\n"
        "    if seed is not None:\n"
        "        parent.add_argument('--seed')\n"
        "    if out is not None:\n"
        "        parent.add_argument('--out')\n\n"
        "def main():\n"
        "    run_p = sub.add_parser('run', parents=[shared_options(seed=1)])\n"
        "    run_p.add_argument('--fast')\n"
        "    show_p = sub.add_parser('show')\n"
        "    show_p.add_argument('--fast')\n"
    )
    assert subcommand_options(main) == {"run": {"--seed", "--fast"},
                                        "show": {"--fast"}}
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_run.py").write_text(
        "ARGV = ['run', '--fast']\n"
    )
    (tmp_path / "README.md").write_text(
        "python -m repro show | grep --fast\n"
        "python -m repro run \\\n  --seed 3\n"
    )
    (tmp_path / "EXPERIMENTS.md").write_text("")
    assert unpassed_flags(main, tmp_path) == {"show --fast"}


def known_names():
    """Registered instruments, span names, module paths (with the names
    and file a module defines) and settings of ``repro``."""
    names = set(repo_instruments().names)
    names.update(config_leaves(ReproConfig().to_dict()))
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        names.update((module, path.name))
        tree = parse(path.read_text())
        names.update(
            f"{module}.{target.id}" for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name)
        )
        for node in ast.walk(tree):
            # A span, or an instrument built outside the registry's
            # get-or-create (the overflow counter).
            if (isinstance(node, ast.Call)
                    and call_name(node) in ("begin", "Counter")
                    and node.args and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value)
    return names


def test_docs_name_only_instruments_spans_modules_and_flags_that_exist():
    known = known_names()
    options = subcommand_options()
    stale = []
    for name in DOCS:
        text = (REPO / name).read_text()
        for number, line in enumerate(text.splitlines(), 1):
            stale += [
                f"{name}:{number}: `{found}`"
                for found in INSTRUMENT_LIKE.findall(line)
                if found not in known
            ]
        for command, flags in command_lines(text.splitlines()):
            if command in options:
                stale += [
                    f"{name}: repro {command} {flag}"
                    for flag in sorted(flags - options[command] - {"--help"})
                ]
    assert not stale, (
        "the docs name what does not exist — fix the name or drop it:\n"
        + "\n".join(stale)
    )
