"""Public-API stability manifest.

Snapshots the exported symbols and call signatures of the two surfaces
this redesign promises to keep stable — :mod:`repro.api` and
:mod:`repro.cluster.runtime` — into the checked-in
``src/repro/api/api_manifest.json``.  CI runs ``python -m
repro.api.manifest --check`` (and ``tests/api/test_manifest.py``): any
drift between the code and the manifest fails the build, so breaking an
exported signature requires an explicit, reviewable manifest update via
``python -m repro.api.manifest --update``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import sys
from typing import Any, Dict

#: The stability surface: every ``__all__`` symbol of these modules.
TRACKED_MODULES = ("repro.api", "repro.cluster.runtime")

MANIFEST_PATH = os.path.join(os.path.dirname(__file__), "api_manifest.json")


def _describe_callable(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _describe_class(cls) -> Dict[str, Any]:
    members: Dict[str, str] = {}
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            members[name] = "property"
        elif isinstance(member, classmethod):
            members[name] = "classmethod" + _describe_callable(
                member.__func__
            )
        elif isinstance(member, staticmethod):
            members[name] = "staticmethod" + _describe_callable(
                member.__func__
            )
        elif callable(member):
            members[name] = _describe_callable(member)
        else:
            members[name] = "attribute"
    return {
        "kind": "class",
        "signature": _describe_callable(cls),
        "members": members,
    }


def _describe(obj) -> Dict[str, Any]:
    if inspect.isclass(obj):
        return _describe_class(obj)
    if callable(obj):
        return {"kind": "function", "signature": _describe_callable(obj)}
    return {"kind": "constant", "type": type(obj).__name__}


def build_manifest() -> Dict[str, Any]:
    manifest: Dict[str, Any] = {}
    for module_name in TRACKED_MODULES:
        module = importlib.import_module(module_name)
        exported = sorted(module.__all__)
        manifest[module_name] = {
            "exports": exported,
            "symbols": {
                name: _describe(getattr(module, name)) for name in exported
            },
        }
    return manifest


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST_PATH) as handle:
        return json.load(handle)


def diff_manifest() -> str:
    """Empty string if the code matches the checked-in manifest."""
    try:
        recorded = load_manifest()
    except FileNotFoundError:
        return f"manifest missing: {MANIFEST_PATH}"
    current = build_manifest()
    if recorded == current:
        return ""
    lines = ["public API drift detected:"]
    for module_name in sorted(set(recorded) | set(current)):
        old = recorded.get(module_name, {})
        new = current.get(module_name, {})
        old_syms = old.get("symbols", {})
        new_syms = new.get("symbols", {})
        for name in sorted(set(old_syms) | set(new_syms)):
            if name not in new_syms:
                lines.append(f"  {module_name}.{name}: removed")
            elif name not in old_syms:
                lines.append(f"  {module_name}.{name}: added")
            elif old_syms[name] != new_syms[name]:
                lines.append(
                    f"  {module_name}.{name}: changed\n"
                    f"    recorded: {json.dumps(old_syms[name], sort_keys=True)}\n"
                    f"    current:  {json.dumps(new_syms[name], sort_keys=True)}"
                )
    lines.append(
        "if the change is intentional, regenerate with: "
        "python -m repro.api.manifest --update"
    )
    return "\n".join(lines)


def write_manifest() -> str:
    with open(MANIFEST_PATH, "w") as handle:
        json.dump(build_manifest(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return MANIFEST_PATH


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.manifest",
        description="check or update the public-API stability manifest",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if the code drifted from the manifest",
    )
    mode.add_argument(
        "--update", action="store_true",
        help="regenerate the manifest from the current code",
    )
    args = parser.parse_args()
    if args.update:
        print(f"wrote {write_manifest()}")
        return 0
    drift = diff_manifest()
    if drift:
        print(drift, file=sys.stderr)
        return 1
    print("public API matches the manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
