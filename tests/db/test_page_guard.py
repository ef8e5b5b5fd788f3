"""``db/page.py`` is the only writer of a page's bytes and decoded view.

A :class:`~repro.db.page.Page` caches a decoded view of ``buf``; the
cache is only right while every write goes through the class's own
methods (``_write`` drops it, ``restore`` re-decodes it).  So no other
module under ``src/repro/`` may assign into a ``.buf``, call a method on
one, or touch ``_mods`` or the view attributes at all.  Computed with
``ast`` alone — nothing is imported.
"""

import ast

from tests.test_reachability import PACKAGE, package_modules

OWNER = "repro.db.page"
#: Private state of a Page: nobody else reads or writes these.
PRIVATE = {
    "_mods", "_slot_keys", "_slot_offsets", "_slot_lengths", "_free_offset",
}


def _is_buf(node):
    return isinstance(node, ast.Attribute) and node.attr == "buf"


def violations(source):
    """(line, what) for every forbidden access in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found.append((node.lineno, f"touches .{node.attr}"))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(_is_buf(sub) for t in targets for sub in ast.walk(t)):
                found.append((node.lineno, "assigns to or into .buf"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _is_buf(node.func.value)):
            found.append((node.lineno, f"calls .buf.{node.func.attr}()"))
    return found


def test_only_page_py_writes_page_bytes_or_view():
    modules = package_modules(PACKAGE)
    assert OWNER in modules
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {what}"
        for name, path in sorted(modules.items()) if name != OWNER
        for line, what in violations(path.read_text())
    ]
    assert not offenders, (
        "use Page's methods (Page.restore replaces a page's bytes):\n"
        + "\n".join(offenders)
    )


def test_guard_catches_each_kind_of_write():
    assert violations("page.buf[:] = image\n")
    assert violations("page.buf[3:5] += b'xy'\n")
    assert violations("page.buf = bytearray(8)\n")
    assert violations("del page.buf[0]\n")
    assert violations("page.buf.extend(b'x')\n")
    assert violations("page._mods = []\n")
    assert violations("n = len(page._slot_keys)\n")
    assert violations("a, page.buf[0] = 1, 2\n")
    # Reading the bytes is fine.
    assert not violations("x = bytes(page.buf[10:20])\nn = len(page.buf)\n")
    assert not violations("struct.unpack_from('<Q', page.buf, 8)\n")
