"""The sources stay within the oldest Python that ``requires-python`` allows.

This checks grammar, not the whole API: ``ast.parse`` with
``feature_version=(3, 10)`` rejects syntax newer than Python 3.10, such as
``except*``, but not calls to functions or methods that 3.10 lacks.  Of
those, only ``BaseException.add_note`` (new in 3.11) is looked for.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_parses_as_python_3_10_without_add_note(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    add_note = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_note"
    ]
    assert not add_note, f"{path} calls add_note, new in Python 3.11, on lines {add_note}"


def test_sources_are_found():
    assert Path("src/infobalance/encodings.py") in SOURCES
