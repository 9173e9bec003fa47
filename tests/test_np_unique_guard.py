"""No plain ``np.unique(x)`` in ``src/``: use ``repro.utils.sorted_unique``.

Since numpy 2.3 ``np.unique`` without ``return_*`` keywords deduplicates
integer input through a hash table, which is 5-80x slower than sort + mask on
the arrays this library feeds it (docs/ARCHITECTURE.md, "Set-up pipeline").
The call sites were converted in one sweep; this AST check keeps the cliff
from coming back one call at a time.  Calls that ask for ``return_inverse`` /
``return_counts`` / ``return_index`` still sort inside numpy and are fine.
``np.union1d(a, b)`` is plain ``np.unique(concatenate((a, b)))`` under another
name (14-20x slower than ``sorted_unique(np.concatenate(...))`` on two
1,000- or 20,000-id arrays) and is flagged the same way.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The helper itself hands non-integer dtypes to ``np.unique``.
ALLOWED = {Path("utils/sorting.py")}


def plain_unique_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``np.unique(...)`` calls that pass no ``return_*`` keyword,
    and of every ``np.union1d(...)`` call."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in ("unique", "union1d")):
            continue
        if not (isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            continue
        if func.attr == "union1d" or not any(
            (kw.arg or "").startswith("return_") for kw in node.keywords
        ):
            lines.append(node.lineno)
    return lines


def test_the_check_sees_what_it_should():
    tree = ast.parse(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b = np.unique(x, return_inverse=True)\n"
        "c = numpy.unique(x, axis=0)\n"
        "d = sorted_unique(x)\n"
        "e = np.union1d(x, y)\n"
        "f = numpy.union1d(x, y)\n"
        "g = np.setdiff1d(x, y, assume_unique=True)\n"
    )
    assert plain_unique_calls(tree) == [2, 4, 6, 7]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.rglob("*.py")) if p.relative_to(SRC) not in ALLOWED],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_plain_np_unique(path: Path):
    lines = plain_unique_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, (
        f"{path.relative_to(SRC)}: plain np.unique / np.union1d at line(s) {lines}; "
        "use repro.utils.sorted_unique (or pass return_inverse / return_counts)"
    )
