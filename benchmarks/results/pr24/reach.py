"""Function-level reachability of ``src/repro`` under the tier-1 suite.

Stdlib only (``coverage`` is not needed).  Runs pytest over a checkout's
``tests`` and ``benchmarks`` in this interpreter with a ``sys.setprofile``
hook, also installed on every new thread, that records each code object
entered.  Then walks every ``def`` under ``src/repro`` with ``ast`` and
reports the functions no test entered and the lines they span.

Usage (from any directory; the checkout defaults to the one holding this
file)::

    python benchmarks/results/pr24/reach.py [CHECKOUT] --out reach.json

Limits: a function counts as reached when it is entered once, however little
of it runs; calls made in forked pool workers and in subprocesses are not
seen (their functions are also called in-process by the inline backend).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
from pathlib import Path


def _definitions(root: Path) -> list[dict]:
    """Every function / method under ``root``: path, qualified name, the line
    its code object starts on (the first decorator's) and its line span."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    name = f"{prefix}{child.name}"
                    found.append({
                        "file": str(path.relative_to(root.parent.parent)),
                        "name": name,
                        "line": first,
                        "lines": child.end_lineno - first + 1,
                        "_key": (str(path.resolve()), first),
                        "_span": (first, child.end_lineno),
                    })
                    stack.append((child, f"{name}."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[3]))
    parser.add_argument("--out", required=True, help="JSON report path")
    args = parser.parse_args()
    checkout = Path(args.checkout).resolve()
    out = Path(args.out).resolve()
    src = checkout / "src"
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    os.chdir(checkout)

    import pytest

    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}
    definitions = _definitions(src / "repro")
    unreached = [d for d in definitions if d["_key"] not in reached]
    # Lines: the union of unreached spans per file (nested defs count once).
    per_file: dict = {}
    for d in unreached:
        per_file.setdefault(d["file"], set()).update(range(d["_span"][0], d["_span"][1] + 1))
    for d in definitions:
        del d["_key"], d["_span"]
    report = {
        "checkout": checkout.name,
        "pytest_exit": int(status),
        "functions": len(definitions),
        "unreached_functions": len(unreached),
        "unreached_lines": sum(len(lines) for lines in per_file.values()),
        "unreached_lines_by_file": dict(
            sorted(((f, len(lines)) for f, lines in per_file.items()), key=lambda kv: -kv[1])
        ),
        "unreached": unreached,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(
        f"{report['unreached_functions']} of {report['functions']} functions "
        f"({report['unreached_lines']} lines) never entered; pytest exit {status}"
    )
    for path, lines in list(report["unreached_lines_by_file"].items())[:15]:
        print(f"{lines:6d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
