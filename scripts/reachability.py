"""List the functions and methods of the package that no command enters.

    PYTHONPATH=src python3 scripts/reachability.py

Imports the package and runs `cli.main` over the argv of the golden files
(`tests/test_golden.py`) and over EXTRA, the calls those miss, under a
`sys.setprofile` hook that records every code object it sees called (so
a function run only at import, such as `cli.arg`, counts).  Then prints
one line per module that has any: each function or method (nested ones
as `outer.inner`) that was never entered, with its line count, as

    module: name (lines), name (lines), ...

The commands' own output is discarded.  Exits 1 if any call exits
nonzero.  A dynamic list like this is a starting point, not a verdict:
a name that only larger inputs reach (say, a factoring fallback) is on it
too.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXTRA = [
    "selftest",
    "theta -d 1 --delta 3 -s 2",
    "rcount -d 2 --delta 5 -n 3 4 --check",
    "lvalue -d 1 -s -2",
    "lvalue -d 1 -s 5",
    "bench -d 1 --repeats 1",
    "alpha -d 1 -k 3 --delta 3",
    "hconst -d 1 -k 1 --delta 3 -z 1/3,1/5 --format json",
    "average -d 2 -k 4 --delta 5 --grid 8",
    "dims -d 1 --kmax 9",
    "basis -d 1 -k 5 --format csv",
    "basis -d 2 -k 8",
    "expandp -d 1 -k 7 --delta 3 --check",
    "cfrac -d 2 -z 3/7,2/5",
]


def definitions(path: Path) -> dict[int, tuple[str, int]]:
    """First line (the first decorator's, as a code object counts it) ->
    (qualified name, line count) of every function and method in `path`."""
    out = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[first] = (prefix + child.name, child.end_lineno - first + 1)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def main() -> int:
    entered: set[tuple[str, int]] = set()

    def hook(frame, event, arg) -> None:
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    failed = []
    sys.path.insert(0, str(ROOT / "tests"))
    sys.setprofile(hook)
    try:
        from test_golden import CASES

        from hermitia import cli

        for case in [*CASES, *EXTRA]:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(case.split())
            if code != cli.EXIT_OK:
                failed.append(f"{case}: exit {code}")
    finally:
        sys.setprofile(None)
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        missed = [
            f"{name} ({lines})"
            for first, (name, lines) in sorted(definitions(path).items())
            if (str(path), first) not in entered
        ]
        if missed:
            print(f"{path.stem}: {', '.join(missed)}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
