"""Statement-deletion mutation pass over `src/flowpath` (stdlib only).

For each statement inside a function of the chosen modules, replace that
statement with `pass` in a copy of the repository and run the tier-1 suite
with `-x`. A mutant the suite still passes survives: either the statement
is equivalent (the program behaves the same without it) or no test checks
what it does. Docstrings, `raise` and `pass` statements are not mutated,
nor is a statement that shares its line with a clause header (`if x: y`).

Each worker owns one copy of the tree, writes a mutant into it, runs the
suite and restores the file. Survivors and timeouts are printed with their
source line, then the counts.

    python tests/tools/mutate.py sched executor coord [--workers 2]
    python tests/tools/mutate.py coord:57    # only statements on line 57
"""
from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PKG = Path("src/flowpath")
SKIP_DIRS = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                   ".hypothesis")


def _bodies(node: ast.AST):
    """The statement lists directly under a statement."""
    for name in ("body", "orelse", "finalbody"):
        stmts = getattr(node, name, None)
        if stmts and isinstance(stmts, list) and isinstance(stmts[0],
                                                           ast.stmt):
            yield stmts
    for h in getattr(node, "handlers", ()):
        yield h.body
    for case in getattr(node, "cases", ()):
        yield case.body


def mutants(path: Path, only: int | None = None) -> list[tuple[int, int]]:
    """(first line, last line) of each statement to delete, in line order."""
    src = path.read_text()
    lines = src.splitlines()
    out = []

    def visit(stmts: list[ast.stmt], in_fn: bool) -> None:
        for i, s in enumerate(stmts):
            fn = isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            doc = (i == 0 and isinstance(s, ast.Expr)
                   and isinstance(s.value, ast.Constant)
                   and isinstance(s.value.value, str))
            if (in_fn and not fn and not doc
                    and not isinstance(s, (ast.Raise, ast.Pass))
                    and not lines[s.lineno - 1][:s.col_offset].strip()
                    and only in (None, s.lineno)):
                out.append((s.lineno, s.end_lineno))
            for body in _bodies(s):
                visit(body, in_fn or fn)

    visit(ast.parse(src).body, False)
    return sorted(out)


def apply(text: str, first: int, last: int) -> str:
    """`text` with lines first..last replaced by `pass`, numbering kept."""
    lines = text.split("\n")
    stmt = lines[first - 1]
    indent = stmt[:len(stmt) - len(stmt.lstrip())]
    lines[first - 1:last] = [indent + "pass"] + [""] * (last - first)
    return "\n".join(lines)


def run_suite(tree: Path, timeout: int) -> str:
    """"killed", "survived" or "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        r = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=tree, env=env, timeout=timeout, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if r.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+",
                    help="module names under src/flowpath, each optionally "
                         "with :LINE")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--timeout", type=int, default=90,
                    help="seconds per mutant")
    args = ap.parse_args(argv)
    jobs = []
    for spec in args.modules:
        name, _, line = spec.partition(":")
        rel = PKG / f"{name}.py"
        jobs += [(rel, a, b) for a, b in
                 mutants(ROOT / rel, int(line) if line else None)]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        trees: queue.Queue[Path] = queue.Queue()
        for w in range(max(1, args.workers)):
            tree = Path(tmp) / f"w{w}"
            shutil.copytree(ROOT, tree, ignore=SKIP_DIRS)
            trees.put(tree)

        def one(job: tuple[Path, int, int]) -> str:
            rel, first, last = job
            tree = trees.get()
            orig = (ROOT / rel).read_text()
            try:
                (tree / rel).write_text(apply(orig, first, last))
                return run_suite(tree, args.timeout)
            finally:
                (tree / rel).write_text(orig)
                trees.put(tree)

        counts = {"killed": 0, "survived": 0, "timeout": 0}
        with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
            for (rel, first, _last), verdict in zip(jobs, pool.map(one, jobs)):
                counts[verdict] += 1
                if verdict != "killed":
                    src = (ROOT / rel).read_text().split("\n")[first - 1]
                    print(f"{verdict}: {rel.name}:{first}: {src.strip()}",
                          flush=True)
    print(f"{len(jobs)} mutants: " + ", ".join(
        f"{n} {k}" for k, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
