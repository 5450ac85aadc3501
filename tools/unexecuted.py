"""Statements of the sadiclab package that its own traffic never executes.

    python tools/unexecuted.py

In one interpreter, under a `sys.settrace` line tracer limited to
src/sadiclab, this runs the tier-1 test suite (pytest, in process), each
demo in demos/ (as __main__, its printout discarded) and OPS ops of each
workload in perfbench/workloads.py: the workload's config for (SEED, op
index), `sadiclab.cli.run` into a temporary directory and
the workload's output check.  perfbench/ is only imported, never written.
Then it prints, per function of the package, the statements that never
ran, as `path:line qualname: lines ...`, or `never called`.

A statement counts as run when a line event fires on any of its lines (on
a header line, for a compound statement); `global`, `nonlocal`, `try`
and docstrings have no code of their own and are not listed.  Subprocesses
are not traced: the two `_assert_not_imported` tests of test_cli run
their statements in a fresh interpreter, so code that only they reach is
listed.  Standard library only, plus pytest for the suite.
"""

import ast
import contextlib
import glob
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sadiclab")
SEED = 1201                        # the workloads' seed
OPS = 30                           # ops of each workload
_NO_CODE = (ast.Global, ast.Nonlocal, ast.Try)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def install_tracer():
    """Start recording line events of package frames; returns
    {filename: set of line numbers}."""
    lines = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return local
        return None

    sys.settrace(calls)
    threading.settrace(calls)
    return lines


def statement_lines(stmt):
    """The lines whose execution shows that `stmt` ran."""
    if isinstance(stmt, _SCOPES + (ast.If, ast.For, ast.AsyncFor, ast.While,
                                   ast.With, ast.AsyncWith)):
        first = min([stmt.lineno] + [d.lineno for d in
                                     getattr(stmt, "decorator_list", [])])
        return range(first, max(stmt.body[0].lineno, stmt.lineno + 1))
    return range(stmt.lineno, stmt.end_lineno + 1)


def functions(tree):
    """(qualified name, def node) of every function, nested ones too."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPES):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    yield name, child
                yield from visit(child, name + ".")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def own_statements(func):
    """The statements of a function body, outside nested definitions,
    without its docstring and the statements that have no code."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant) and \
            isinstance(body[0].value.value, str):
        body = body[1:]
    todo = list(body)
    while todo:
        stmt = todo.pop(0)
        if not isinstance(stmt, _NO_CODE):
            yield stmt
        if isinstance(stmt, _SCOPES):
            continue
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(stmt, field, []):
                todo.extend(child.body if isinstance(
                    child, (ast.ExceptHandler, ast.match_case)) else [child])


def spans(numbers):
    """'3, 5-7' for [3, 5, 6, 7]."""
    out, numbers = [], sorted(numbers)
    for n in numbers:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(lines):
    """Print the unexecuted statements per function; returns their count."""
    missed = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        seen = lines.get(path, set())
        rel = os.path.relpath(path, ROOT)
        for name, func in functions(tree):
            stmts = list(own_statements(func))
            dead = [s for s in stmts if seen.isdisjoint(statement_lines(s))]
            if not dead:
                continue
            missed += len(dead)
            what = "never called" if len(dead) == len(stmts) else \
                "lines " + spans(s.lineno for s in dead)
            print(f"{rel}:{func.lineno} {name}: {what}")
    return missed


def run_traffic():
    """The suite, the demos and OPS ops of each benchmark workload."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors",
                        "--rootdir", ROOT, os.path.join(ROOT, "tests")])
    print(f"tests: pytest exit code {int(code)}", file=sys.stderr)
    for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(demo, run_name="__main__")
        print(f"demo: {os.path.basename(demo)}", file=sys.stderr)
    from sadiclab import cli
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS.values():
            failed = 0
            for index in range(OPS):
                config = workload.config(SEED, index)
                outdir = os.path.join(work, f"{workload.name}-{index}")
                try:
                    rc = cli.run(workload.subcommand, json.dumps(config), outdir)
                    failed += rc != 0 or workload.check(
                        config, outdir, index == 0) is not None
                except Exception as exc:   # the trace still counts what ran
                    print(f"{workload.name} op {index}: {exc!r}", file=sys.stderr)
                    failed += 1
            print(f"workload {workload.name}: {OPS} ops, {failed} failed",
                  file=sys.stderr)


def main():
    lines = install_tracer()
    try:
        run_traffic()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"{report(lines)} statements never ran", file=sys.stderr)


if __name__ == "__main__":
    main()
