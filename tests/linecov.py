"""Statement coverage of src/meltshift from the standard library alone.

``python -m pytest -p tests.linecov`` traces the lines that run in
src/meltshift (``sys.settrace``, and ``threading.settrace`` for threads
started during the session, such as the tape's pool thread). At the end
it fails the run when a statement in a function body never ran and
``ALLOW`` does not list it, or when an ``ALLOW`` entry no longer names an
unrun statement. Child processes, forked or started by subprocess, are
not traced: a line that runs only in one counts as unrun.
"""

import ast
import os
import sys
import threading

import pytest

import meltshift

SRC = os.path.dirname(meltshift.__file__)

# (file, function, first line of the statement): why no test runs it
ALLOW = {
    ("checkpoint.py", "_read_array",
     'raise FormatError(f"{path}: truncated array data in {name}")'):
        "load_checkpoint checks the file length against the array section "
        "first, so a short read needs the file to shrink during the load",
    ("checkpoint.py", "_read_array", "arr.byteswap(inplace=True)"):
        "runs only on a big-endian host",
    ("cli.py", "main", 'print(f"error: {exc}", file=sys.stderr)'):
        "every MeltshiftError subclass has its own handler above this one",
    ("cli.py", "main", "return 1"):
        "every MeltshiftError subclass has its own handler above this one",
    ("tape.py", "_run_pair", "global _pool"):
        "a global statement compiles to no code, so it emits no line event",
    ("tape.py", "__repr__",
     'tag = f" name={self.name!r}" if self.name else ""'):
        "Node.__repr__ is a debugging aid that no test prints",
    ("tape.py", "__repr__",
     'return f"<Node shape={self.value.shape}{tag}>"'):
        "Node.__repr__ is a debugging aid that no test prints",
}

ran: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(SRC) else None


def pytest_sessionstart(session):
    threading.settrace(_call)
    sys.settrace(_call)


def _own_statements(node):
    """Statements under ``node``, not descending into nested definitions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        if not isinstance(child, (ast.expr, ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _own_statements(child)


def _unrun(path):
    """``(file, function, text)`` -> line of each function-body statement of
    ``path`` that never ran; docstrings are not statements that run."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    unrun = {}
    for fn in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = fn.body[0] if ast.get_docstring(fn) is not None else None
            for stmt in _own_statements(fn):
                if stmt is not doc and (path, stmt.lineno) not in ran:
                    text = lines[stmt.lineno - 1].strip()
                    unrun[os.path.basename(path), fn.name, text] = stmt.lineno
    return unrun


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    unrun = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            unrun.update(_unrun(os.path.join(SRC, name)))
    problems = [f"unrun: {f}:{line} ({fn}): {text}"
                for (f, fn, text), line in unrun.items() if (f, fn, text) not in ALLOW]
    problems += [f"allowlisted but not unrun: {key}" for key in ALLOW if key not in unrun]
    if problems:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.ensure_newline()
        reporter.write_sep("-", "linecov")
        for problem in problems:
            reporter.write_line(problem)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
