"""Count the statements of saddleflow that no shipped config and no benchmark input runs.

Usage: python tools/line_audit.py [CONFIG ...]

Runs each config through ``saddleflow.cli.main`` (``run``, into a temporary
output directory) under a ``sys.settrace`` line collector, after importing
this checkout's ``src/saddleflow`` under the same collector. It then prints,
per module of ``src/saddleflow``, the number of statements and of those that
never ran, and lists the unrun ones by their enclosing function.

A statement is an AST statement; docstrings are not counted. A simple
statement ran when a line event fired on one of its lines; a compound one
(``if``, ``for``, ``def``, ``try``, ...) when one fired on its own lines (its
header, not the lines of the statements it holds) or one of those
statements ran.

With no CONFIG, the configs are this checkout's configs/*.ini plus every
benchmark workload's inputs at the seeds ``compare_runs.BENCH_SEEDS``, as
``bench/inputs.py`` writes them into a temporary directory
(``compare_runs.default_configs``).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


@dataclass
class Statement:
    line: int
    function: str  # the enclosing function ("Class.method", "outer.inner"), or "<module>"
    own: frozenset  # its lines that no nested statement holds
    nested: list  # the statements it holds

    def ran(self, hits: set) -> bool:
        return bool(self.own & hits) or any(s.ran(hits) for s in self.nested)


def _is_docstring(body: list, i: int) -> bool:
    node = body[i]
    return (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _children(node) -> list:
    """The statements ``node`` holds directly (through handlers and match cases too), docstrings left out."""
    out = []
    for name, value in ast.iter_fields(node):
        items = value if isinstance(value, list) else [value]
        for i, child in enumerate(items):
            if isinstance(child, ast.stmt):
                if not (name == "body" and _is_docstring(items, i)):
                    out.append(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                out += _children(child)
    return out


def _statement(node: ast.stmt, function: str) -> Statement:
    inner = function
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inner = node.name if function == "<module>" else f"{function}.{node.name}"
    nested = [_statement(child, inner) for child in _children(node)]
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    lines = set(range(first, node.end_lineno + 1))
    for child in _children(node):
        lines -= set(range(child.lineno, child.end_lineno + 1))
    return Statement(node.lineno, function, frozenset(lines), nested)


def statements(source: str) -> list:
    """Every statement of a module's source, outermost first, docstrings left out."""
    tree = ast.parse(source)
    todo, out = [_statement(node, "<module>") for node in _children(tree)], []
    while todo:
        s = todo.pop(0)
        out.append(s)
        todo += s.nested
    return out


class LineCollector:
    """Lines that ran in ``files``, per file, while the collector is entered."""

    def __init__(self, files):
        self.hits = {str(f): set() for f in files}
        self._previous = None

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)

    def _call(self, frame, event, arg):
        hits = self.hits.get(frame.f_code.co_filename)
        if hits is None:
            return None  # no line events for other files

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line


def run_configs(configs, collector: LineCollector, out_dir: Path) -> list:
    """``saddleflow run`` of each config under ``collector``; the configs that exit non-zero."""
    from saddleflow import cli

    failed = []
    with collector:
        for i, config in enumerate(configs):
            argv = ["run", str(config), "--output-dir", str(out_dir / str(i)), "--quiet"]
            if cli.main(argv) != 0:
                failed.append(config)
    return failed


def report(collector: LineCollector) -> str:
    """Per-module counts of statements and unrun ones, then the unrun ones by function."""
    rows, listing = [], []
    for name, hits in sorted(collector.hits.items()):
        path = Path(name)
        found = statements(path.read_text())
        unrun = [s for s in found if not s.ran(hits)]
        rows.append((path.name, len(found), len(unrun)))
        by_function = {}
        for s in unrun:
            by_function.setdefault(s.function, []).append(s.line)
        for function, lines in by_function.items():
            listing.append(f"{path.name} {function} ({len(lines)}): {' '.join(map(str, sorted(lines)))}")
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    table = [f"{'module':<18}{'statements':>12}{'unrun':>8}"]
    table += [f"{name:<18}{count:>12}{unrun:>8}" for name, count, unrun in rows]
    return "\n".join(table + ["", "unrun statements, by enclosing function:"] + listing) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", type=Path, nargs="*",
                        help="default: configs/*.ini and the benchmark inputs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE / "src"))
    collector = LineCollector((HERE / "src" / "saddleflow").glob("*.py"))
    with collector:  # the module-level statements run once, at import
        importlib.import_module("saddleflow.cli")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        configs = [c.resolve() for c in args.configs]
        if not configs:
            import compare_runs

            configs = compare_runs.default_configs(work)
        failed = run_configs(configs, collector, work / "out")
    print(f"ran {len(configs)} configs through saddleflow.cli.main; {len(failed)} exited non-zero")
    for config in failed:
        print(f"  exited non-zero: {config}")
    print(report(collector), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
