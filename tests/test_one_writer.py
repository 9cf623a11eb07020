"""Only ``integrate._overwrite`` writes files: nothing else in the library opens one for writing.

Every output of a run goes through that one writer, which writes over the old
bytes in place and cuts the file to length. A second ``open(path, "w")`` or
``Path.write_text`` would truncate on open again, one more idiom for an
output file. The scan reads each module's syntax tree: calls of ``open``
(the builtin, ``io.open`` and a path's ``open``), ``os.fdopen`` with a
writing mode, ``os.open`` with a writing flag, and ``write_text`` or
``write_bytes``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "saddleflow").glob("*.py"))
WRITER = ("integrate.py", "_overwrite")
WRITE_METHODS = ("write_text", "write_bytes")
WRITE_FLAGS = ("O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC")


def _argument(call: ast.Call, index: int, keyword: str):
    """The call's argument at position ``index`` or named ``keyword``; None if absent."""
    if len(call.args) > index:
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def _writes_by_mode(mode) -> bool:
    """A mode that is not a literal may write."""
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def _writes(tree) -> list:
    """(line, call) of each call in ``tree`` that opens a file for writing or writes one."""
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in WRITE_METHODS:
            writes = True
        elif name == "open" and owner == "os":
            flags = _argument(call, 1, "flags")
            writes = flags is not None and any(
                getattr(node, "attr", getattr(node, "id", None)) in WRITE_FLAGS for node in ast.walk(flags)
            )
        elif name == "fdopen" or (name == "open" and (owner == "io" or isinstance(func, ast.Name))):
            writes = _writes_by_mode(_argument(call, 1, "mode"))
        elif name == "open":  # a path's open(mode)
            writes = _writes_by_mode(_argument(call, 0, "mode"))
        else:
            writes = False
        if writes:
            found.append((call.lineno, ast.unparse(call)))
    return found


def _writer(tree) -> ast.FunctionDef:
    (writer,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == WRITER[1]]
    return writer


def test_the_writer_is_found_and_writes():
    (path,) = [path for path in SOURCES if path.name == WRITER[0]]
    assert _writes(_writer(ast.parse(path.read_text())))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_code_but_the_writer_writes_a_file(path):
    tree = ast.parse(path.read_text())
    allowed = _writes(_writer(tree)) if path.name == WRITER[0] else []
    assert [w for w in _writes(tree) if w not in allowed] == []


@pytest.mark.parametrize("code", [
    'open(p, "w")', 'open(p, mode="ab")', "open(p, mode)", 'open(p, "r+b")', 'io.open(p, "x")',
    'p.open("w")', 'p.open(mode="a")', 'os.fdopen(fd, "wb")', "os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)",
    "os.open(p, flags=O_RDWR)", "p.write_text(s)", "p.write_bytes(b)",
])
def test_the_scan_sees_each_way_to_write(code):
    assert len(_writes(ast.parse(code))) == 1


@pytest.mark.parametrize("code", [
    "open(p)", 'open(p, "rb")', "p.open()", 'p.open("r")', "os.open(p, os.O_RDONLY)",
    "p.read_text()", "fh.write(b)",
])
def test_the_scan_passes_reads(code):
    assert _writes(ast.parse(code)) == []
