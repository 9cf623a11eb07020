"""Only the two field choices read ``AFFINE_MAX_DIM``: no builder or transform decides by size.

Whether a problem declares its ``hessian`` means only whether it is
quadratic, at any size. The size cap decides one thing, whether a field is
dense: in ``flows.standard_flow`` (the affine field or the oracle field) and
in ``transforms.lasso_dual_prox`` (the kept pieces or the oracle field). The
scan reads each module's syntax tree and finds every load of the name, bare
or as an attribute, with the top-level definition that holds it.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "saddleflow").glob("*.py"))
NAME = "AFFINE_MAX_DIM"
READERS = {("flows.py", "standard_flow"), ("transforms.py", "lasso_dual_prox")}


def _uses(tree, context) -> list:
    """(top-level definition, line) of each use of ``NAME`` in ``context`` (``ast.Load``, ``ast.Store``).

    The definition is None for a use at module level; the uses come in line order.
    """
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            named = getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if named == NAME and isinstance(node.ctx, context):
                found.append((owner, node.lineno))
    return sorted(found, key=lambda use: use[1])


def test_the_scan_sees_each_form_of_a_read():
    tree = ast.parse(
        "from .flows import AFFINE_MAX_DIM\n"
        "AFFINE_MAX_DIM = 128\n"
        "__all__ = ['AFFINE_MAX_DIM']\n"
        "def build(p):\n"
        "    def inner():\n"
        "        return p.dim <= AFFINE_MAX_DIM\n"
        "    return sf.AFFINE_MAX_DIM, inner\n"
        "class Holder:\n"
        "    cap = AFFINE_MAX_DIM\n"
    )
    assert _uses(tree, ast.Load) == [("build", 6), ("build", 7), ("Holder", 9)]
    assert _uses(tree, ast.Store) == [(None, 2)]


def test_the_cap_is_defined_in_flows_only():
    stores = {path.name: _uses(ast.parse(path.read_text()), ast.Store) for path in SOURCES}
    assert [name for name, found in stores.items() if found] == ["flows.py"]
    assert [owner for owner, _ in stores["flows.py"]] == [None]


def test_both_field_choices_read_the_cap():
    readers = set()
    for path in SOURCES:
        readers |= {(path.name, owner) for owner, _ in _uses(ast.parse(path.read_text()), ast.Load)}
    assert READERS <= readers


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_code_but_the_field_choices_reads_the_cap(path):
    reads = _uses(ast.parse(path.read_text()), ast.Load)
    assert [(owner, line) for owner, line in reads if (path.name, owner) not in READERS] == []
