"""tools/line_audit.py on one shipped config cut to a short horizon."""

import importlib.util
import sys
from pathlib import Path

import saddleflow.flows

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_audit", ROOT / "tools" / "line_audit.py")
line_audit = sys.modules["line_audit"] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(line_audit)


def test_statements_leave_docstrings_out_and_a_header_runs_with_its_body():
    source = 'def f(x):\n    """Doc."""\n    if x:\n        return 1\n    return 2\n'
    found = line_audit.statements(source)
    assert [(s.line, s.function) for s in found] == [(1, "<module>"), (3, "f"), (5, "f"), (4, "f")]
    header = found[1]
    assert header.own == frozenset({3}) and header.ran({4}) and not header.ran({5})


def test_a_short_run_runs_standard_flow_and_not_proximal_primal_dual(tmp_path):
    text = (ROOT / "configs" / "quadratic_standard.ini").read_text()
    assert "horizon = 25" in text
    config = tmp_path / "quadratic_standard.ini"
    config.write_text(text.replace("horizon = 25", "horizon = 1"))
    flows = Path(saddleflow.flows.__file__)
    collector = line_audit.LineCollector([flows])
    assert line_audit.run_configs([config], collector, tmp_path / "out") == []
    found, hits = line_audit.statements(flows.read_text()), collector.hits[str(flows)]

    def body(name):
        return [s for s in found if s.function == name or s.function.startswith(name + ".")]

    assert body("standard_flow") and all(s.ran(hits) for s in body("standard_flow"))
    assert body("proximal_primal_dual") and not any(s.ran(hits) for s in body("proximal_primal_dual"))
    assert "unrun statements, by enclosing function:" in line_audit.report(collector)
