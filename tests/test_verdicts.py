"""The one verdict rule: its truth table, and an AST scan that no other
module of the package produces a verdict by hand.

The scan flags a verdict literal that is returned, assigned, passed as a
call argument, or is a branch of a conditional expression.  Comparisons
such as ``report.verdict != "failed"`` read a verdict and stay allowed.
"""

import ast
import math
import pathlib

import pytest

from relqft.tolerances import Measurement, verdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relqft"
RULE = PACKAGE / "tolerances.py"
VERDICTS = {"verified", "failed", "vacuous", "no-certificate"}


def m(value, bound=1.0, sense="<="):
    return Measurement("m", value, bound, sense)


@pytest.mark.parametrize("measurement, holds", [
    (m(0.5), True), (m(1.0), True), (m(1.5), False),
    (m(1.5, sense=">="), True), (m(1.0, sense=">="), True),
    (m(0.5, sense=">="), False),
    (m(1.0, sense="=="), True), (m(0.5, sense="=="), False),
    (m(0, 0, "=="), True), (m(3, 0, "=="), False),
    (m(True, True, "=="), True), (m(False, True, "=="), False),
    (m(math.nan), False), (m(math.nan, sense=">="), False),
    (m(math.nan, sense="=="), False),
    # order_gap_unrestricted is inf when no frame of the battery is small
    (m(math.inf, -1e-9, ">="), True), (m(math.inf), False),
])
def test_each_sense(measurement, holds):
    assert measurement.holds is holds
    assert (measurement.margin >= 0.0) is holds
    assert verdict([measurement]) == ("verified" if holds else "failed")


def test_margins():
    assert m(0.25).margin == 0.75
    assert m(3.0, 1.0, ">=").margin == 2.0
    assert m(3, 1, "==").margin == -2.0
    # a met equality has margin +0.0, not -0.0
    assert math.copysign(1.0, m(1.0, sense="==").margin) == 1.0
    assert math.isnan(m(math.nan).margin)


def test_unknown_sense_is_rejected():
    with pytest.raises(KeyError):
        m(0.0, sense="<").holds


def test_precedence():
    met, missed = m(0.0), m(2.0)
    # no-certificate wins over vacuous, which wins over the measurements
    assert verdict([missed], premise=False, certified=False) == "no-certificate"
    assert verdict([met], premise=False, certified=False) == "no-certificate"
    assert verdict([met], certified=False) == "no-certificate"
    assert verdict([missed], premise=False) == "vacuous"
    assert verdict([met], premise=False) == "vacuous"
    assert verdict([met, missed]) == "failed"
    assert verdict([met, met]) == "verified"


def produced_verdicts(tree: ast.Module) -> list[int]:
    """Lines where a verdict literal is returned, assigned, passed to a
    call, or is a branch of a conditional expression."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Return, ast.Assign, ast.AnnAssign,
                             ast.AugAssign)):
            values = [node.value]
        elif isinstance(node, ast.IfExp):
            values = [node.body, node.orelse]
        elif isinstance(node, ast.Call):
            values = [*node.args, *(k.value for k in node.keywords)]
        else:
            continue
        lines += [v.lineno for v in values
                  if isinstance(v, ast.Constant) and v.value in VERDICTS]
    return sorted(lines)


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != RULE)


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_no_verdict_outside_the_rule(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = path.relative_to(ROOT).as_posix()
    found = [f"{rel}:{line}" for line in produced_verdicts(tree)]
    assert not found, "verdicts produced by hand:\n" + "\n".join(found)


def test_scan_finds_the_rule():
    # the scan must see the verdicts the rule itself returns
    tree = ast.parse(RULE.read_text(encoding="utf-8"))
    assert len(produced_verdicts(tree)) == 4
