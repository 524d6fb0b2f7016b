"""`run_check` is the one place that times a check and that turns a budget
overrun (`BudgetExceeded`) into a skipped report."""

import pytest

from modinvar import analysis
from modinvar.checks import run_check
from modinvar.cli import load_scenario, run_scenario


def test_monomial_budget_is_skipped(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_KERNEL_MONOMIALS", 10)
    params = {"group": {"kind": "u", "n": 3, "q": 2},
              "generators": [1, 2, 4], "D": 6}
    rep = run_check("hilbert", params)
    assert rep.status == "skipped"
    assert rep.check == "hilbert" and rep.params == params
    assert rep.notes == "degree 4 needs 15 monomials, over the 10 budget"


def test_field_axioms_beyond_q9_is_skipped():
    rep = run_check("field_axioms", {"p": 2, "r": 4})
    assert rep.status == "skipped"
    assert rep.notes == "exhaustive check limited to q <= 9"


def test_enumeration_cap_is_skipped():
    rep = run_check("group_order", {"kind": "gl", "n": 2, "q": 3}, {"cap": 10})
    assert rep.status == "skipped" and "exceeds cap 10" in rep.notes


def test_other_exceptions_propagate():
    with pytest.raises(KeyError):
        run_check("group_order", {"kind": "gl", "n": 2}, {})


def test_every_report_is_timed():
    _, reports = run_scenario(load_scenario("orders_small"), quiet=True)
    assert len(reports) == 8
    assert all(r.millis > 0 for r in reports)
    assert run_check("gk_non_ci_conjecture", {}).millis > 0
