"""The benchmark's own metric helpers on the worked example."""

import math

from checks import b_cubed_counts, micro, muc_counts, prf

GOLD = [frozenset({"a", "b", "c"})]
PRED = [frozenset({"a", "b"}), frozenset({"c"})]


def test_muc_on_the_worked_example():
    assert muc_counts(GOLD, PRED) == (1, 2, 1, 1)
    assert math.isclose(prf(muc_counts(GOLD, PRED))[2], 2 / 3, rel_tol=1e-12)


def test_b_cubed_on_the_worked_example():
    p, r, f = prf(b_cubed_counts(GOLD, PRED))
    assert p == 1.0
    assert math.isclose(r, 5 / 9, rel_tol=1e-12)
    assert math.isclose(f, 5 / 7, rel_tol=1e-12)


def test_micro_sums_counts_over_units_before_dividing():
    gold = [frozenset({"a", "b"}), frozenset({"c", "d", "e"})]
    pred = [frozenset({"a"}), frozenset({"b"}), frozenset({"c", "d", "e"})]
    unit_of = {"a": "u1", "b": "u1", "c": "u2", "d": "u2", "e": "u2"}
    # recall: (0 + 2) / (1 + 2); precision: (0 + 2) / (0 + 2)
    p, r, _ = micro(muc_counts, gold, pred, unit_of)
    assert (p, r) == (1.0, 2 / 3)
