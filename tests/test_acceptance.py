"""Acceptance gate: one test per criterion of the ``asianpde.acceptance``
registry, which holds the inputs and bounds.

Every test prints one line 'ACCEPTANCE <n>: PASS|FAIL - <detail>' so the
suite output doubles as the acceptance report.
"""
import pytest

from asianpde import acceptance
from asianpde.acceptance import CRITERIA, RUNTIME_BOUND_S, run


def check(n):
    ok, detail, _ = run(n)
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_registry_numbers_the_twelve_criteria():
    assert sorted(CRITERIA) == list(range(1, 13))


def test_runtime_bounds():
    assert RUNTIME_BOUND_S == {2: 30.0, 4: 60.0, 5: 300.0, 10: 600.0}


@pytest.mark.parametrize("n", sorted(RUNTIME_BOUND_S))
def test_run_fails_a_passing_criterion_past_its_runtime_bound(n, monkeypatch):
    monkeypatch.setitem(acceptance.CRITERIA, n, lambda: (True, "forced"))
    assert run(n)[:2] == (True, "forced")
    monkeypatch.setitem(acceptance.RUNTIME_BOUND_S, n, 0.0)
    passed, detail, seconds = run(n)
    assert not passed and seconds >= 0.0
    assert detail.startswith("forced; runtime ") and detail.endswith(
        ", bound 0s")


def test_criterion_1_kernel_normalization():
    check(1)


def test_criterion_2_reproduction_closed_form():
    check(2)


def test_criterion_3_residual_order():
    check(3)


def test_criterion_4_yor_kernel_mass():
    check(4)


def test_criterion_5_kernel_vs_mc_density():
    check(5)


def test_criterion_6_psi_oracle():
    check(6)


def test_criterion_7_psi_invariance():
    check(7)


def test_criterion_8_fd_cauchy_sequence_and_mass():
    check(8)


def test_criterion_9_envelope_sandwich():
    check(9)


def test_criterion_11_comparison_principle():
    check(11)


def test_criterion_10_dual_method_pricing():
    check(10)


def test_criterion_12_initial_datum_attainment():
    check(12)
