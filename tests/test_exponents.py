"""Exact rational exponent calculus: named profiles, identities, oscillatory families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictionlab.exponents import (
    critical_q,
    conjugate,
    exponent_profile,
    oscillatory_exponents,
    verify_identities,
)

F = Fraction


def test_profile_d3_a2_b1():
    prof = exponent_profile(3, 2, 1)
    assert prof.p0 == F(4, 3)
    assert prof.p0_prime == F(4)
    assert prof.theta == F(1, 2)
    assert prof.gamma == F(1, 3)
    assert prof.rho == F(6, 5)
    assert prof.sigma == F(3)


def test_profile_d2_a1_bhalf():
    prof = exponent_profile(2, 1, F(1, 2))
    assert prof.p0 == F(6, 5)
    assert prof.theta == F(2, 3)
    assert prof.gamma == F(1, 2)
    assert prof.rho == F(12, 11)
    assert prof.sigma == F(4)


def test_profile_d2_a1_bquarter():
    prof = exponent_profile(2, 1, F(1, 4))
    assert prof.p0 == F(10, 9)


def test_profile_accepts_rational_dimension():
    prof = exponent_profile(F(5, 2), F(3, 2), F(1, 2))
    assert prof.p0 == F(2 * (1 + F(1, 2)), 2 * 1 + F(1, 2))
    assert all(verify_identities(prof).values())


def test_profile_rejects_floats():
    with pytest.raises(TypeError, match="exact"):
        exponent_profile(3, 2.0, 1)


def test_profile_constraint_errors_name_the_inequality():
    with pytest.raises(ValueError, match="b > 0"):
        exponent_profile(3, 2, 0)
    with pytest.raises(ValueError, match="b <= a/2"):
        exponent_profile(3, 2, 2)
    # a <= 0 always violates b <= a/2 once b > 0, so that message fires
    with pytest.raises(ValueError, match="b <= a/2"):
        exponent_profile(3, 0, 1)
    with pytest.raises(ValueError, match="a < d"):
        exponent_profile(2, 2, 1)


def test_conjugate_exponent_needs_p_above_one():
    assert conjugate(F(4, 3)) == F(4)
    with pytest.raises(ValueError, match="needs p > 1"):
        conjugate(1)


def test_profile_ordering_invariants():
    prof = exponent_profile(3, 2, 1)
    assert 1 < prof.rho < prof.p0 < prof.sigma_prime < 2


def _profile_grid():
    # deterministic sweep over rational triples, including noninteger d
    out = []
    for d in (F(2), F(3), F(5, 2), F(7, 3), F(4)):
        for a_num in (1, 2, 3):
            a = d * F(a_num, a_num + 1)
            for b_den in (2, 3, 7):
                b = a / b_den
                out.append((d, a, b))
    return out


def test_identity_suite_holds_on_sweep():
    for d, a, b in _profile_grid():
        prof = exponent_profile(d, a, b)
        checks = verify_identities(prof)
        assert set(checks) == {
            "theta_balance",
            "gamma_balance",
            "gamma_theta_exchange",
            "offdiagonal_combination",
            "diagonal_midpoint",
            "duality_combination",
        }
        failed = [k for k, v in checks.items() if not v]
        assert not failed, "identities failed at (%s,%s,%s): %s" % (d, a, b, failed)


def test_companion_exponent_at_endpoint_is_two():
    for d, a, b in _profile_grid():
        prof = exponent_profile(d, a, b)
        assert critical_q(prof, prof.p0) == 2


_SHARE = st.fractions(min_value=0, max_value=1, max_denominator=1000)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    d=st.fractions(min_value=0, max_value=100, max_denominator=1000).filter(lambda d: d > 0),
    a_share=_SHARE.filter(lambda t: 0 < t < 1),
    b_share=_SHARE.filter(lambda t: t > 0),
)
def test_identities_hold_on_arbitrary_rationals(d, a_share, b_share):
    # every triple 0 < b <= a/2, 0 < a < d, with d any positive rational
    a = d * a_share
    b = a / 2 * b_share
    prof = exponent_profile(d, a, b)
    assert all(verify_identities(prof).values()), (d, a, b)
    assert critical_q(prof, prof.p0) == 2


def test_companion_exponent_examples():
    prof = exponent_profile(3, 2, 1)
    # q = b p'/(d-a+b); at p = 6/5 the dual is 6 and q = 3
    assert critical_q(prof, F(6, 5)) == F(3)
    assert critical_q(prof, F(4, 3)) == F(2)


def test_companion_exponent_rejects_p_one_and_beyond_endpoint():
    prof = exponent_profile(3, 2, 1)
    with pytest.raises(ValueError, match="infinite"):
        critical_q(prof, 1)
    with pytest.raises(ValueError, match="p <= p0"):
        critical_q(prof, F(3, 2))


def test_oscillatory_exponents_curvature_one():
    e = oscillatory_exponents(1)
    assert e.q0 == F(6)
    assert e.q1 == F(3)
    assert (e.rho_k, e.sigma_k) == (F(12, 11), F(4))
    assert (e.rho_1, e.sigma_1) == (F(6, 5), F(3))


def test_oscillatory_exponents_curvature_two():
    e = oscillatory_exponents(2)
    assert e.q0 == F(4)
    assert e.q1 == F(8, 3)
    assert (e.rho_k, e.sigma_k) == (F(6, 5), F(3))


def test_oscillatory_exponents_zero_curvature():
    e = oscillatory_exponents(0)
    assert e.q0 is None and e.rho_k is None and e.sigma_k is None
    assert e.q1 == F(4)
    assert (e.rho_1, e.sigma_1) == (F(12, 11), F(4))


def test_oscillatory_exponents_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        oscillatory_exponents(-1)


def test_oscillatory_duality_relations():
    # the diagonal family satisfies 1 - 1/rho + 1/sigma = 2/q0; the fold
    # family satisfies the analogous combination with value (k+1)/(k+3),
    # which differs from 2/q1 = (k+1)/(k+2) for every k
    for kappa in range(1, 9):
        e = oscillatory_exponents(kappa)
        combo = 1 - 1 / e.rho_k + 1 / e.sigma_k
        assert combo == F(2) / e.q0 == F(kappa, kappa + 2)
    for kappa in range(0, 9):
        e = oscillatory_exponents(kappa)
        combo1 = 1 - 1 / e.rho_1 + 1 / e.sigma_1
        assert combo1 == F(kappa + 1, kappa + 3)
        assert combo1 != F(2) / e.q1


def test_oscillatory_matches_profile_at_matching_regularity():
    # kappa = 1 diagonal family shares (rho, sigma) with the (2, 1, 1/2)
    # profile; the fold family at kappa = 1 shares them with (3, 2, 1)
    e = oscillatory_exponents(1)
    assert (e.rho_k, e.sigma_k) == (
        exponent_profile(2, 1, F(1, 2)).rho,
        exponent_profile(2, 1, F(1, 2)).sigma,
    )
    assert (e.rho_1, e.sigma_1) == (
        exponent_profile(3, 2, 1).rho,
        exponent_profile(3, 2, 1).sigma,
    )
