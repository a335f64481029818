"""Exact rational exponent calculus for endpoint restriction estimates.

Every quantity here is a Fraction; no floating point enters. The module
computes the endpoint Lebesgue exponent and its companions from the two
regularity parameters (ball exponent a, decay exponent b) of a measure in
dimension d, the off-diagonal restricted-weak-type pair, the oscillatory
exponent families indexed by a curvature count, and the exact identities
of the interpolation that produces them (theta weights the L1 -> Linfty
endpoint in the two-estimate balance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

__all__ = [
    "ExponentProfile",
    "exponent_profile",
    "conjugate",
    "critical_q",
    "OscillatoryExponents",
    "oscillatory_exponents",
    "verify_identities",
]


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("exponent calculus is exact: pass int, Fraction, or string")
    return Fraction(x)


def conjugate(p: Fraction) -> Fraction:
    """Dual exponent p/(p-1); requires p > 1."""
    p = Fraction(p)
    if p <= 1:
        raise ValueError("conjugate exponent needs p > 1")
    return p / (p - 1)


@dataclass(frozen=True)
class ExponentProfile:
    """All derived exponents for ball-regularity a and decay b in dimension d."""

    d: Fraction
    a: Fraction
    b: Fraction
    p0: Fraction
    p0_prime: Fraction
    theta: Fraction
    gamma: Fraction
    rho: Fraction
    sigma: Fraction
    sigma_prime: Fraction


def exponent_profile(d, a, b) -> ExponentProfile:
    """Derive the exponent family from (d, a, b).

    Preconditions: 0 < b <= a/2 and 0 < a < d, all rational (d need not be
    an integer; only the difference d - a enters the formulas).
    """
    d = _frac(d)
    a, b = _frac(a), _frac(b)
    if not b > 0:
        raise ValueError("need b > 0")
    if not b <= a / 2:
        raise ValueError("need b <= a/2")
    if not a < d:
        raise ValueError("need a < d")
    D = d - a
    p0 = 2 * (D + b) / (2 * D + b)
    theta = D / (D + b)
    gamma = D / (D + 2 * b)
    rho, sigma = _offdiagonal_pair(D, b)
    prof = ExponentProfile(
        d=d,
        a=a,
        b=b,
        p0=p0,
        p0_prime=conjugate(p0),
        theta=theta,
        gamma=gamma,
        rho=rho,
        sigma=sigma,
        sigma_prime=conjugate(sigma),
    )
    assert 1 < prof.p0 < 2
    assert prof.rho < prof.p0 < prof.sigma_prime
    return prof


def critical_q(profile: ExponentProfile, p) -> Fraction:
    """The companion exponent q = b p'/(d-a+b) on the segment 1 < p <= p0.

    p = 1 is rejected: its companion is infinite and has no exact rational
    representation.
    """
    p = _frac(p)
    if p <= 1:
        raise ValueError("need p > 1 (the p = 1 companion exponent is infinite)")
    if p > profile.p0:
        raise ValueError("need p <= p0 = %s" % profile.p0)
    D = profile.d - profile.a
    return profile.b * conjugate(p) / (D + profile.b)


@dataclass(frozen=True)
class OscillatoryExponents:
    """Exponent families for curvature count kappa.

    q0 is defined for kappa >= 1, as are (rho_k, sigma_k); the fold family
    (q1, rho_1, sigma_1) is defined for kappa >= 0. Undefined entries are
    None.
    """

    q0: Optional[Fraction]
    q1: Fraction
    rho_k: Optional[Fraction]
    sigma_k: Optional[Fraction]
    rho_1: Fraction
    sigma_1: Fraction


def _offdiagonal_pair(D: Fraction, b: Fraction) -> Tuple[Fraction, Fraction]:
    rho = (D + 2 * b) * (D + b) / (D * D + 3 * b * D + b * b)
    sigma = (D + 2 * b) / b
    return rho, sigma


def oscillatory_exponents(kappa: int) -> OscillatoryExponents:
    """q0 = 2 + 4/kappa, q1 = (2 kappa + 4)/(kappa + 1), and their
    restricted-weak-type companion pairs (independent of the ambient
    dimension: only d - a = 1 enters the closed forms)."""
    kappa = int(kappa)
    if kappa < 0:
        raise ValueError("kappa must be a nonnegative integer")
    one = Fraction(1)
    if kappa >= 1:
        q0 = 2 + Fraction(4, kappa)
        rho_k, sigma_k = _offdiagonal_pair(one, Fraction(kappa, 2))
    else:
        q0 = None
        rho_k = None
        sigma_k = None
    q1 = Fraction(2 * kappa + 4, kappa + 1)
    rho_1, sigma_1 = _offdiagonal_pair(one, Fraction(kappa + 1, 2))
    return OscillatoryExponents(q0=q0, q1=q1, rho_k=rho_k, sigma_k=sigma_k, rho_1=rho_1, sigma_1=sigma_1)


def verify_identities(profile: ExponentProfile) -> dict:
    """Exact-arithmetic verification of the interpolation identity suite.

    Returns named booleans; every identity holds for every valid profile.
    """
    d, a, b = profile.d, profile.a, profile.b
    D = d - a
    th, ga = profile.theta, profile.gamma
    p0, p0p = profile.p0, profile.p0_prime
    rho, sig = profile.rho, profile.sigma
    checks = {}
    # balance defining theta: decay and growth rates cancel
    checks["theta_balance"] = (1 - th) * D == th * b
    # balance defining gamma (half-rate growth)
    checks["gamma_balance"] = (1 - ga) * D / 2 == ga * b
    # gamma-theta exchange
    checks["gamma_theta_exchange"] = ((1 - ga) * (1 - th / 2) == 1 - th) and (
        (1 - ga) * th / 2 + ga == th
    )
    # second-stage convex combination lands on the off-diagonal pair
    checks["offdiagonal_combination"] = (
        (1 - ga) * Fraction(1, 1) / p0 + ga * 1 == 1 / rho
    ) and ((1 - ga) * Fraction(1, 2) + ga * 0 == 1 / sig)
    # the diagonal point is the midpoint of the two off-diagonal points
    mid = (
        Fraction(1, 2) * (1 / rho + 1 - 1 / sig),
        Fraction(1, 2) * (1 / sig + 1 - 1 / rho),
    )
    checks["diagonal_midpoint"] = mid == (1 / p0, 1 / p0p)
    # duality combination
    checks["duality_combination"] = 1 - 1 / rho + 1 / sig == 2 / p0p == b / (D + b)
    return checks
