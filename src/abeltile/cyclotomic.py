"""Exact arithmetic with roots of unity.

An element of Z[zeta_L] is an integer coefficient vector in the power basis
``1, zeta, ..., zeta^(phi(L)-1)`` modulo the L-th cyclotomic polynomial; since
that polynomial is the minimal polynomial of zeta_L, "all coefficients zero"
*is* the zero test, with no numerics involved.  One top-down reduction
modulo Phi_L serves the zero test and ``CycElement.root_power``; the witness
reads only the coefficient of 1 in ``zeta_L^t``, and gets it for every t from
a cached column of L integers built by the Phi_L recurrence.  On top of that
this module enumerates the minimal vanishing tuples used by the annihilator
decider: the ordered tuples ``(0, t_2, ..., t_k)`` of elements of Q/Z whose
unit vectors sum to zero with no vanishing proper subset, all orders dividing
the product of primes up to k.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache
from typing import Sequence

from .errors import CapacityError, InputError, _Record, _want_int
from .qzlinear import ZERO, RationalMod1

__all__ = [
    "cyclotomic_poly",
    "CycElement",
    "sum_roots_is_zero",
    "is_minimal_vanishing",
    "mann_bound",
    "MinimalTuple",
    "enumerate_minimal_tuples",
    "retraction_coeff0",
]


def _divisors(n: int) -> list:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _mobius(n: int) -> int:
    """Moebius function by trial division: 0 unless n is squarefree, else
    (-1) to the number of its prime factors."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@lru_cache(maxsize=None)
def cyclotomic_poly(L: int) -> tuple:
    """Coefficients (ascending) of the L-th cyclotomic polynomial.

    Computed from the Moebius product ``Phi_L = prod_(d | L) (x^d - 1)^mu(L/d)``:
    every binomial with mu = +1 is multiplied in first, then every binomial
    with mu = -1 is divided out by a top-down recurrence, exact because the
    running product is still a multiple of it.  Monic of degree phi(L).

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    _want_int(L, "level", 1)
    binomials = [(d, _mobius(L // d)) for d in _divisors(L)]
    p = [1]
    for d, mu in binomials:
        if mu == 1:  # p * (x^d - 1)
            p = [a - b for a, b in zip([0] * d + p, p + [0] * d)]
    for d, mu in binomials:
        if mu == -1:  # p / (x^d - 1): quotient coefficient q_(i-d) = p_i + q_i
            for i in range(len(p) - 1, d - 1, -1):
                p[i - d] += p[i]
            del p[:d]
    return tuple(p)


# Desk-scale honesty: beyond these levels the dense representations would
# silently eat minutes or gigabytes, so refuse loudly instead.  The caps are
# far above anything the decision procedures produce on in-capacity inputs.
_TABLE_LEVEL_CAP = 5_000
_ZERO_TEST_LEVEL_CAP = 10_000


def _check_table_level(L: int) -> None:
    if L > _TABLE_LEVEL_CAP:
        raise CapacityError(
            f"cyclotomic level {L} exceeds the power-basis table cap {_TABLE_LEVEL_CAP}"
        )


def _reduce(counts: list, L: int) -> list:
    """Power-basis coefficients of ``sum_t counts[t] x^t mod Phi_L``.

    Reduces top-down in place; Phi_L is monic, so the arithmetic stays in
    the integers.  ``counts`` has length L.
    """
    phi = cyclotomic_poly(L)
    deg = len(phi) - 1
    for i in range(L - 1, deg - 1, -1):
        lead = counts[i]
        if lead:
            counts[i] = 0
            base = i - deg
            for j in range(deg):
                counts[base + j] -= lead * phi[j]
    return counts[:deg]


@lru_cache(maxsize=None)
def _coeff0_column(L: int) -> tuple:
    """Coefficient of 1 in ``x^t mod Phi_L`` for 0 <= t < L.

    x^t = x^(t-d) x^d with x^d = -(phi_0 + ... + phi_(d-1) x^(d-1)) mod Phi_L,
    d = phi(L), and taking a coefficient is linear.
    """
    _check_table_level(L)
    phi = cyclotomic_poly(L)
    deg = len(phi) - 1
    terms = [(j, p) for j, p in enumerate(phi[:deg]) if p]
    col = [0] * L
    col[0] = 1
    for t in range(deg, L):
        base = t - deg
        col[t] = -sum(p * col[base + j] for j, p in terms)
    return tuple(col)


class CycElement(_Record):
    """An element of Z[zeta_L] in the power basis modulo Phi_L.

    >>> (CycElement.root_power(3, 0) + CycElement.root_power(3, 1)
    ...  + CycElement.root_power(3, 2)).is_zero
    True
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: tuple) -> None:
        deg = len(cyclotomic_poly(level)) - 1
        if len(coeffs) != deg:
            raise InputError(f"coefficient vector must have length phi({level}) = {deg}")
        self._fill(level, coeffs)

    @classmethod
    def zero(cls, L: int) -> "CycElement":
        deg = len(cyclotomic_poly(L)) - 1
        return cls(L, (0,) * deg)

    @classmethod
    def root_power(cls, L: int, t: int) -> "CycElement":
        """zeta_L ** t, reduced into the power basis."""
        _check_table_level(L)
        counts = [0] * L
        counts[t % L] = 1
        return cls(L, tuple(_reduce(counts, L)))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "CycElement") -> "CycElement":
        if self.level != other.level:
            raise InputError("mixed cyclotomic levels")
        return CycElement(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def coeff0(self) -> int:
        """Coefficient of zeta^0; the retraction functional on this ring."""
        return self.coeffs[0]


@lru_cache(maxsize=1 << 18)
def _zero_sum_cached(key: tuple) -> bool:
    # key: sorted tuple of (numerator, denominator) pairs
    L = math.lcm(*(d for _, d in key))
    if L > _ZERO_TEST_LEVEL_CAP:
        raise CapacityError(
            f"zero test needs cyclotomic level {L}, beyond the"
            f" {_ZERO_TEST_LEVEL_CAP} cap of this build"
        )
    counts = [0] * L
    for n, d in key:
        counts[n * (L // d)] += 1
    return not any(_reduce(counts, L))


def sum_roots_is_zero(thetas: Sequence[RationalMod1]) -> bool:
    """Exact zero test for ``e(theta_1) + ... + e(theta_n)``.

    Reduces the sum of monomials modulo the cyclotomic polynomial at the lcm
    of the denominators and tests for the zero vector.  The empty sum is zero.

    >>> sum_roots_is_zero([RationalMod1(0), RationalMod1(1, 2)])
    True
    >>> sum_roots_is_zero([RationalMod1(0), RationalMod1(1, 3), RationalMod1(2, 3)])
    True
    >>> sum_roots_is_zero([RationalMod1(0), RationalMod1(1, 5)])
    False
    """
    if not thetas:
        return True
    key = tuple(sorted((t.numerator, t.denominator) for t in thetas))
    return _zero_sum_cached(key)


@lru_cache(maxsize=1 << 16)
def _minimal_vanishing_cached(key: tuple) -> bool:
    if not _zero_sum_cached(key):
        return False
    k = len(key)
    # A proper subset vanishes iff its complement does, so it suffices to
    # look at subsets containing position 0, of size 1..k-1.
    rest = range(1, k)
    for r in range(0, k - 1):
        for combo in itertools.combinations(rest, r):
            sub = tuple(sorted((key[0],) + tuple(key[i] for i in combo)))
            if _zero_sum_cached(sub):
                return False
    return True


def is_minimal_vanishing(thetas: Sequence[RationalMod1]) -> bool:
    """True iff the unit vectors at ``thetas`` sum to zero and no proper
    non-empty sub-collection does."""
    if not thetas:
        return False
    key = tuple(sorted((t.numerator, t.denominator) for t in thetas))
    return _minimal_vanishing_cached(key)


@lru_cache(maxsize=None)
def mann_bound(k: int) -> int:
    """Product of the primes at most k (empty product = 1).

    After rotating one entry to zero, a minimal vanishing k-tuple of roots of
    unity only ever needs orders dividing this number.

    >>> [mann_bound(k) for k in range(1, 9)]
    [1, 2, 6, 6, 30, 30, 210, 210]
    """
    _want_int(k, "k", 1)
    out = 1
    for p in range(2, k + 1):
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            out *= p
    return out


class MinimalTuple(_Record):
    """Rotation-canonical minimal vanishing tuple: first entry 0, the unit
    vectors sum to zero, no proper subset vanishes, orders divide mann_bound(k)."""

    __slots__ = ("k", "entries")

    def __init__(self, k: int, entries: tuple) -> None:
        if len(entries) != k:
            raise InputError("length mismatch")
        if not entries or not entries[0].is_zero:
            raise InputError("canonical tuples start with 0")
        self._fill(k, entries)

    def sort_key(self):
        return tuple(e.as_fraction() for e in self.entries)


# The enumeration grows steeply with k: at k = 7 it does not finish in a
# minute, so longer tuples are refused.
_TUPLE_LENGTH_CAP = 6


def enumerate_minimal_tuples(k: int) -> tuple:
    """All rotation-canonical ordered minimal vanishing k-tuples, sorted.

    Depth-first enumeration of candidate multisets over the (1/M_k)-grid
    (first entry pinned to 0, the rest nondecreasing) with a conservative
    partial-sum magnitude prune, exact zero-sum and minimality validation,
    then expansion of each multiset into all distinct orderings that keep a
    zero in front.

    >>> [t.entries for t in enumerate_minimal_tuples(2)]
    [(RationalMod1(0, 1), RationalMod1(1, 2))]
    >>> len(enumerate_minimal_tuples(3)), len(enumerate_minimal_tuples(4))
    (2, 0)
    """
    if k < 2:
        raise InputError("tuples of length < 2 cannot vanish")
    if k > _TUPLE_LENGTH_CAP:
        raise CapacityError(
            f"minimal-tuple enumeration for k={k} exceeds the configured cap {_TUPLE_LENGTH_CAP}"
        )
    M = mann_bound(k)
    unit = [cmath.exp(2j * cmath.pi * t / M) for t in range(M)]
    multisets = []

    def dfs(start: int, chosen: list, acc: complex) -> None:
        remaining = (k - 1) - len(chosen)
        # each remaining unit vector can cancel at most 1 of |acc|
        if abs(acc) > remaining + 1e-9:
            return
        if remaining == 0:
            ts = [ZERO] + [RationalMod1(t, M) for t in chosen]
            if is_minimal_vanishing(ts):
                multisets.append(tuple(chosen))
            return
        for t in range(start, M):
            dfs(t, chosen + [t], acc + unit[t])

    dfs(0, [], 1 + 0j)

    out = set()
    for rest in multisets:
        for perm in set(itertools.permutations(rest)):
            out.add(tuple([ZERO] + [RationalMod1(t, M) for t in perm]))
    tuples = [MinimalTuple(k, entries) for entries in out]
    tuples.sort(key=MinimalTuple.sort_key)
    return tuple(tuples)


def retraction_coeff0(theta: RationalMod1, L: int) -> int:
    """Coefficient of zeta_L^0 in the power-basis reduction of zeta_L^(theta*L).

    A Z-linear functional on Z[zeta_L] that maps 1 to 1 — the computable
    stand-in for a retraction homomorphism onto the rationals.  Reducing a
    monomial keeps integer coefficients, so no denominator-clearing factor is
    ever needed.  The value is read from a per-level column of L integers,
    ``c_t = -sum_(j<d) phi_j c_(t-d+j)`` with d = phi(L) and ``c_t = [t = 0]``
    for t < d, cached after the first call; levels above 5,000 are refused
    with CapacityError.

    >>> retraction_coeff0(RationalMod1(0), 5)
    1
    >>> retraction_coeff0(RationalMod1(1, 2), 2)
    -1
    >>> retraction_coeff0(RationalMod1(1, 3), 3)
    0
    """
    _want_int(L, "level", 1)
    if L % theta.denominator != 0:
        raise InputError(f"denominator of {theta} does not divide level {L}")
    t = theta.numerator * (L // theta.denominator)
    return _coeff0_column(L)[t]
