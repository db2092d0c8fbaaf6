"""Roots-of-unity arithmetic: polynomials, zero tests, minimal vanishing
tuples, and the coefficient-of-1 retraction."""

import cmath
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from abeltile import cyclotomic
from abeltile import (
    CapacityError,
    CycElement,
    InputError,
    RationalMod1,
    cyclotomic_poly,
    enumerate_minimal_tuples,
    is_minimal_vanishing,
    mann_bound,
    retraction_coeff0,
    sum_roots_is_zero,
)

from _oracles import _phi_coeffs_desc, brute_minimal_tuples, zero_sum_of_roots


def r(num, den=1):
    return RationalMod1(num, den)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_poly_small_levels():
    assert cyclotomic_poly(1) == (-1, 1)  # x - 1
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)  # x² - x + 1
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)  # x⁴ - x² + 1


def test_poly_product_identity():
    # prod over d | L of the d-th polynomial is x^L - 1
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    for level in range(1, 61):
        prod = [1]
        for d in range(1, level + 1):
            if level % d == 0:
                prod = poly_mul(prod, list(cyclotomic_poly(d)))
        expect = [-1] + [0] * (level - 1) + [1]
        assert prod == expect, f"level {level}"


@pytest.mark.parametrize("level", [2310, 4620, 9240])
def test_poly_matches_sympy_at_high_levels(level):
    assert cyclotomic_poly(level) == _phi_coeffs_desc(level)[::-1]


def test_poly_builds_every_level_to_2000_within_five_seconds():
    # about 0.5 s on a 2-vCPU host; building each level as x^L - 1 divided
    # by the product of the lower levels took about 23 s there
    cyclotomic_poly.cache_clear()
    started = time.perf_counter()
    for level in range(1, 2001):
        cyclotomic_poly(level)
    assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# zero test


def test_zero_sum_examples():
    assert sum_roots_is_zero([r(0), r(1, 2)])
    assert sum_roots_is_zero([r(0), r(1, 3), r(2, 3)])
    assert not sum_roots_is_zero([r(0), r(1, 5)])
    assert sum_roots_is_zero([])  # empty sum


def test_zero_sum_matches_oracle_and_floats():
    # random phases on the 1/30 grid, so all reduced denominators are <= 30
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 8)
        thetas = [r(rng.randint(0, 29), 30) for _ in range(n)]
        exact = sum_roots_is_zero(thetas)
        oracle = zero_sum_of_roots(
            [Fraction(t.numerator, t.denominator) for t in thetas]
        )
        assert exact == oracle
        approx = sum(
            cmath.exp(2j * cmath.pi * t.numerator / t.denominator) for t in thetas
        )
        if exact:
            assert abs(approx) < 1e-9
        else:
            assert abs(approx) > 1e-9  # numeric sanity only; exact is authoritative


def test_minimal_vanishing():
    assert is_minimal_vanishing((r(0), r(1, 2)))
    assert is_minimal_vanishing((r(0), r(1, 3), r(2, 3)))
    # two antipodal pairs vanish but not minimally
    assert not is_minimal_vanishing((r(0), r(1, 2), r(1, 3), r(5, 6)))
    # full hexagon contains vanishing sub-triples
    assert not is_minimal_vanishing(tuple(r(t, 6) for t in range(6)))
    assert not is_minimal_vanishing((r(0),))


# ---------------------------------------------------------------------------
# order bound


def test_mann_bound_values():
    assert mann_bound(1) == 1
    assert mann_bound(2) == 2
    assert mann_bound(3) == 6
    assert mann_bound(4) == 6
    assert mann_bound(5) == 30
    assert mann_bound(6) == 30
    assert mann_bound(7) == 210
    with pytest.raises(InputError):
        mann_bound(0)


# ---------------------------------------------------------------------------
# minimal tuple enumeration


def test_tuples_k2():
    tuples = enumerate_minimal_tuples(2)
    assert [t.entries for t in tuples] == [(r(0), r(1, 2))]


def test_tuples_k3():
    tuples = enumerate_minimal_tuples(3)
    assert [t.entries for t in tuples] == [
        (r(0), r(1, 3), r(2, 3)),
        (r(0), r(2, 3), r(1, 3)),
    ]


def test_tuples_k4_empty():
    assert enumerate_minimal_tuples(4) == ()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tuples_match_unpruned_brute_force(k):
    expect = brute_minimal_tuples(k)
    got = [
        tuple(Fraction(e.numerator, e.denominator) for e in t.entries)
        for t in enumerate_minimal_tuples(k)
    ]
    assert got == expect


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_every_tuple_is_valid(k):
    for t in enumerate_minimal_tuples(k):
        assert len(t.entries) == k
        assert t.entries[0] == r(0)
        assert sum_roots_is_zero(t.entries)
        assert is_minimal_vanishing(t.entries)
        for e in t.entries:
            assert mann_bound(k) % e.denominator == 0


def test_tuples_capacity_and_input_errors():
    with pytest.raises(CapacityError):
        enumerate_minimal_tuples(7)
    with pytest.raises(InputError):
        enumerate_minimal_tuples(1)


# ---------------------------------------------------------------------------
# retraction


def test_retraction_examples():
    assert retraction_coeff0(r(0), 1) == 1
    assert retraction_coeff0(r(0), 12) == 1
    assert retraction_coeff0(r(1, 2), 2) == -1
    assert retraction_coeff0(r(1, 3), 3) == 0
    assert retraction_coeff0(r(2, 3), 3) == -1  # ζ² = -1 - ζ mod x²+x+1


def test_retraction_denominator_must_divide_level():
    with pytest.raises(InputError):
        retraction_coeff0(r(1, 3), 4)


def test_retraction_linearity():
    # coefficient-of-1 of a sum of monomials = sum of the per-monomial values
    rng = random.Random(7)
    for _ in range(50):
        level = rng.choice([2, 3, 4, 6, 12])
        powers = [rng.randint(0, level - 1) for _ in range(rng.randint(1, 5))]
        total = CycElement.zero(level)
        for t in powers:
            total = total + CycElement.root_power(level, t)
        assert total.coeff0() == sum(
            retraction_coeff0(r(t, level), level) for t in powers
        )


def test_retraction_column_matches_reduced_monomials():
    for level in range(1, 301):
        for t in range(level):
            want = CycElement.root_power(level, t).coeff0()
            assert retraction_coeff0(r(t, level), level) == want, (level, t)


def test_retraction_column_stays_small():
    # one integer per power of zeta, not a reduced vector per power
    cyclotomic._coeff0_column.cache_clear()
    tracemalloc.start()
    try:
        retraction_coeff0(r(1, 2000), 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_power_basis_levels_beyond_the_cap_are_refused():
    with pytest.raises(CapacityError):
        retraction_coeff0(r(1, 5001), 5001)
    with pytest.raises(CapacityError):
        CycElement.root_power(5001, 1)


def test_cyc_element_zero_iff_sum_vanishes():
    e = CycElement.root_power(6, 0) + CycElement.root_power(6, 2) + CycElement.root_power(6, 4)
    assert e.is_zero  # 1 + ζ₆² + ζ₆⁴ = 0
    f = CycElement.root_power(6, 0) + CycElement.root_power(6, 1)
    assert not f.is_zero
