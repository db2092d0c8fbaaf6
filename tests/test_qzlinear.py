"""Exact integer linear algebra and solvability over the rationals mod 1."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeltile import (
    HALF,
    ZERO,
    InputError,
    IntMatrix,
    RationalMod1,
    qz_solution_set,
    smith_normal_form,
    solve_qz,
    verify_qz,
)

rationals = st.builds(
    RationalMod1,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)


# ---------------------------------------------------------------------------
# RationalMod1


def test_reduction_and_range():
    assert RationalMod1(3, 6) == RationalMod1(1, 2)
    assert RationalMod1(-1, 3) == RationalMod1(2, 3)
    assert RationalMod1(7, 7) == ZERO
    r = RationalMod1(10, 4)
    assert (r.numerator, r.denominator) == (1, 2)
    assert RationalMod1(5) == ZERO  # integers vanish mod 1


def test_constructor_rejects_junk():
    with pytest.raises(InputError):
        RationalMod1(1, 0)
    with pytest.raises(InputError):
        RationalMod1(0.5, 2)  # type: ignore[arg-type]
    with pytest.raises(InputError):
        RationalMod1(True, 2)  # type: ignore[arg-type]


def test_arithmetic_basics():
    third = RationalMod1(1, 3)
    assert third + third + third == ZERO
    assert HALF + HALF == ZERO
    assert -third == RationalMod1(2, 3)
    assert third - third == ZERO
    assert 5 * third == RationalMod1(5, 3)
    assert 3 * third == ZERO
    assert third + 7 == third
    assert str(RationalMod1(3, 4)) == "3/4"
    assert RationalMod1(1, 6).order() == 6


@given(rationals, rationals, rationals)
def test_addition_associative_commutative(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@given(st.integers(min_value=-20, max_value=20), rationals, rationals)
def test_integer_scaling_distributes(n, x, y):
    assert n * (x + y) == n * x + n * y


@given(rationals)
def test_reduction_idempotent_and_hash(x):
    again = RationalMod1(x.numerator, x.denominator)
    assert again == x
    assert hash(again) == hash(x)
    assert 0 <= x.numerator < x.denominator or (x.numerator, x.denominator) == (0, 1)


@given(
    st.integers(min_value=-(2**72), max_value=2**72),
    st.integers(min_value=-(2**72), max_value=2**72).filter(bool),
)
@example(0, 5)
@example(0, -5)
@example(7, -3)
@example(-(2**70) - 1, 2**70)
@example(2**70 + 3, -(2**70 + 1))
def test_normalisation_matches_fraction(n, d):
    r = RationalMod1(n, d)
    want = Fraction(n, d) - math.floor(Fraction(n, d))
    assert (r.numerator, r.denominator) == (want.numerator, want.denominator)


def test_ordering_follows_fractions():
    vals = [RationalMod1(k, 7) for k in range(7)] + [HALF, RationalMod1(2, 3)]
    as_fr = sorted(vals, key=lambda r: Fraction(r.numerator, r.denominator))
    assert sorted(vals) == as_fr


# ---------------------------------------------------------------------------
# IntMatrix


def test_matrix_construction_and_shape():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[(1, 2)] == 6
    with pytest.raises(InputError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix([[True, 0], [0, 1]])


def test_matmul_and_det():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).row(0) == (2, 1)
    assert a.det() == -2
    assert IntMatrix.identity(3).det() == 1
    assert IntMatrix([[2, 0], [0, 3]]).det() == 6
    # Bareiss on a known 3x3
    assert IntMatrix([[6, 1, 1], [4, -2, 5], [2, 8, 7]]).det() == -306


def test_apply_is_mod1():
    m = IntMatrix([[2, 1], [0, 3]])
    vec = [RationalMod1(1, 4), RationalMod1(1, 3)]
    out = m.apply(vec)
    assert out == [RationalMod1(5, 6), ZERO]


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    dec = smith_normal_form(IntMatrix.identity(2))
    assert dec.diagonal == (1, 1)
    assert dec.U @ IntMatrix.identity(2) @ dec.V == dec.D


def test_snf_diag_2_3():
    # gcd of entries is 1 and the product of invariant factors is |det| = 6
    dec = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert dec.diagonal == (1, 6)


def test_snf_zero_matrix():
    dec = smith_normal_form(IntMatrix([[0]]))
    assert dec.diagonal == (0,)
    assert dec.D[(0, 0)] == 0


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("seed", range(6))
def test_snf_invariants_random(seed):
    rng = random.Random(1000 + seed)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = _random_matrix(rng, rows, cols)
        dec = smith_normal_form(a)
        assert dec.U @ a @ dec.V == dec.D
        assert abs(dec.U.det()) == 1
        assert abs(dec.V.det()) == 1
        diag = dec.diagonal
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0 or diag[i] == 0:
                assert diag[i] == 0 or diag[i + 1] % diag[i] == 0
        # off-diagonal must be clean
        for i in range(dec.D.rows):
            for j in range(dec.D.cols):
                if i != j:
                    assert dec.D[(i, j)] == 0


def test_snf_deterministic():
    a = IntMatrix([[4, 6, 2], [2, 8, 4]])
    first = smith_normal_form(a)
    second = smith_normal_form(a)
    assert first.U == second.U and first.V == second.V and first.D == second.D


# ---------------------------------------------------------------------------
# solve_qz / verify_qz


def test_solve_divisible_stretch():
    # 2x = 1/3 is solvable because every element of Q/Z is divisible
    x = solve_qz(IntMatrix([[2]]), [RationalMod1(1, 3)])
    assert x == [RationalMod1(1, 6)]  # canonical smallest lift


def test_solve_zero_row_obstruction():
    assert solve_qz(IntMatrix([[0]]), [HALF]) is None


def test_solve_sum_difference_system():
    a = IntMatrix([[1, 1], [1, -1]])
    b = [HALF, ZERO]
    x = solve_qz(a, b)
    assert x is not None
    assert verify_qz(a, x, b)
    assert x[0] == x[1]
    assert 2 * x[0] == HALF


def test_verify_qz_examples():
    a = IntMatrix([[2]])
    assert verify_qz(a, [RationalMod1(1, 6)], [RationalMod1(1, 3)])
    assert not verify_qz(a, [RationalMod1(1, 3)], [RationalMod1(1, 3)])


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve_qz(IntMatrix([[1, 0]]), [ZERO, ZERO])
    with pytest.raises(InputError):
        verify_qz(IntMatrix([[1]]), [ZERO, ZERO], [ZERO])


@pytest.mark.parametrize("seed", range(4))
def test_solve_soundness_random(seed):
    rng = random.Random(2000 + seed)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = _random_matrix(rng, rows, cols, -3, 3)
        b = [RationalMod1(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(rows)]
        x = solve_qz(a, b)
        if x is not None:
            assert verify_qz(a, x, b)


@pytest.mark.parametrize("seed", range(4))
def test_solve_completeness_against_brute_force(seed):
    from _oracles import qz_brute

    rng = random.Random(3000 + seed)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = _random_matrix(rng, rows, cols, -3, 3)
        b = [RationalMod1(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(rows)]
        x = solve_qz(a, b)
        # brute force over denominators dividing lcm(den b) * prod(nonzero d_i)
        den = 1
        for r in b:
            den = den * r.denominator // __import__("math").gcd(den, r.denominator)
        for d in smith_normal_form(a).diagonal:
            if d:
                den *= d
        rows_list = [list(a.row(i)) for i in range(a.rows)]
        b_fr = [Fraction(r.numerator, r.denominator) for r in b]
        assert (x is not None) == qz_brute(rows_list, b_fr, den)


def test_solution_set_enumerates_everything():
    # 2x = 0 has exactly the solutions {0, 1/2}
    sol = qz_solution_set(IntMatrix([[2]]), [ZERO])
    assert sol is not None
    xs = sorted(v[0] for v in sol)
    assert xs == [ZERO, HALF]
    assert sol.count == 2
    # and each enumerated candidate actually solves the system
    a = IntMatrix([[2, 0], [0, 3]])
    b = [ZERO, RationalMod1(1, 3)]
    sol = qz_solution_set(a, b)
    assert sol is not None
    seen = set()
    for x in sol:
        assert verify_qz(a, x, b)
        seen.add(tuple(x))
    assert len(seen) == sol.count


def test_solution_set_none_matches_solve():
    assert qz_solution_set(IntMatrix([[0]]), [HALF]) is None


def _particular_by_apply(a, b):
    """Reference particular solution over RationalMod1 objects: ``U.apply``,
    the lift ``c_i / d_i`` of the reduced ``c_i``, then ``V.apply``."""
    snf = smith_normal_form(a)
    c = snf.U.apply(list(b))
    diag = snf.diagonal
    y = [ZERO] * a.cols
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ci:
                return None
        else:
            y[i] = RationalMod1(ci.numerator, ci.denominator * d)
    return tuple(snf.V.apply(y))


@pytest.mark.parametrize("seed", range(4))
def test_particular_solution_matches_apply_route(seed):
    rng = random.Random(4000 + seed)
    feasible = 0
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [[rng.choice((0, rng.randint(-6, 6))) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            entries[rng.randrange(rows)] = [0] * cols  # a zero row
        if rows >= 2 and rng.random() < 0.3:
            k = rng.randint(-2, 2)
            entries[1] = [k * v for v in entries[0]]  # rank-deficient
        a = IntMatrix(entries)
        b = [RationalMod1(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 5, 6, 12))) for _ in range(rows)]
        want = _particular_by_apply(a, b)
        sol = qz_solution_set(a, b)
        assert (sol is None) == (want is None), (entries, b)
        if sol is not None:
            feasible += 1
            assert sol.particular == want, (entries, b)
    assert feasible >= 30
