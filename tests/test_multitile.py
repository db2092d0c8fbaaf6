"""Z² multi-tiling decision: torus search, box refutation, dovetailing."""

import itertools
import random

import pytest

from abeltile import (
    BudgetExceededError,
    FinMap,
    GroupSpec,
    InputError,
    PeriodicMap,
    SearchBudget,
    TorusAssignment,
    box_refute,
    decide_multitile,
    periodic_search,
    verify_multitile,
)

from abeltile.multitile import _Csp

from _oracles import box_brute, torus_brute

Z2 = GroupSpec(2)
Z = GroupSpec(1)

DOMINO = FinMap.indicator(Z2, [(0, 0), (1, 0)])
DELTA_DIFF = FinMap(Z2, {(0, 0): 1, (1, 0): -1})
ONES = PeriodicMap.constant(Z2, 1)
TWOS = PeriodicMap.constant(Z2, 2)
THREES = PeriodicMap.constant(Z2, 3)


# --------------------------------------------------------- TorusAssignment


def test_assignment_validation():
    assert TorusAssignment(2, [0, 1, 1, 0]).bits == (0, 1, 1, 0)
    with pytest.raises(InputError):
        TorusAssignment(0, ())
    with pytest.raises(InputError):
        TorusAssignment(2, (0, 1, 1))  # wrong cell count
    with pytest.raises(InputError):
        TorusAssignment(1, (2,))
    with pytest.raises(InputError):
        TorusAssignment(1, (True,))


def test_assignment_periodic_map_and_render():
    a = TorusAssignment(2, (0, 0, 1, 1))
    pm = a.to_periodic_map()
    assert pm.period == 2 and pm.value((1, 0)) == 1 and pm.value((0, 1)) == 0
    # render is one text row per x, '#' for occupied
    assert a.render().splitlines() == ["..", "##"]


def test_budget_validation():
    with pytest.raises(InputError):
        SearchBudget(max_q=0)
    with pytest.raises(InputError):
        SearchBudget(max_box_radius=0)
    with pytest.raises(InputError):
        SearchBudget(max_nodes=0)


# ------------------------------------------------------------ the engine


def _signed_system(rng):
    """1-9 cells, 1-8 constraints with coefficients in ±{1, 2, 3} and targets
    in -3..4; half of the systems are planted on a hidden 0/1 assignment."""
    n = rng.randint(1, 9)
    hidden = [rng.randint(0, 1) for _ in range(n)] if rng.random() < 0.5 else None
    m, constraints = rng.randint(1, 8), []
    while len(constraints) < m:
        terms = [(rng.randrange(n), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(rng.randint(1, 4))]
        t = sum(c * hidden[v] for v, c in terms) if hidden else rng.randint(-3, 4)
        if -3 <= t <= 4:
            constraints.append((terms, t))
    return n, constraints


def test_engine_finds_the_lex_least_solution_of_signed_systems():
    # negative coefficients swap which slack each value of a cell uses up;
    # polyomino constraints (all coefficients 1) never take that branch
    rng = random.Random("signed-csp")
    solved = 0
    for _ in range(1500):
        n, constraints = _signed_system(rng)
        want = next(
            (list(bits) for bits in itertools.product((0, 1), repeat=n)
             if all(sum(c * bits[v] for v, c in terms) == t for terms, t in constraints)),
            None,
        )
        got, _ = _Csp(n, constraints).solve(10 ** 6)
        assert got == want, constraints
        solved += want is not None
    assert 500 <= solved <= 1000  # both outcomes are well represented


# ----------------------------------------------------------- torus search


def test_periodic_search_examples():
    assert periodic_search(FinMap.delta(Z2, (0, 0)), ONES, 1) == TorusAssignment(1, (1,))
    assert periodic_search(DOMINO, ONES, 1) is None  # 2·b = 1 has no 0/1 root
    square = FinMap.indicator(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    # one cell of the 2×2 torus: sum(f)·|A| = 4·1 is the sum of g over 4 cells
    assert periodic_search(square, ONES, 2) == TorusAssignment(2, (0, 0, 0, 1))
    sol = periodic_search(DOMINO, ONES, 2)
    assert sol == TorusAssignment(2, (0, 0, 1, 1))
    assert verify_multitile(DOMINO, ONES, sol)


def test_periodic_search_input_errors():
    with pytest.raises(InputError):
        periodic_search(DOMINO, ONES, 0)
    with pytest.raises(InputError):
        periodic_search(DOMINO, ONES, True)
    g2 = PeriodicMap(Z2, 2, [1, 0, 0, 1])
    with pytest.raises(InputError):
        periodic_search(DOMINO, g2, 3)  # 3 not a multiple of period 2
    with pytest.raises(InputError):
        periodic_search(FinMap.delta(Z, (0,)), ONES, 1)
    # the mass count rules out q = 1 for the domino (2·|A| = 1) without a
    # search, and max_nodes is still checked
    for bad in (0, True):
        with pytest.raises(InputError):
            periodic_search(DOMINO, ONES, 1, max_nodes=bad)


def test_periodic_search_matches_brute_force():
    rng = random.Random("torus")
    for _ in range(30):
        supp = {}
        for _ in range(rng.randint(1, 3)):
            p = (rng.randint(0, 2), rng.randint(0, 2))
            supp[p] = rng.choice([-1, 1, 2])
        f = FinMap(Z2, supp)
        q = rng.choice([1, 2, 3])
        g = PeriodicMap.constant(Z2, rng.randint(0, 2), q)
        want = torus_brute(f.entries, g.value, q)
        got = periodic_search(f, g, q)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.bits == want


def test_mass_count_skips_only_sides_without_solutions():
    # summed over the torus, f*1_A = g reads sum(f)·|A mod q| = sum of g over
    # [q]²; a side where no count 0..q² fits is skipped without a search, so it
    # must have no solution and must not spend a node, and a side where one
    # fits must still find the lex-least solution
    rng = random.Random("mass-count")
    fits_seen, skipped_sums = set(), set()
    for k in range(120):
        supp = {}
        for _ in range(rng.randint(1, 4)):
            supp[(rng.randint(0, 2), rng.randint(0, 2))] = rng.choice([-2, -1, 1, 2])
        f = FinMap(Z2, supp)
        if rng.random() < 0.5:
            g = PeriodicMap.constant(Z2, rng.randint(-1, 3))
        else:
            g = PeriodicMap(Z2, 2, [rng.randint(-1, 2) for _ in range(4)])
        # a side of 4 costs the brute force 2^16 patterns, so draw it rarely
        q = 4 if k % 40 == 0 else rng.choice([q for q in (1, 2, 3) if q % g.period == 0])
        total = sum(f.entries.values())
        mass = sum(g.value((x0, x1)) for x0 in range(q) for x1 in range(q))
        fits = any(total * n == mass for n in range(q * q + 1))
        fits_seen.add((q, fits))
        want = torus_brute(f.entries, g.value, q)
        if fits:
            got = periodic_search(f, g, q)
            assert (got and got.bits) == want
        else:
            skipped_sums.add((total > 0) - (total < 0))
            assert want is None
            assert periodic_search(f, g, q, max_nodes=1) is None
    assert {fits for _, fits in fits_seen} == {True, False}
    assert (4, False) in fits_seen
    assert skipped_sums == {-1, 0, 1}  # signed f and sum(f) = 0 are both skipped


def test_periodic_search_budget_error():
    # starve the search so it cannot finish the q = 4 torus
    with pytest.raises(BudgetExceededError):
        periodic_search(DOMINO, ONES, 4, max_nodes=2)


# ---------------------------------------------------------- box refutation


def test_box_refute_examples():
    assert box_refute(DOMINO, THREES, 0)  # coefficients can't reach 3
    assert not box_refute(DOMINO, ONES, 0)
    assert not box_refute(DOMINO, ONES, 2)
    assert not box_refute(DELTA_DIFF, ONES, 0)
    assert box_refute(DELTA_DIFF, ONES, 1)  # telescoping kills it fast
    assert box_refute(DELTA_DIFF, ONES, 2)  # refutations persist outward


def test_box_refute_matches_brute_force():
    rng = random.Random("box")
    for _ in range(20):
        supp = {}
        for _ in range(rng.randint(1, 2)):
            p = (rng.randint(-1, 1), rng.randint(-1, 1))
            supp[p] = rng.choice([-1, 1, 2])
        f = FinMap(Z2, supp)
        g = PeriodicMap.constant(Z2, rng.randint(0, 2))
        n = rng.randint(0, 1)
        assert box_refute(f, g, n) == box_brute(f.entries, g.value, n)


def test_box_refute_input_errors():
    with pytest.raises(InputError):
        box_refute(DOMINO, ONES, -1)
    with pytest.raises(InputError):
        box_refute(FinMap.delta(Z, (0,)), PeriodicMap.constant(Z, 1), 0)


# ------------------------------------------------------------ verification


def test_verify_multitile():
    assert verify_multitile(DOMINO, ONES, TorusAssignment(2, (0, 0, 1, 1)))
    assert verify_multitile(DOMINO, ONES, TorusAssignment(2, (0, 1, 1, 0)))  # other tiling
    assert not verify_multitile(DOMINO, ONES, TorusAssignment(2, (1, 1, 1, 1)))
    g2 = PeriodicMap(Z2, 2, [1, 0, 0, 1])
    with pytest.raises(InputError):
        verify_multitile(DOMINO, g2, TorusAssignment(1, (1,)))


# -------------------------------------------------------------- the decider


def test_decide_fixture_suite():
    v1 = decide_multitile(DOMINO, ONES)
    assert v1.answer == "YES"
    assert v1.certificate == TorusAssignment(2, (0, 0, 1, 1))
    assert v1.nodes_used == 3  # deterministic search, frozen count
    assert verify_multitile(DOMINO, ONES, v1.certificate)

    v2 = decide_multitile(DOMINO, TWOS)
    assert v2.answer == "YES"
    assert v2.certificate == TorusAssignment(1, (1,))

    v3 = decide_multitile(DOMINO, THREES)
    assert v3.answer == "NO"
    assert v3.refutation_box_radius == 0

    v4 = decide_multitile(DELTA_DIFF, ONES)
    assert v4.answer == "NO"
    assert v4.refutation_box_radius == 1
    # the NO certificate is reproducible straight from box_refute
    assert box_refute(DELTA_DIFF, ONES, v4.refutation_box_radius)


def test_decide_zero_f_paths():
    zero = FinMap.zero(Z2)
    v = decide_multitile(zero, PeriodicMap.constant(Z2, 0))
    assert v.answer == "YES"
    assert v.certificate.bits == (0,)
    assert v.nodes_used == 0  # every cell is dead, so nothing is branched on
    assert verify_multitile(zero, PeriodicMap.constant(Z2, 0), v.certificate)
    # non-zero g is hopeless; the box ladder finds it within the budget
    g = PeriodicMap(Z2, 2, [0, 0, 0, 1])
    w = decide_multitile(zero, g)
    assert w.answer == "NO"
    assert w.refutation_box_radius == 1  # the bad cell sits at (1,1)
    # f = 0 obeys the budget like any f: the bad cell (2,2) lies past radius 1
    far = [0] * 16
    far[2 * 4 + 2] = 1
    u = decide_multitile(zero, PeriodicMap(Z2, 4, far), SearchBudget(max_box_radius=1))
    assert u.answer == "UNKNOWN"
    assert "box radii [0, 1]" in u.budget_note


def test_decide_unknown_when_ladders_exhausted():
    v = decide_multitile(DOMINO, ONES, SearchBudget(max_q=1, max_box_radius=1, max_nodes=50))
    assert v.answer == "UNKNOWN"
    assert v.certificate is None and v.refutation_box_radius is None
    assert "exhausted" in v.budget_note
    assert "cut short" not in v.budget_note


def test_decide_unknown_notes_truncation():
    v = decide_multitile(DOMINO, ONES, SearchBudget(max_q=1, max_box_radius=1, max_nodes=1))
    assert v.answer == "UNKNOWN"
    assert "cut short" in v.budget_note


def test_decide_translation_invariance():
    rng = random.Random("mtshift")
    for _ in range(8):
        h = (rng.randint(-2, 2), rng.randint(-2, 2))
        a = decide_multitile(DOMINO.shift(h), ONES)
        assert a.answer == "YES"
        assert verify_multitile(DOMINO.shift(h), ONES, a.certificate)
        b = decide_multitile(DELTA_DIFF.shift(h), ONES)
        assert b.answer == "NO"


STAIRCASE = FinMap.indicator(Z2, [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])


@pytest.mark.parametrize("h", [(0, 0), (-2, -2)])
def test_decide_staircase_same_at_both_placements(h):
    # window cells no constraint reads are fixed to 0, so where f sits in the
    # window no longer multiplies the search by 2^(dead cells)
    v = decide_multitile(STAIRCASE.shift(h), ONES)
    assert v.answer == "NO"
    assert v.refutation_box_radius == 2
    # 41 = 5 + 13 + 23 box nodes: the mass count 6·|A mod q| = q² rules out
    # torus sides 1, 2 and 3, so the q = 3 search and its 5 nodes are skipped
    assert v.nodes_used == 41
    assert box_refute(STAIRCASE.shift(h), ONES, 2)


def test_decide_nodes_do_not_depend_on_placement():
    # shifting f by a period of g renames torus cells and translates the box
    # constraints, so the verdict and the decision count must not move
    rng = random.Random("placement")
    for _ in range(150):
        supp = {}
        for _ in range(rng.randint(1, 5)):
            supp[(rng.randint(0, 3), rng.randint(0, 3))] = rng.choice([-1, 1, 1, 2])
        f = FinMap(Z2, supp)
        if rng.random() < 0.5:
            g = PeriodicMap.constant(Z2, rng.randint(0, 2))
        else:
            g = PeriodicMap(Z2, 2, [rng.randint(0, 2) for _ in range(4)])
        h = (g.period * rng.randint(-2, 2), g.period * rng.randint(-2, 2))
        budget = SearchBudget(rng.randint(1, 6), rng.randint(1, 3), rng.choice([50, 500]))
        a = decide_multitile(f, g, budget)
        b = decide_multitile(f.shift(h), g, budget)
        assert (a.answer, a.nodes_used) == (b.answer, b.nodes_used)
        assert a.refutation_box_radius == b.refutation_box_radius


def test_decide_deep_search_does_not_overflow_the_stack():
    # radius 16 decides (2·16+1)² = 1089 cells on one branch, deeper than the
    # interpreter's default recursion limit
    f = FinMap(Z2, {(0, 0): 1, (40, 40): 1})
    v = decide_multitile(f, ONES, SearchBudget(max_q=1, max_box_radius=16))
    assert v.answer == "UNKNOWN"
    assert "cut short" not in v.budget_note


def test_decide_requires_z2():
    with pytest.raises(InputError):
        decide_multitile(FinMap.delta(Z, (0,)), PeriodicMap.constant(Z, 1))
