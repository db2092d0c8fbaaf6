"""Decision procedure for integer annihilators f*a = 0 and its witnesses."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from abeltile import annihilator
from abeltile import (
    AnnihilatorVerdict,
    CapacityError,
    CharacterVector,
    FinMap,
    GroupSpec,
    InputError,
    RationalMod1,
    decide_level_shift,
    decide_zero_annihilator,
    l1_norm,
    sum_roots_is_zero,
    unit_expansion,
    verify_annihilator,
    witness_periodic_annihilator,
)
from abeltile.qzlinear import HALF, ZERO

from _oracles import cyclic_annihilator_scan, zero_sum_of_roots

Z = GroupSpec(1)
Z2 = GroupSpec(2)
Z_X_ZMOD2 = GroupSpec(1, (2,))

HARD_NO = FinMap(Z, {(-1,): 3, (0,): -2, (1,): 3})
DOMINO = FinMap.indicator(Z, [(0,), (1,)])
TRIPLE = FinMap.indicator(Z, [(0,), (1,), (2,)])


def r(n, d):
    return RationalMod1(n, d)


# ------------------------------------------------------------- the decider


def test_hard_instance_is_no():
    v = decide_zero_annihilator(Z, HARD_NO)
    assert v.answer == "NO"
    assert v.witness_character is None
    assert v.witness_map is None
    assert not v.is_yes


def test_domino_yes_with_period_two_witness():
    v = decide_zero_annihilator(Z, DOMINO)
    assert v.is_yes
    assert v.witness_character.order == 2
    assert v.witness_character.etas == (HALF,)
    assert v.witness_map.period == 2
    assert v.witness_map.values == (1, -1)
    assert verify_annihilator(DOMINO, v.witness_map)


def test_triple_yes_with_period_three_witness():
    v = decide_zero_annihilator(Z, TRIPLE)
    assert v.is_yes
    assert v.witness_character.order == 3
    assert v.witness_map.values == (1, 0, -1)


@pytest.mark.parametrize("c", [2, 3, -2])
def test_scaled_delta_is_no(c):
    # a single weighted point never admits an annihilator
    v = decide_zero_annihilator(Z, FinMap.delta(Z, (0,), c))
    assert v.answer == "NO"


def test_full_cyclic_group_is_yes():
    # indicator of all of Z/2: any nontrivial character sums it to zero
    g = GroupSpec(0, (2,))
    v = decide_zero_annihilator(g, FinMap.indicator(g, [(0,), (1,)]))
    assert v.is_yes
    assert v.witness_map.value((0,)) == 1


def test_z6_reported_character_is_pinned():
    # Pins the reported character, not only the verdict: 1/6 (period 6) also
    # kills f-hat, and which one comes first follows the particular solution
    # of the Q/Z solve and the order of the candidate scan.
    g = GroupSpec(0, (6,))
    v = decide_zero_annihilator(g, FinMap(g, {(1,): -2, (4,): -2}))
    assert v.is_yes
    assert [str(e) for e in v.witness_character.etas] == ["1/2"]
    assert v.witness_map.period == 2


def test_decider_input_errors():
    with pytest.raises(InputError):
        decide_zero_annihilator(Z, FinMap.zero(Z))
    with pytest.raises(InputError):
        decide_zero_annihilator(Z2, DOMINO)


def test_decider_capacity_error():
    with pytest.raises(CapacityError):
        decide_zero_annihilator(Z, HARD_NO, cap=4)  # l1 = 8 > 4


def test_partition_beyond_the_candidate_cap_is_refused():
    # a killing character exists, but the Q/Z solve of the single block
    # leaves 2 * 10^9 candidates to enumerate
    with pytest.raises(CapacityError):
        decide_zero_annihilator(Z, FinMap(Z, {(0,): 1, (10**9,): 1}))


def test_witness_beyond_the_cell_cap_is_refused():
    # the order-2 character kills f, but its witness on Z^20 has 2^20 cells
    z20 = GroupSpec(20)
    f = FinMap(z20, {(0,) * 20: 1, (1,) + (0,) * 19: 1})
    with pytest.raises(CapacityError, match="cap of this build"):
        decide_zero_annihilator(z20, f)


def test_large_order_witness_reverifies():
    f = FinMap(Z, {(0,): 1, (1999,): 1})
    v = decide_zero_annihilator(Z, f)
    assert v.is_yes
    assert v.witness_map.period == 3998
    assert verify_annihilator(f, v.witness_map)


def test_decider_is_deterministic():
    a = decide_zero_annihilator(Z, TRIPLE)
    b = decide_zero_annihilator(Z, TRIPLE)
    assert a.is_yes and a == b


# -------------------------------------------------------- CharacterVector


def test_character_validation():
    chi = CharacterVector(Z_X_ZMOD2, (r(1, 3), HALF))
    assert chi.order == 6
    with pytest.raises(InputError):
        CharacterVector(Z_X_ZMOD2, (ZERO, r(1, 3)))  # 2 * 1/3 != 0
    with pytest.raises(InputError):
        CharacterVector(Z, (ZERO, ZERO))  # arity


def test_character_phase():
    chi = CharacterVector(Z, (r(1, 3),))
    assert chi.phase((1,)) == r(1, 3)
    assert chi.phase((3,)) == ZERO
    assert chi.phase((-1,)) == r(2, 3)
    mixed = CharacterVector(Z_X_ZMOD2, (r(1, 4), HALF))
    # torsion coordinate canonicalizes before evaluating
    assert mixed.phase((0, 3)) == mixed.phase((0, 1)) == HALF
    assert mixed.phase((1, 1)) == r(3, 4)


def test_fourier_phases_track_unit_expansion():
    chi = CharacterVector(Z, (HALF,))
    phases = chi.fourier_phases(DOMINO)
    assert phases == [ZERO, HALF]
    assert sum_roots_is_zero(phases)


# ----------------------------------------------------------------- witness


def test_witness_examples():
    triv = CharacterVector(Z, (ZERO,))
    assert witness_periodic_annihilator(Z, triv).values == (1,)
    half = CharacterVector(Z, (HALF,))
    assert witness_periodic_annihilator(Z, half).values == (1, -1)
    third = CharacterVector(Z, (r(1, 3),))
    assert witness_periodic_annihilator(Z, third).values == (1, 0, -1)
    with pytest.raises(InputError):
        witness_periodic_annihilator(Z2, half)


def test_verify_annihilator_basics():
    from abeltile import PeriodicMap

    good = PeriodicMap(Z, 2, [1, -1])
    assert verify_annihilator(DOMINO, good)
    assert not verify_annihilator(DOMINO, PeriodicMap.constant(Z, 1))
    assert not verify_annihilator(DOMINO, PeriodicMap.constant(Z, 0))  # zero map


# ----------------------------------------------------------- level shifts


def test_level_shift_examples():
    assert decide_level_shift(Z, DOMINO).is_yes
    assert decide_level_shift(Z, HARD_NO).answer == "NO"
    assert decide_level_shift(Z, FinMap.delta(Z, (0,))).answer == "NO"
    with pytest.raises(InputError):
        decide_level_shift(Z, FinMap(Z, {(0,): 1, (1,): -1}))  # total mass 0
    with pytest.raises(InputError):
        decide_level_shift(Z2, DOMINO)


def test_zero_mass_f_has_annihilator_but_no_level_reduction():
    f = FinMap(Z, {(0,): 1, (1,): -1})
    # the constant function annihilates it, so the zero-annihilator question
    # is YES even though the level-shift reduction refuses the input
    v = decide_zero_annihilator(Z, f)
    assert v.is_yes
    assert v.witness_character.order == 1


# ------------------------------------------------------------- properties


def _random_finmap(rng, group, l1_cap=5):
    while True:
        n = rng.randint(1, 3)
        items = []
        for _ in range(n):
            coords = tuple(
                rng.randint(-3, 3) if i < group.free_rank else rng.randint(0, 3)
                for i in range(group.rank)
            )
            items.append((coords, rng.choice([-2, -1, 1, 2])))
        f = FinMap(group, items)
        if not f.is_zero and l1_norm(f) <= l1_cap:
            return f


@pytest.mark.parametrize("group", [Z, Z2, Z_X_ZMOD2], ids=["Z", "Z2", "ZxZ2"])
def test_yes_witnesses_always_verify(group):
    rng = random.Random(f"wit-{group.torsion}")
    yes_seen = 0
    for _ in range(25):
        f = _random_finmap(rng, group)
        v = decide_zero_annihilator(group, f)
        if not v.is_yes:
            continue
        yes_seen += 1
        assert verify_annihilator(f, v.witness_map)
        assert v.witness_map.value(group.identity()) == 1
        # the character really kills the transform, exactly
        assert sum_roots_is_zero(v.witness_character.fourier_phases(f))
    assert yes_seen >= 1  # the sample must exercise the YES path


def test_translation_invariance():
    rng = random.Random("shift")
    for _ in range(15):
        f = _random_finmap(rng, Z)
        h = (rng.randint(-4, 4),)
        assert (
            decide_zero_annihilator(Z, f).answer
            == decide_zero_annihilator(Z, f.shift(h)).answer
        )


def test_finite_group_matches_character_scan():
    rng = random.Random("scan")
    for _ in range(40):
        n = rng.randint(2, 10)
        g = GroupSpec(0, (n,))
        f = _random_finmap(rng, g)
        want = cyclic_annihilator_scan(n, f.entries)
        got = decide_zero_annihilator(g, f).is_yes
        assert got == want, (n, f.entries)


def _assert_yes_certificate(f, v):
    """The whole YES certificate: the character kills f-hat, and the witness
    built from it has the character's period, is 1 at the identity and
    annihilates f."""
    chi, witness = v.witness_character, v.witness_map
    assert v.is_yes and sum_roots_is_zero(chi.fourier_phases(f))
    assert witness.period == chi.order
    assert witness.value((0,) * f.group.rank) == 1
    assert verify_annihilator(f, witness)


def test_yes_certificate_coherence():
    for f in [DOMINO, TRIPLE, FinMap(Z, {(0,): 2, (1,): -1, (2,): -1})]:
        v = decide_zero_annihilator(Z, f)
        if v.is_yes:
            _assert_yes_certificate(f, v)


def test_verdict_dataclass_shape():
    v = AnnihilatorVerdict("NO")
    assert v.witness_character is None and v.witness_map is None and not v.is_yes


# ------------------------------------------------ rank-one character pre-check


def _partition_search_alone(monkeypatch, group, f):
    """The decider's verdict with the pre-check switched off."""
    with monkeypatch.context() as m:
        m.setattr(annihilator, "_no_killing_character", lambda *args: False)
        return decide_zero_annihilator(group, f)


def _random_rank_one(rng, group):
    """f with l1 norm 2..8; support in [-6, 6] on Z, anywhere on Z/N."""
    while True:
        items = []
        for _ in range(rng.randint(1, 4)):
            x = rng.randint(-6, 6) if group.free_rank else rng.randrange(group.torsion[0])
            items.append(((x,), rng.choice([-2, -1, 1, 2])))
        f = FinMap(group, items)
        if 2 <= l1_norm(f) <= 8:
            return f


def _rank_one_group(rng, which):
    return Z if which == "Z" else GroupSpec(0, (rng.randint(13, 60),))


# groups of free rank <= 1 beyond rank one: Z x K and finite products
SMALL_GROUPS = {
    "ZxZ/2": Z_X_ZMOD2,
    "ZxZ/3": GroupSpec(1, (3,)),
    "ZxZ/4": GroupSpec(1, (4,)),
    "ZxZ/2xZ/2": GroupSpec(1, (2, 2)),
    "Z/2xZ/4": GroupSpec(0, (2, 4)),
    "Z/3xZ/3": GroupSpec(0, (3, 3)),
    "(Z/2)^3": GroupSpec(0, (2, 2, 2)),
}


def _random_small(rng, group):
    """f with l1 norm 2..8; free coordinate in [-5, 5], torsion anywhere."""
    while True:
        items = []
        for _ in range(rng.randint(1, 4)):
            free = [rng.randint(-5, 5) for _ in range(group.free_rank)]
            items.append(
                (tuple(free + [rng.randrange(n) for n in group.torsion]), rng.choice([-2, -1, 1, 2]))
            )
        f = FinMap(group, items)
        if 2 <= l1_norm(f) <= 8:
            return f


def _precheck_case(rng, which):
    if which in SMALL_GROUPS:
        group = SMALL_GROUPS[which]
        return group, _random_small(rng, group)
    group = _rank_one_group(rng, which)
    return group, _random_rank_one(rng, group)


@pytest.mark.parametrize("which", ["Z", "Z/N", *SMALL_GROUPS])
def test_precheck_no_iff_partition_search_no(monkeypatch, which):
    rng = random.Random(f"precheck-{which}")
    answers = []
    for _ in range(120):
        group, f = _precheck_case(rng, which)
        proved_no = annihilator._no_killing_character(group, f, l1_norm(f))
        search = _partition_search_alone(monkeypatch, group, f).answer
        assert proved_no == (search == "NO"), (group, f.entries)
        answers.append(search)
    assert answers.count("YES") >= 10 and answers.count("NO") >= 10


@pytest.mark.parametrize("which", ["Z", "Z/N"])
def test_rank_one_verdict_invariant_under_automorphisms(which):
    rng = random.Random(f"precheck-invariance-{which}")
    for _ in range(60):
        group = _rank_one_group(rng, which)
        f = _random_rank_one(rng, group)
        want = decide_zero_annihilator(group, f).answer
        moved = [
            f.shift((rng.randint(-20, 20),)),
            FinMap(group, [((-x,), c) for (x,), c in f.entries.items()]),
        ]
        if group.torsion:
            n = group.torsion[0]
            u = rng.choice([u for u in range(2, n) if math.gcd(u, n) == 1])
            moved.append(FinMap(group, [((u * x,), c) for (x,), c in f.entries.items()]))
        for h in moved:
            assert decide_zero_annihilator(group, h).answer == want, (group, f.entries, h.entries)


def _remap(f, move):
    return FinMap(f.group, [(move(*x), c) for x, c in f.entries.items()])


@pytest.mark.parametrize("which", ["ZxZ/2", "ZxZ/3", "ZxZ/4", "ZxZ/2xZ/2"])
def test_z_times_k_verdict_invariant_under_automorphisms(which):
    group = SMALL_GROUPS[which]
    rng = random.Random(f"precheck-invariance-{which}")
    for _ in range(40):
        f = _random_small(rng, group)
        want = decide_zero_annihilator(group, f).answer
        i = rng.randrange(len(group.torsion))  # a cyclic factor Z/n of K
        n = group.torsion[i]
        u = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        t = rng.randint(1, 3)

        def on_factor(k, value):
            return (*k[:i], value, *k[i + 1 :])

        moved = [
            f.shift((rng.randint(-20, 20), *(rng.randrange(m) for m in group.torsion))),
            _remap(f, lambda x, *k: (-x, *k)),
            _remap(f, lambda x, *k: (x, *on_factor(k, u * k[i]))),
            _remap(f, lambda x, *k: (x, *on_factor(k, k[i] + t * x))),  # shear
        ]
        for h in moved:
            assert decide_zero_annihilator(group, h).answer == want, (group, f.entries, h.entries)


def _counting_solver(monkeypatch):
    calls = []
    real = annihilator.qz_solution_set

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(annihilator, "qz_solution_set", counted)
    return calls


def test_precheck_answers_zn_no_without_partition_search(monkeypatch):
    calls = _counting_solver(monkeypatch)
    g = GroupSpec(0, (10,))  # 1 + e(-x) + e(-2x) vanishes only at order 3
    assert decide_zero_annihilator(g, FinMap.indicator(g, [(0,), (1,), (2,)])).answer == "NO"
    assert decide_level_shift(g, FinMap.indicator(g, [(0,), (1,), (2,)])).answer == "NO"
    assert calls == []


def test_precheck_leaves_yes_certificate_to_partition_search(monkeypatch):
    g = GroupSpec(0, (12,))
    f = FinMap(g, {(0,): 1, (4,): 1, (8,): 1, (1,): 2, (7,): -2})
    reference = _partition_search_alone(monkeypatch, g, f)
    calls = _counting_solver(monkeypatch)
    v = decide_zero_annihilator(g, f)
    assert v.is_yes and calls
    assert [str(e) for e in v.witness_character.etas] == ["1/6"]
    assert v.witness_character == reference.witness_character
    assert v.witness_map.values == reference.witness_map.values


def test_precheck_no_on_far_apart_points_of_z(monkeypatch):
    # the Q/Z solve for this f has shift moduli near 10^10, whose candidate
    # product could not be enumerated; the pre-check needs no solve at all
    calls = _counting_solver(monkeypatch)
    f = FinMap(Z, {(0,): 1, (10**9,): 2})
    assert decide_zero_annihilator(Z, f).answer == "NO"
    assert calls == []


def test_precheck_no_on_far_apart_points_of_z_times_z2(monkeypatch):
    # the Q/Z solve for this f leaves 12 * 10^9 candidates, beyond the cap
    calls = _counting_solver(monkeypatch)
    f = FinMap(Z_X_ZMOD2, {(0, 0): 1, (10**9, 1): 2})
    assert decide_zero_annihilator(Z_X_ZMOD2, f).answer == "NO"
    assert calls == []
    # its YES twin, killed by (0, 1/2), is still refused by the partition search
    twin = FinMap(Z_X_ZMOD2, {(0, 0): 1, (10**9, 1): 1})
    assert not annihilator._no_killing_character(Z_X_ZMOD2, twin, 2)
    with pytest.raises(CapacityError, match="candidates"):
        decide_zero_annihilator(Z_X_ZMOD2, twin)


@pytest.mark.parametrize("order", ["Z/2xZ/1000", "Z/1000xZ/2"])
def test_precheck_reach_does_not_depend_on_factor_order(monkeypatch, order):
    # eta goes on Z/1000 either way, so K = Z/2 stays under the dual cap
    calls = _counting_solver(monkeypatch)
    points = {(0, 0): 1, (1, 1): 2, (0, 2): -1, (1, 3): 1}
    if order == "Z/2xZ/1000":
        g = GroupSpec(0, (2, 1000))
    else:
        g = GroupSpec(0, (1000, 2))
        points = {(y, x): c for (x, y), c in points.items()}
    f = FinMap(g, points)
    assert annihilator._no_killing_character(g, f, 5)
    assert decide_zero_annihilator(g, f).answer == "NO"
    assert calls == []


def test_precheck_bound_carries_the_exponent_of_k():
    # killed by (1/24, 5/8): the order 24 of eta divides no mann_bound(3) *
    # (x_1 - y_1), which is 6 or 12 here, only its multiple by exp(Z/8) = 8
    g = GroupSpec(1, (8,))
    f = FinMap(g, {(0, 0): 1, (1, 1): 1, (2, 6): -1})
    assert sum_roots_is_zero(CharacterVector(g, (r(1, 24), r(5, 8))).fourier_phases(f))
    assert not annihilator._no_killing_character(g, f, 3)
    assert decide_zero_annihilator(g, f).is_yes


def test_precheck_steps_aside_past_the_dual_cap():
    # 1 + e(-c) + e(-2c), c = eta + kappa in (1/1000)Z, vanishes only at order 3
    g = GroupSpec(0, (1000, 1000))
    f = FinMap.indicator(g, [(0, 0), (1, 1), (2, 2)])
    assert not annihilator._no_killing_character(g, f, 3)
    assert decide_zero_annihilator(g, f).answer == "NO"


def test_precheck_no_on_z_mod_two_to_the_forty(monkeypatch):
    def refuse(*args):
        raise AssertionError("the partition search must not run")

    monkeypatch.setattr(annihilator, "qz_solution_set", refuse)
    g = GroupSpec(0, (2**40,))
    assert decide_zero_annihilator(g, FinMap.indicator(g, [(0,), (1,), (2,)])).answer == "NO"


def test_precheck_falls_through_when_it_cannot_prove_no():
    # a killing character exists (order 2)
    assert not annihilator._no_killing_character(Z, DOMINO, 2)
    # (1 + z^8192)(2 + z) vanishes only at order 16384, past the exact-test cap
    f = FinMap(Z, {(0,): 2, (1,): 1, (8192,): 2, (8193,): 1})
    with pytest.raises(CapacityError):
        sum_roots_is_zero(
            [eps - r(x % 16384, 16384) for (x,), eps in unit_expansion(f)]
        )
    assert not annihilator._no_killing_character(Z, f, 6)
    # candidate orders would need factoring a number past the factoring cap
    far = FinMap(Z, {(0,): 1, (10**15,): 2})
    assert not annihilator._no_killing_character(Z, far, 3)
    # rank two is out of scope
    assert not annihilator._no_killing_character(Z2, FinMap.delta(Z2, (0, 0), 2), 2)


# --------------------------------------------- small-order probe on free rank >= 2

# the two Z^3 instances of the benchmark's annihilator-rank pool that the
# partition search took seconds on: killed at order 1 (sum(f) = 0) and at
# order 2 by (0, 1/2, 1/2); (entries, least order, witness cells)
Z3 = GroupSpec(3)
SMALL_ORDER_Z3 = {
    "rank-g4-l6-1": ({(0, 0, -1): -2, (3, -3, -2): 2, (3, -3, 1): 1, (3, 0, -1): -1}, 1, 1),
    "rank-g4-l6-0": ({(-3, 2, -3): -1, (1, -3, 3): -2, (3, 0, -1): -2, (3, 1, 0): 1}, 2, 8),
}


@pytest.mark.parametrize("name", sorted(SMALL_ORDER_Z3))
def test_probe_decides_z3_killers_of_order_one_and_two(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("the partition search must not run")

    monkeypatch.setattr(annihilator, "_iter_multiset_partitions", refuse)
    monkeypatch.setattr(annihilator, "_solve_partition", refuse)
    entries, order, cells = SMALL_ORDER_Z3[name]
    for h in [(0, 0, 0), (5, -2, 7), (-11, 4, -1)]:
        f = FinMap(Z3, entries).shift(h)
        v = decide_zero_annihilator(Z3, f)
        assert v.is_yes and v.witness_character.order == order
        assert len(v.witness_map.values) == cells
        _assert_yes_certificate(f, v)


def test_partition_search_certifies_a_yes_past_the_probe_orders():
    # seven cells in a row: the least killing order is 7, past the probe's
    # orders on Z^2, so the character comes from the partition search
    f = FinMap.indicator(Z2, [(k, 0) for k in range(7)])
    assert annihilator._small_order_character(Z2, f) is None
    v = decide_zero_annihilator(Z2, f)
    assert [str(e) for e in v.witness_character.etas] == ["1/7", "0/1"]
    _assert_yes_certificate(f, v)


def _oracle_least_order(group, f, top=6):
    """Least m <= top such that some character with m * chi = 0 kills f-hat,
    by the sympy zero test over every such character; None if there is none."""
    units = [
        (x, Fraction(int(c < 0), 2)) for x, c in f.entries.items() for _ in range(abs(c))
    ]
    for m in range(1, top + 1):
        axes = [range(m)] * group.free_rank + [
            [Fraction(j, n) for j in range(n) if m * j % n == 0] for n in group.torsion
        ]
        for k in itertools.product(*axes):
            ks = [Fraction(a, m) for a in k[: group.free_rank]] + list(k[group.free_rank :])
            if zero_sum_of_roots(eps - sum(a * xi for a, xi in zip(ks, x)) for x, eps in units):
                return m
    return None


@pytest.mark.parametrize(
    "group", [Z2, Z3, GroupSpec(2, (2,))], ids=["Z2", "Z3", "Z2xZ/2"]
)
def test_probe_finds_the_least_order_of_the_sympy_oracle(group):
    rng = random.Random(f"probe-least-order-{group.free_rank}-{group.torsion}")
    found = []
    for _ in range(40):
        while True:
            f = _random_small(rng, group)
            if 3 <= l1_norm(f) <= 6:
                break
        want = _oracle_least_order(group, f)
        chi = annihilator._small_order_character(group, f)
        assert (chi and chi.order) == want, (group, f.entries)
        if want is not None:
            v = decide_zero_annihilator(group, f)
            assert v.witness_character == chi
            _assert_yes_certificate(f, v)
        found.append(want)
    assert found.count(None) >= 5 and len(set(found)) >= 4


def test_probe_work_does_not_grow_with_rank(monkeypatch):
    # with the float prefilter off every tested character reaches the exact
    # test: one per Galois class of each order up to the work cap
    calls = []

    def counted(phases):
        calls.append(phases)
        return False

    monkeypatch.setattr(annihilator, "sum_roots_is_zero", counted)
    monkeypatch.setattr(annihilator, "_PREFILTER_TOL", math.inf)

    def no_instance(d):  # 2 + z + z^2 with |z| = 1 is never 0
        e1 = (1,) + (0,) * (d - 1)
        return FinMap(GroupSpec(d), {(0,) * d: 2, e1: 1, tuple(2 * v for v in e1): 1})

    # Z^3 to order 6: 1 + 7 + 13 + 28 + 31 + 91 classes; Z^4 to order 3:
    # 1 + 15 + 40; Z^8 and Z^40 at order 1 only
    for d, classes in [(3, 171), (4, 56), (8, 1), (40, 1)]:
        calls.clear()
        assert annihilator._small_order_character(GroupSpec(d), no_instance(d)) is None
        assert len(calls) == classes, d
    monkeypatch.undo()
    assert decide_zero_annihilator(GroupSpec(8), no_instance(8)).answer == "NO"


def test_probe_skips_a_character_past_the_exact_test_cap(monkeypatch):
    def beyond_cap(phases):
        raise CapacityError("zero test beyond the cap")

    monkeypatch.setattr(annihilator, "sum_roots_is_zero", beyond_cap)
    f = FinMap(Z2, {(0, 0): 1, (1, 0): -1})  # killed by the trivial character
    assert annihilator._small_order_character(Z2, f) is None
