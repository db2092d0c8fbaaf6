"""Group algebra layer: specs, maps, convolution, dilation, quotients."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeltile import (
    FinMap,
    GroupSpec,
    InputError,
    PeriodicMap,
    RationalMod1,
    convolve,
    convolve_periodic,
    difference,
    dilate,
    l1_norm,
    pushforward,
    quotient_by,
    unit_expansion,
)

from _oracles import conv_window

Z = GroupSpec(1)
Z2 = GroupSpec(2)
ZMOD2 = GroupSpec(0, (2,))
Z_X_ZMOD2 = GroupSpec(1, (2,))

# the running "hard NO" example: 3 at +-1, -2 at the origin
HARD_NO = FinMap(Z, {(-1,): 3, (0,): -2, (1,): 3})
DOMINO = FinMap.indicator(Z, [(0,), (1,)])


# ---------------------------------------------------------------- GroupSpec


def test_group_spec_validation():
    with pytest.raises(InputError):
        GroupSpec(-1)
    with pytest.raises(InputError):
        GroupSpec(1, (0,))
    with pytest.raises(InputError):
        GroupSpec(1, (True,))
    assert GroupSpec(2).rank == 2
    assert GroupSpec(1, (2, 3)).rank == 3


def test_canonicalize():
    g = GroupSpec(1, (4,))
    assert g.canonicalize((-5, 7)) == (-5, 3)  # free coord untouched
    assert g.canonicalize((-5, 3)) == (-5, 3)  # idempotent
    with pytest.raises(InputError):
        g.canonicalize((1,))  # arity
    with pytest.raises(InputError):
        g.canonicalize((1, 2.0))  # non-integer
    with pytest.raises(InputError):
        g.canonicalize((1, True))


def test_arithmetic_helpers():
    g = GroupSpec(1, (3,))
    assert g.add((1, 2), (1, 2)) == (2, 1)
    assert g.sub((0, 0), (1, 2)) == (-1, 1)
    assert g.scale(4, (1, 2)) == (4, 2)
    assert g.identity() == (0, 0)


def test_fundamental_domain_row_major():
    g = GroupSpec(1, (2,))
    assert list(g.fundamental_domain(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert g.domain_size(2) == 4
    assert GroupSpec(2).domain_size(3) == 9


# ------------------------------------------------------------------ FinMap


def test_finmap_merges_and_drops_zeros():
    f = FinMap(Z, [((0,), 2), ((0,), -2), ((1,), 5)])
    assert f.entries == {(1,): 5}
    g = FinMap(ZMOD2, [((0,), 1), ((2,), 1)])  # 2 = 0 in Z/2
    assert g.entries == {(0,): 2}


def test_finmap_rejects_junk_coefficients():
    with pytest.raises(InputError):
        FinMap(Z, [((0,), True)])
    with pytest.raises(InputError):
        FinMap(Z, [((0,), 1.5)])


def test_finmap_operations():
    d0 = FinMap.delta(Z, (0,))
    d1 = FinMap.delta(Z, (1,))
    assert (d0 + d1) == DOMINO
    assert (DOMINO - d1) == d0
    assert (2 * d0).coeff((0,)) == 2
    assert (d0 * 3) == 3 * d0
    assert (-d0).coeff((0,)) == -1
    assert d0.shift((5,)) == FinMap.delta(Z, (5,))
    assert FinMap.zero(Z).is_zero
    assert not d0.is_zero
    assert DOMINO.support() == ((0,), (1,))
    assert DOMINO.coeff((7,)) == 0


def test_finmap_cross_group_guard():
    with pytest.raises(InputError):
        convolve(FinMap.delta(Z, (0,)), FinMap.delta(Z2, (0, 0)))


# ------------------------------------------------------------- PeriodicMap


def test_periodic_validation():
    with pytest.raises(InputError):
        PeriodicMap(Z, 0, [])
    with pytest.raises(InputError):
        PeriodicMap(Z, 2, [1])  # wrong cell count
    with pytest.raises(InputError):
        PeriodicMap(Z, 1, [True])
    with pytest.raises(InputError):
        PeriodicMap(Z, 1, [0.5])


def test_periodic_lookup_wraps():
    a = PeriodicMap(Z, 3, [10, 20, 30])
    assert a.value((0,)) == 10
    assert a.value((4,)) == 20
    assert a.value((-1,)) == 30
    b = PeriodicMap(Z_X_ZMOD2, 2, [1, 2, 3, 4])  # cells (0,0),(0,1),(1,0),(1,1)
    assert b.value((2, 2)) == 1
    assert b.value((-1, 3)) == 4


def test_periodic_with_period_and_equals():
    a = PeriodicMap(Z, 1, [7])
    b = PeriodicMap.constant(Z, 7, period=3)
    assert b.values == (7, 7, 7)
    assert a.equals(b) and b.equals(a)
    assert a != b  # structural equality is period-sensitive
    c = PeriodicMap(Z, 2, [7, 8])
    assert not a.equals(c)
    assert PeriodicMap.constant(Z, 0, period=4).is_zero


def test_from_function_matches_manual():
    a = PeriodicMap.from_function(Z2, 2, lambda x: x[0] + 2 * x[1])
    assert a.values == (0, 2, 1, 3)


# ---------------------------------------------------------------- convolve


def test_convolve_examples():
    d0 = FinMap.delta(Z, (0,))
    assert convolve(d0, HARD_NO) == HARD_NO  # delta is the identity
    sq = convolve(DOMINO, DOMINO)
    assert sq.entries == {(0,): 1, (1,): 2, (2,): 1}
    # on Z/2 the shift wraps
    assert convolve(FinMap.delta(ZMOD2, (0,)), FinMap.delta(ZMOD2, (1,))) == FinMap.delta(ZMOD2, (1,))
    assert convolve(FinMap.delta(ZMOD2, (1,)), FinMap.delta(ZMOD2, (1,))) == FinMap.delta(ZMOD2, (0,))


def _random_finmap(rng, group, max_terms=4, span=3):
    n = rng.randint(0, max_terms)
    items = []
    for _ in range(n):
        coords = tuple(
            rng.randint(-span, span) if i < group.free_rank else rng.randint(0, 5)
            for i in range(group.rank)
        )
        items.append((coords, rng.randint(-3, 3)))
    return FinMap(group, items)


@pytest.mark.parametrize("group", [Z, Z2, Z_X_ZMOD2], ids=["Z", "Z2", "ZxZ2"])
def test_convolve_ring_laws_random(group):
    rng = random.Random(f"ring-{group.rank}")
    for _ in range(40):
        f = _random_finmap(rng, group)
        g = _random_finmap(rng, group)
        h = _random_finmap(rng, group)
        assert convolve(f, g) == convolve(g, f)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
        assert convolve(f, g + h) == convolve(f, g) + convolve(f, h)


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-3, 3)), min_size=0, max_size=5
    ),
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-3, 3)), min_size=0, max_size=5
    ),
)
@settings(max_examples=60, deadline=None)
def test_convolve_commutes_hypothesis(fitems, gitems):
    f = FinMap(Z, [((x,), c) for x, c in fitems])
    g = FinMap(Z, [((x,), c) for x, c in gitems])
    assert convolve(f, g) == convolve(g, f)


# ------------------------------------------------------- convolve_periodic


def test_convolve_periodic_examples():
    ones = PeriodicMap.constant(Z, 1)
    assert convolve_periodic(DOMINO, ones).values == (2,)
    alternating = PeriodicMap(Z, 2, [1, 0])
    assert convolve_periodic(DOMINO, alternating).values == (1, 1)
    signed = PeriodicMap(Z, 2, [1, -1])
    out = convolve_periodic(HARD_NO, signed)
    assert out.values == (-8, 8)


@pytest.mark.parametrize(
    "group",
    [Z, Z2, Z_X_ZMOD2, GroupSpec(1, (3,)), GroupSpec(0, (6,)), GroupSpec(3)],
    ids=["Z", "Z2", "ZxZ2", "ZxZ3", "Z6", "Z3"],
)
def test_convolve_periodic_against_window_oracle(group):
    rng = random.Random(f"window-{group}")
    for trial in range(25):
        # the first trial convolves with f = 0, which must give all zeros
        f = FinMap.zero(group) if trial == 0 else _random_finmap(rng, group, max_terms=5, span=2)
        q = rng.choice([1, 2, 3])
        cells = list(group.fundamental_domain(q))
        a = PeriodicMap(group, q, [rng.randint(-2, 2) for _ in cells])
        got = convolve_periodic(f, a)
        assert got.period == q
        want = conv_window(f.entries, a.value, cells)
        assert [got.value(cell) for cell in cells] == [want[cell] for cell in cells]
        if f.is_zero:
            assert got.is_zero


def test_convolve_periodic_group_guard():
    with pytest.raises(InputError):
        convolve_periodic(DOMINO, PeriodicMap.constant(Z2, 1))


# ------------------------------------------------------------------ dilate


def test_dilate_examples():
    assert dilate(HARD_NO, 1) == HARD_NO
    assert dilate(DOMINO, 2) == FinMap.indicator(Z, [(0,), (2,)])
    # collisions add up: on Z/2, doubling sends both points to 0
    both = FinMap.indicator(ZMOD2, [(0,), (1,)])
    assert dilate(both, 2) == FinMap.delta(ZMOD2, (0,), 2)
    with pytest.raises(InputError):
        dilate(DOMINO, 0)
    with pytest.raises(InputError):
        dilate(DOMINO, -3)


def test_dilate_composes():
    rng = random.Random("dilate")
    for _ in range(20):
        f = _random_finmap(rng, Z_X_ZMOD2)
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        assert dilate(dilate(f, r), s) == dilate(f, r * s)


# -------------------------------------------------------------- difference


def test_difference_finmap():
    d0 = FinMap.delta(Z, (0,))
    assert difference(d0, (1,)) == FinMap(Z, {(-1,): 1, (0,): -1})
    assert difference(HARD_NO, (0,)).is_zero


def test_difference_is_convolution():
    # d_h f = (delta_{-h} - delta_0) * f, note the minus sign in the shift
    rng = random.Random("diff")
    for _ in range(30):
        f = _random_finmap(rng, Z2)
        h = (rng.randint(-2, 2), rng.randint(-2, 2))
        kernel = FinMap(Z2, [((-h[0], -h[1]), 1), ((0, 0), -1)])
        assert difference(f, h) == convolve(kernel, f)


def test_difference_periodic():
    const = PeriodicMap.constant(Z, 9, period=3)
    assert difference(const, (1,)).is_zero
    a = PeriodicMap(Z, 2, [1, 5])
    da = difference(a, (1,))
    assert da.values == (4, -4)
    kernel = FinMap(Z, {(-1,): 1, (0,): -1})
    assert convolve_periodic(kernel, a).equals(da)


def test_difference_rejects_other_types():
    with pytest.raises(InputError):
        difference({(0,): 1}, (1,))


@pytest.mark.parametrize(
    "apply",
    [
        lambda: Z.add((1,), (1, 2)),
        lambda: Z.sub((1, 2), (1,)),
        lambda: FinMap(Z, {(0,): 1}).shift((1, 2)),
        lambda: difference(FinMap(Z, {(0,): 1}), (1, 7, 9)),
        lambda: difference(PeriodicMap(Z, 2, [1, 5]), (1, 7)),
    ],
    ids=["add", "sub", "shift", "difference-finmap", "difference-periodic"],
)
def test_too_long_vector_is_rejected(apply):
    # zip would silently drop the extra coordinates
    with pytest.raises(InputError):
        apply()


# ------------------------------------------------- quotients / pushforward


def test_pushforward_vertical_direction():
    # collapse the y-axis of Z^2: points differing in y land together
    f = FinMap.indicator(Z2, [(0, 0), (0, 5)])
    out = pushforward(f, (0, 1))
    assert out.group == GroupSpec(1)
    assert list(out.entries.values()) == [2]
    g = FinMap.indicator(Z2, [(0, 0), (1, 0)])
    og = pushforward(g, (0, 1))
    assert sorted(og.entries.values()) == [1, 1]
    assert len(og.entries) == 2


def test_pushforward_diagonal_direction():
    q = quotient_by(Z2, (1, 1))
    assert q.group == GroupSpec(1)  # Z^2 / diagonal is a line
    img = pushforward(FinMap.delta(Z2, (1, 0)), (1, 1), q)
    assert img == FinMap.delta(q.group, q.project((1, 0)))
    # the generator itself dies
    assert q.project((1, 1)) == (0,)
    assert q.project((3, 3)) == (0,)


def test_quotient_projection_is_homomorphism():
    rng = random.Random("quot")
    for w in [(1, 0), (0, 1), (1, 1), (2, 3), (-1, 2)]:
        q = quotient_by(Z2, w)
        for _ in range(20):
            x = (rng.randint(-6, 6), rng.randint(-6, 6))
            y = (rng.randint(-6, 6), rng.randint(-6, 6))
            lhs = q.project(Z2.add(x, y))
            rhs = q.group.add(q.project(x), q.project(y))
            assert lhs == rhs


def test_pushforward_commutes_with_convolution():
    rng = random.Random("push")
    q = quotient_by(Z2, (2, 3))
    for _ in range(25):
        f = _random_finmap(rng, Z2)
        g = _random_finmap(rng, Z2)
        lhs = pushforward(convolve(f, g), (2, 3), q)
        rhs = convolve(pushforward(f, (2, 3), q), pushforward(g, (2, 3), q))
        assert lhs == rhs


# (source, w, quotient): the torsion relators N_m e_m take part in the SNF
TORSION_QUOTIENTS = [
    (Z_X_ZMOD2, (1, 1), GroupSpec(0, (2,))),
    (Z_X_ZMOD2, (2, 0), GroupSpec(0, (2, 2))),
    (GroupSpec(2, (4,)), (2, 0, 1), GroupSpec(1, (8,))),
]


def _box(group, radius):
    ranges = [range(-radius, radius + 1)] * group.free_rank + [range(n) for n in group.torsion]
    return list(itertools.product(*ranges))


@pytest.mark.parametrize(
    "group, w, want",
    TORSION_QUOTIENTS,
    ids=["ZxZ/2 by (1,1)", "ZxZ/2 by (2,0)", "Z^2xZ/4 by (2,0,1)"],
)
def test_quotient_by_on_groups_with_torsion(group, w, want):
    q = quotient_by(group, w)
    assert q.group == want
    box = _box(group, 2)
    for x in box:
        for y in box:
            assert q.project(group.add(x, y)) == want.add(q.project(x), q.project(y))
    # the kernel in the box is exactly the multiples of w that land in it
    kernel = {x for x in box if q.project(x) == want.identity()}
    multiples = {group.scale(k, w) for k in range(-20, 21)}
    assert kernel == multiples & set(box)
    rng = random.Random(f"torsion-push-{w}")
    for _ in range(10):
        f = FinMap(group, [(rng.choice(box), rng.randint(-3, 3)) for _ in range(5)])
        assert sum(pushforward(f, w, q).entries.values()) == sum(f.entries.values())


def test_quotient_rejects_degenerate_directions():
    with pytest.raises(InputError):
        quotient_by(Z2, (0, 0))
    with pytest.raises(InputError):
        quotient_by(Z_X_ZMOD2, (0, 1))  # finite-order direction
    with pytest.raises(InputError):
        pushforward(FinMap.delta(Z, (0,)), (1, 1), quotient_by(Z2, (1, 1)))


# ------------------------------------------------- l1 norm, unit expansion


def test_l1_norm():
    assert l1_norm(FinMap.zero(Z)) == 0
    assert l1_norm(HARD_NO) == 8
    assert l1_norm(DOMINO) == 2


def test_unit_expansion_examples():
    one = unit_expansion(FinMap.delta(Z, (5,)))
    assert one == [((5,), RationalMod1(0, 1))]
    neg = unit_expansion(FinMap.delta(Z, (0,), -2))
    assert neg == [((0,), RationalMod1(1, 2))] * 2
    terms = unit_expansion(HARD_NO)
    assert len(terms) == 8
    assert [t[0] for t in terms] == sorted(t[0] for t in terms)
    with pytest.raises(InputError):
        unit_expansion(FinMap.zero(Z))


def test_unit_expansion_reassembles():
    rng = random.Random("units")
    for _ in range(30):
        f = _random_finmap(rng, Z_X_ZMOD2)
        if f.is_zero:
            continue
        total = FinMap.zero(f.group)
        for x, eps in unit_expansion(f):
            sign = 1 if eps == RationalMod1(0, 1) else -1
            total = total + FinMap.delta(f.group, x, sign)
        assert total == f
