"""Planar structure helpers: wedge/complement, dilation reports and coset
slices."""

import math
import random

import pytest

from abeltile import (
    FinMap,
    GroupSpec,
    InputError,
    PeriodicMap,
    complement,
    coset_slice,
    dilation_check,
    wedge,
)

Z = GroupSpec(1)
Z2 = GroupSpec(2)


# ------------------------------------------------------------------- wedge


def test_wedge_examples():
    assert wedge((1, 0), (0, 1)) == 1
    assert wedge((2, 3), (4, 5)) == -2
    assert wedge((3, 7), (3, 7)) == 0


def test_wedge_is_bilinear_and_antisymmetric():
    rng = random.Random("wedge")
    for _ in range(50):
        u = (rng.randint(-9, 9), rng.randint(-9, 9))
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        c = rng.randint(-4, 4)
        assert wedge(u, v) == -wedge(v, u)
        assert wedge((u[0] + c * w[0], u[1] + c * w[1]), v) == wedge(u, v) + c * wedge(w, v)


def test_wedge_rejects_junk():
    with pytest.raises(InputError):
        wedge((1,), (0, 1))
    with pytest.raises(InputError):
        wedge((1, 0), (0, 1, 2))
    with pytest.raises(InputError):
        wedge((True, 0), (0, 1))


# -------------------------------------------------------------- complement


def test_complement_examples():
    assert complement((1, 0)) == (0, 1)
    assert complement((0, 1)) == (-1, 0)
    assert complement((2, 3)) == (1, 2)


def _random_primitive(rng):
    while True:
        a, b = rng.randint(-12, 12), rng.randint(-12, 12)
        if (a, b) == (0, 0):
            continue
        d = math.gcd(a, b)
        return (a // d, b // d)


def test_complement_pairs_to_one_and_frames_the_plane():
    rng = random.Random("comp")
    for _ in range(60):
        w = _random_primitive(rng)
        ws = complement(w)
        assert wedge(w, ws) == 1
        assert complement(w) == ws  # deterministic
        for _ in range(4):
            y = (rng.randint(-10, 10), rng.randint(-10, 10))
            a, b = wedge(w, y), wedge(ws, y)
            rebuilt = (a * ws[0] - b * w[0], a * ws[1] - b * w[1])
            assert rebuilt == y


def test_complement_rejects_degenerates():
    with pytest.raises(InputError):
        complement((0, 0))
    with pytest.raises(InputError):
        complement((2, 4))


# --------------------------------------------------------- dilation report


DOMINO_Z = FinMap.indicator(Z, [(0,), (1,)])
SIGN = PeriodicMap(Z, 2, [1, -1])
ZEROMAP = PeriodicMap.constant(Z, 0)


def test_dilation_check_passes_on_odd_stretches():
    rep = dilation_check(DOMINO_Z, SIGN, ZEROMAP, 2, [1, 3, 5, 7])
    assert rep.q == 2
    assert rep.results == ((1, True), (3, True), (5, True), (7, True))
    assert rep.all_pass


def test_dilation_check_failure_is_data_not_error():
    # with q = 1 every r is admissible, but r = 2 genuinely breaks the identity
    rep = dilation_check(DOMINO_Z, SIGN, ZEROMAP, 1, [1, 2, 3])
    assert rep.results == ((1, True), (2, False), (3, True))
    assert not rep.all_pass


def test_dilation_check_preconditions():
    with pytest.raises(InputError) as e:
        dilation_check(DOMINO_Z, SIGN, PeriodicMap.constant(Z, 1), 2, [1])
    assert "precondition" in str(e.value)
    with pytest.raises(InputError):
        dilation_check(DOMINO_Z, SIGN, ZEROMAP, 2, [2])  # 2 != 1 mod 2
    with pytest.raises(InputError):
        dilation_check(DOMINO_Z, SIGN, ZEROMAP, 0, [1])
    with pytest.raises(InputError):
        dilation_check(DOMINO_Z, SIGN, ZEROMAP, 2, [0])
    with pytest.raises(InputError):
        dilation_check(DOMINO_Z, SIGN, ZEROMAP, 2, [True])
    # g on another group: of the same rank, and of another rank
    z2 = GroupSpec(0, (2,))
    f, a = FinMap.delta(z2, (0,)), PeriodicMap.constant(z2, 1)
    with pytest.raises(InputError, match="different group"):
        dilation_check(f, a, PeriodicMap.constant(GroupSpec(0, (3,)), 1), 1, [1])
    with pytest.raises(InputError, match="different group"):
        dilation_check(DOMINO_Z, SIGN, PeriodicMap.constant(Z2, 0), 2, [1])


def test_dilation_check_on_plane_fixture():
    f = FinMap.indicator(Z2, [(0, 0), (1, 0)])
    a = PeriodicMap(Z2, 2, [0, 0, 1, 1])  # column x = 1
    ones = PeriodicMap.constant(Z2, 1)
    rep = dilation_check(f, a, ones, 2, [3, 5])
    assert rep.all_pass


# ------------------------------------------------------------ coset slices


def test_coset_slice_examples():
    f = FinMap.indicator(Z2, [(0, 0), (1, 0), (0, 1)])
    assert coset_slice(f, (0, 0), (1, 0)).support() == ((0, 0), (1, 0))
    assert coset_slice(f, (0, 1), (1, 0)).support() == ((0, 1),)
    assert coset_slice(f, (5, 3), (1, 0)).is_zero  # line misses the support


def test_coset_slices_partition_f():
    rng = random.Random("slices")
    for w in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        f = FinMap(
            Z2,
            [
                ((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2))
                for _ in range(6)
            ],
        )
        keys = {wedge(w, y) for y in f.support()}
        total = FinMap.zero(Z2)
        pts = {y for y in f.support()}
        for y in sorted(pts):
            if wedge(w, y) in keys:
                keys.discard(wedge(w, y))
                total = total + coset_slice(f, y, w)
        assert total == f


def test_coset_slice_input_errors():
    f1 = FinMap.delta(Z, (0,))
    with pytest.raises(InputError):
        coset_slice(f1, (0,), (1,))
    f = FinMap.delta(Z2, (0, 0))
    with pytest.raises(InputError):
        coset_slice(f, (0, 0), (2, 4))
    with pytest.raises(InputError):
        coset_slice(f, (0, 0), (0, 0))
