"""Decide whether f*a = 0 has a non-zero bounded integer solution, and build
an explicit periodic witness when it does.

Route: expand f into a signed sum of n deltas (signs become phase offsets 0
or 1/2), then look for a finite-order character whose term phases split into
blocks, each a minimal vanishing sum of roots of unity.  The blocks only
steer the search: a YES is certified by its character and the periodic
witness built from it, which verify_annihilator re-checks.  Per candidate
partition the block constraints become one integer linear system over Q/Z:

  * a gauge row per block pins the first phase of the block to 0 (rotation
    canonical form; a per-block rotation unknown keeps full generality),
  * a grid row per remaining position confines that phase to the
    (1/mann_bound(k))-grid, which is where rotated minimal vanishing k-sums
    must live,
  * a torsion row per finite coordinate keeps the character well defined.

Smith normal form turns the solution set into one particular solution plus a
finite set of torsion shifts (directions with zero elementary divisor never
move any block phase, so they are pinned); every candidate is then validated
by exact cyclotomic arithmetic — full-block vanishing and minimality — with a
fast floating-point magnitude prefilter in front.  A verdict of NO therefore
means the whole space was exhausted, not that an enumeration was truncated.

On groups of free rank at most one (Z/N, Z, Z x K and finite Z/N_1 x K) a
pre-check runs first and proves most NO answers without the partition
search.  Split a character into eta on one coordinate x_1 (Z, or the
largest factor Z/N_1 of a finite product) and kappa on the rest K, of
exponent e.  Every block of a killing character's partition meets two
distinct support points x, y, and Mann's bound puts the order of eta among
the divisors of gcd(N_1, mann_bound(n) * e * (x_1 - y_1)), with N_1 = 0 on
Z, or at 1 when every block sits on one value of x_1.  By Galois conjugacy the
characters (1/m, kappa), one per kappa, decide order m, tested by the same
prefilter and exact zero test.  When every candidate is non-zero the answer
is NO; otherwise (a zero, a candidate beyond a cap, or K too large) the
partition search runs as above, and a YES on these groups comes from it.

On groups of free rank at least two a probe runs first instead and looks for
a killing character of small order: orders m = 1, 2, ..., 6 in turn, one
character per Galois class of exact order m, by the same prefilter and exact
zero test.  Its first zero is a YES of least order, and no partition is
searched.  The probe stops at the first order m with m^d * |K| > 6^3 on
Z^d x K, so its work does not grow with d; when it finds no zero the
partition search runs as above, proving NO or finding a YES of larger order.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from functools import lru_cache
from typing import List, Sequence, Tuple

from .cyclotomic import (
    _divisors,
    is_minimal_vanishing,
    mann_bound,
    retraction_coeff0,
    sum_roots_is_zero,
)
from .errors import CapacityError, InputError, _Record, _want_int
from .groups import FinMap, GroupSpec, PeriodicMap, convolve_periodic, l1_norm, unit_expansion
from .qzlinear import ZERO, IntMatrix, RationalMod1, qz_solution_set

__all__ = [
    "CharacterVector",
    "AnnihilatorVerdict",
    "decide_zero_annihilator",
    "witness_periodic_annihilator",
    "verify_annihilator",
    "decide_level_shift",
]


class CharacterVector(_Record):
    """Finite-order character ``x -> e(sum_m eta_m x_m)`` of a group.

    Torsion coordinates must satisfy ``N_m * eta_m = 0`` in Q/Z, otherwise the
    evaluation would not be well defined on canonical representatives.
    """

    __slots__ = ("group", "etas")

    def __init__(self, group: GroupSpec, etas: tuple) -> None:
        if len(etas) != group.rank:
            raise InputError("character needs one phase per group coordinate")
        for m, n in enumerate(group.torsion):
            eta = etas[group.free_rank + m]
            if not (n * eta).is_zero:
                raise InputError(f"torsion constraint violated: {n} * {eta} != 0")
        self._fill(group, etas)

    @property
    def order(self) -> int:
        return math.lcm(*(e.denominator for e in self.etas))

    def phase(self, coords: Sequence[int]) -> RationalMod1:
        x = self.group.canonicalize(tuple(coords))
        acc = ZERO
        for xm, eta in zip(x, self.etas):
            if xm and eta.numerator:
                acc = acc + xm * eta
        return acc

    def fourier_phases(self, f: FinMap) -> list:
        """Phases of the terms of f-hat at this character: eps_j - <b_j, eta>."""
        return [eps - self.phase(x) for x, eps in unit_expansion(f)]


class AnnihilatorVerdict(_Record):
    # answer: "YES" | "NO"
    __slots__ = ("answer", "witness_character", "witness_map")
    _defaults = dict(witness_character=None, witness_map=None)

    @property
    def is_yes(self) -> bool:
        return self.answer == "YES"


# ---------------------------------------------------------------------------
# partition enumeration over identical-term symmetry


def _iter_multiset_partitions(counts: Tuple[int, ...]):
    """Partitions of a multiset (counts per term type) into blocks of size >= 2.

    A block is a count vector; a partition is emitted as a tuple of blocks in
    canonical order (size descending, then lexicographic), each multiset
    partition exactly once.  Treating equal terms as interchangeable is what
    keeps the search polynomial-ish in practice instead of Bell-number sized.
    """
    ntypes = len(counts)
    bottom_key = (-sum(counts) - 1, (0,) * ntypes)

    def blocks_from(limit_key, counts):
        out = []
        for combo in itertools.product(*(range(c + 1) for c in counts)):
            s = sum(combo)
            if s >= 2:
                key = (-s, combo)
                if key >= limit_key:
                    out.append((key, combo))
        out.sort()
        return out

    def rec(counts, limit_key):
        total = sum(counts)
        if total == 0:
            yield ()
            return
        if total == 1:
            return
        for key, block in blocks_from(limit_key, counts):
            rest = tuple(c - b for c, b in zip(counts, block))
            for tail in rec(rest, key):
                yield (block,) + tail

    yield from rec(tuple(counts), bottom_key)


# ---------------------------------------------------------------------------
# per-partition constraint solve

_FLOAT_TABLE_CAP = 20000
_PREFILTER_TOL = 1e-7
# Largest candidate space one partition may enumerate.  Far above a single
# 8-term block on Z^3 (210^3), and a range that itertools.product would
# materialize (2 * 10^9 for delta(0) + delta(10^9) on Z) is refused at once
# instead of running out of memory.
_CANDIDATE_CAP = 10**8
# Most cells a dense witness may have: far above the 54^3 the benchmark builds,
# while an order-2 character on Z^40 (2^40 cells) is refused before any is built.
_WITNESS_CAP = 10**6


def _solve_partition(group: GroupSpec, terms, blocks):
    """Try one partition; return the phases of a character whose term phases
    split into minimal vanishing blocks this way, or None.

    ``terms`` is the unit expansion ``(elem, eps)`` of f; ``blocks`` a tuple
    of blocks of term indices.
    """
    r = group.rank
    nblocks = len(blocks)
    cols = r + nblocks

    rows: List[List[int]] = []
    rhs: List[RationalMod1] = []
    for m, n in enumerate(group.torsion):
        row = [0] * cols
        row[group.free_rank + m] = n
        rows.append(row)
        rhs.append(ZERO)
    functionals: List[Tuple[List[int], RationalMod1]] = []  # (row of L_p, eps_p) per position
    for bi, pos in enumerate(blocks):
        mk = mann_bound(len(pos))
        for p, i in enumerate(pos):
            elem, eps = terms[i]
            lrow = [-elem[j] for j in range(r)] + [0] * nblocks
            lrow[r + bi] = 1
            functionals.append((lrow, eps))
            if p == 0:
                rows.append(lrow)
                rhs.append(-eps)
            else:
                rows.append([mk * v for v in lrow])
                rhs.append(-(mk * eps))

    sol = qz_solution_set(IntMatrix(rows), rhs)
    if sol is None:
        return None
    if sol.count > _CANDIDATE_CAP:
        raise CapacityError(
            f"partition has {sol.count} character candidates, beyond the"
            f" {_CANDIDATE_CAP} cap of this build"
        )

    # phase of position p at candidate x:  omega_p = eps_p + L_p(x)
    base = []
    for lrow, eps in functionals:
        acc = eps
        for coef, xv in zip(lrow, sol.particular):
            if coef and xv.numerator:
                acc = acc + coef * xv
        base.append(acc)
    shifts = [
        [sum(c * v for c, v in zip(lrow, vec)) for lrow, _ in functionals]
        for vec in sol.shift_vectors
    ]

    denom = math.lcm(*(b.denominator for b in base), *sol.shift_moduli)
    base_num = [b.numerator * (denom // b.denominator) for b in base]
    shift_num = [
        [(sv * (denom // d)) % denom for sv in svec]
        for svec, d in zip(shifts, sol.shift_moduli)
    ]
    unit = None
    if denom <= _FLOAT_TABLE_CAP:
        unit = [cmath.exp(2j * cmath.pi * t / denom) for t in range(denom)]

    # block boundaries into the flat position list
    spans = []
    start = 0
    for pos in blocks:
        spans.append((start, start + len(pos)))
        start += len(pos)

    for ts in itertools.product(*(range(d) for d in sol.shift_moduli)):
        nums = list(base_num)
        for t, svec in zip(ts, shift_num):
            if t:
                for p in range(len(nums)):
                    if svec[p]:
                        nums[p] += t * svec[p]
        nums = [v % denom for v in nums]
        ok = True
        if unit is not None:
            for lo, hi in spans:
                s = 0j
                for p in range(lo, hi):
                    s += unit[nums[p]]
                if abs(s) > _PREFILTER_TOL:
                    ok = False
                    break
        if not ok:
            continue
        omegas = [
            tuple(RationalMod1(nums[p], denom) for p in range(lo, hi)) for lo, hi in spans
        ]
        if all(is_minimal_vanishing(om) for om in omegas):
            return sol.at(ts)[:r]
    return None


# ---------------------------------------------------------------------------
# pre-check on free rank <= 1: one character per candidate order and kappa

_PRECHECK_FACTOR_CAP = 10**12
# Most characters kappa of K that the pre-check pairs with each candidate
# order; on Z/1000 x Z/1000 the partition search beats 1000 tests per order.
_PRECHECK_DUAL_CAP = 64


def _may_vanish(phases) -> bool:
    """False only if the exact test proves the sum of the e(phase) non-zero."""
    try:
        return sum_roots_is_zero(phases)
    except CapacityError:
        return True


def _no_killing_character(group: GroupSpec, f: FinMap, n: int) -> bool:
    """True only if no finite-order character kills f-hat, on a group of
    free rank at most one: Z/N and Z, Z x K and finite Z/N_1 x K.

    Write a character as (eta, kappa): eta on one coordinate x_1, Z or
    Z/N_1 (N_1 = 0 on Z), and kappa on the remaining torsion K of exponent e
    (1 when K is empty).  On a finite product x_1 is its largest factor, the
    first on ties, so that |K| is as small as it can be and the reach of the
    check does not depend on the order of the factors.  A killing character
    splits the n = l1(f) unit terms into minimal vanishing blocks.  Each
    block meets two distinct support points x, y, because the terms at one
    point share a sign.  By Mann's theorem the rotated phases of a block
    have orders dividing M = mann_bound(n); M is even, so the sign offsets
    0 or 1/2 add nothing, and e removes kappa: M*e*eta*(x_1 - y_1) = 0.  So
    the order m of eta divides gcd(N_1, M*e*(x_1 - y_1)) for a pair with
    x_1 != y_1.  If every block sits on one x_1 instead, its sum is
    e(-eta*x_1) times a sum over K alone, and eta = 0 kills f-hat too:
    m = 1.  Galois conjugation by some v = u^-1 (mod m) prime to lcm(m, e)
    carries f-hat(u/m, kappa) to f-hat(1/m, v*kappa), so the characters
    (1/m, kappa), one per kappa, settle order m.

    Any other group returns False, and so does every case this check cannot
    close: |K| beyond the dual cap, a candidate bound beyond the factoring
    cap, a character that kills f-hat, or an exact test beyond the
    cyclotomic cap.  The partition search then decides.
    """
    if group.free_rank > 1 or not group.rank:
        return False
    modulus = 0 if group.free_rank else group.torsion[0]  # gcd(0, k) = |k| on Z
    rest = group.torsion[1 - group.free_rank :]
    terms = list(f.entries.items())
    j = 0  # the coordinate of eta
    if not group.free_rank and rest:  # a finite product: its largest factor
        j = group.torsion.index(max(group.torsion))
        modulus, rest = group.torsion[j], group.torsion[:j] + group.torsion[j + 1 :]
        terms = [((x[j], *x[:j], *x[j + 1 :]), c) for x, c in terms]  # eta's first
    if math.prod(rest) > _PRECHECK_DUAL_CAP:
        return False
    firsts = [x[0] for x, _ in terms]
    mk = mann_bound(n) * math.lcm(*rest)
    bounds = {
        math.gcd(modulus, mk * (x - y)) for i, x in enumerate(firsts) for y in firsts[:i] if x != y
    }
    if any(b > _PRECHECK_FACTOR_CAP for b in bounds):
        return False
    orders = sorted({d for b in bounds for d in _divisors(b)})
    if not rest:
        for m in orders:
            s = sum(c * cmath.exp(-2j * cmath.pi * (x % m) / m) for (x,), c in terms)
            if abs(s) > _PREFILTER_TOL:
                continue
            if _may_vanish([eps - RationalMod1(x % m, m) for (x,), eps in unit_expansion(f)]):
                return False
        return True
    # per kappa, f pushed to the first coordinate with kappa's phases folded in
    kappas = list(itertools.product(*map(range, rest)))
    pushed = []
    for kappa in kappas:
        acc = dict.fromkeys(firsts, 0j)
        for (x, *k), c in terms:
            t = sum(a * km % nm / nm for a, km, nm in zip(kappa, k, rest))
            acc[x] += c * cmath.exp(-2j * cmath.pi * t)
        pushed.append(acc)
    for m in orders or [1]:
        w = {x: cmath.exp(-2j * cmath.pi * (x % m) / m) for x in firsts}
        for kappa, acc in zip(kappas, pushed):
            if abs(sum(c * w[x] for x, c in acc.items())) > _PREFILTER_TOL:
                continue
            phases = [*map(RationalMod1, kappa, rest)]
            etas = (*phases[:j], RationalMod1(1, m), *phases[j:])
            if _may_vanish(CharacterVector(group, etas).fourier_phases(f)):
                return False
    return True


# ---------------------------------------------------------------------------
# probe on free rank >= 2: one character per Galois class of each small order

_PROBE_MAX_ORDER = 6
# The probe stops at the first order m with m^d * |K| beyond this, on
# Z^d x K: Z^3 is probed to order 6, Z^4 to order 3 and Z^8 at order 1 only.
_PROBE_WORK_CAP = 6**3


@lru_cache(maxsize=None)
def _galois_classes(m: int, steps: tuple) -> list:
    """The lexicographically least a of each class {u*a : u prime to m} with
    gcd(m, a) = 1 and each a_i in range(0, m, steps[i])."""
    units = [u for u in range(2, m) if math.gcd(u, m) == 1]
    return [
        a
        for a in itertools.product(*(range(0, m, s) for s in steps))
        if math.gcd(m, *a) == 1 and all(a <= tuple(u * ai % m for ai in a) for u in units)
    ]


def _small_order_character(group: GroupSpec, f: FinMap):
    """A character of least order m <= _PROBE_MAX_ORDER that kills f-hat, or
    None when none is shown within the work cap.

    A character of order dividing m is x -> e(<a, x>/m): a free coordinate
    takes any a_i mod m, a torsion coordinate Z/N one with N*a_i/m in Z.  Its
    exact order is m iff gcd(m, a) = 1.  Galois conjugation by u prime to m
    carries f-hat(a/m) to f-hat(u*a/m), so one a per class {u*a} settles
    order m (at m = 1 the one test is sum(f) = 0).  A candidate passes the
    float prefilter of the pre-check, then the exact zero test; an exact test
    beyond the cyclotomic cap shows nothing, and the candidate is skipped.
    No character at all kills f-hat when one coefficient outweighs all the
    others, |c| > l1(f) - |c|, since f-hat is a sum of |c_x| times units.
    """
    coeffs = [abs(c) for c in f.entries.values()]
    if 2 * max(coeffs) > sum(coeffs):
        return None
    (x0, c0), *rest = f.entries.items()
    # f-hat up to the unit e(-<a, x0>/m): differences to the first point
    diffs = [([y - y0 for y, y0 in zip(x, x0)], c) for x, c in rest]
    size = math.prod(group.torsion)
    for m in range(1, _PROBE_MAX_ORDER + 1):
        if m**group.free_rank * size > _PROBE_WORK_CAP:
            return None
        w = [cmath.exp(-2j * cmath.pi * t / m) for t in range(m)]
        steps = (1,) * group.free_rank + tuple(m // math.gcd(m, n) for n in group.torsion)
        for a in _galois_classes(m, steps):
            s = c0 + sum(c * w[sum(map(operator.mul, x, a)) % m] for x, c in diffs)
            if abs(s) > _PREFILTER_TOL:
                continue
            chi = CharacterVector(group, tuple(RationalMod1(ai, m) for ai in a))
            try:
                if sum_roots_is_zero(chi.fourier_phases(f)):
                    return chi
            except CapacityError:
                continue
    return None


def decide_zero_annihilator(group: GroupSpec, f: FinMap, cap: int = 8) -> AnnihilatorVerdict:
    """YES iff some finite-order character kills every Fourier term of f.

    Exhausts all partitions of the unit expansion into blocks of size >= 2 (up
    to identical-term symmetry) in canonical order — largest blocks first,
    lexicographic within — and reports the character of the first success;
    NO means every partition's constraint system was ruled out exactly.  On
    free rank >= 2 a killing character of order at most 6 (within the
    probe's work cap) is found first, by one test per Galois class of each
    order in turn, and such a YES is of least order.  A YES carries the
    character and the periodic witness built from it, re-verified exactly.

    The expansion size ``n = l1_norm(f)`` must not exceed ``cap``; beyond the
    cap a CapacityError is raised so that an undecided instance can never read
    as a NO.
    """
    _want_int(cap, "cap", 1)
    if f.group != group:
        raise InputError("f lives on a different group")
    if f.is_zero:
        raise InputError("f = 0 is degenerate: every map annihilates it")
    n = l1_norm(f)
    if n > cap:
        raise CapacityError(f"l1 norm {n} exceeds the decision capacity {cap}")
    if _no_killing_character(group, f, n):
        return AnnihilatorVerdict("NO")
    chi = _small_order_character(group, f) if group.free_rank >= 2 else None
    if chi is None:
        # identical terms are adjacent in the unit expansion, so each term
        # type owns a contiguous run of term indices
        terms = unit_expansion(f)
        counts = [len(list(run)) for _, run in itertools.groupby(terms)]
        offsets = list(itertools.accumulate(counts, initial=0))
        for partition in _iter_multiset_partitions(tuple(counts)):
            # each block takes the lowest unused terms of each type
            next_free = offsets[:-1]
            blocks = []
            for block in partition:
                idx = []
                for ti, cnt in enumerate(block):
                    idx.extend(range(next_free[ti], next_free[ti] + cnt))
                    next_free[ti] += cnt
                blocks.append(tuple(idx))
            etas = _solve_partition(group, terms, blocks)
            if etas is not None:
                chi = CharacterVector(group, etas)
                break
        else:
            return AnnihilatorVerdict("NO")
    witness = witness_periodic_annihilator(group, chi)
    if not verify_annihilator(f, witness):  # pragma: no cover - internal guard
        raise AssertionError("witness failed re-verification; decider is broken")
    return AnnihilatorVerdict("YES", chi, witness)


def witness_periodic_annihilator(group: GroupSpec, chi: CharacterVector) -> PeriodicMap:
    """Periodic integer witness built from a character: the coefficient-of-1
    retraction applied pointwise to chi.

    The result has period = order of chi on the free coordinates, takes the
    value 1 at the identity, and satisfies f*witness = 0 whenever chi kills
    f-hat (the retraction is Z-linear, so it commutes with the finite
    convolution sums).
    """
    if chi.group != group:
        raise InputError("character lives on a different group")
    order = chi.order
    cells = group.domain_size(order)
    if cells > _WITNESS_CAP:
        raise CapacityError(
            f"witness of {cells} cells, beyond the {_WITNESS_CAP} cap of this build"
        )
    values = (
        retraction_coeff0(chi.phase(x), order) for x in group.fundamental_domain(order)
    )
    return PeriodicMap(group, order, values)


def verify_annihilator(f: FinMap, a_p: PeriodicMap) -> bool:
    """Exact check: f * a_p vanishes on a fundamental domain and a_p != 0."""
    if a_p.is_zero:
        return False
    return convolve_periodic(f, a_p).is_zero


def decide_level_shift(group: GroupSpec, f: FinMap, cap: int = 8) -> AnnihilatorVerdict:
    """Decide solvability of f*a = k (constant level k, non-constant a).

    With s = sum(f) non-zero the two problems coincide: if f*a = k then
    s*a - k is a non-zero annihilator, and conversely a non-zero annihilator
    is automatically non-constant and already solves the k = 0 instance.  The
    verdict therefore carries the same witness data as the annihilator search.
    Inputs with s = 0 are rejected: then f*a = k forces k = 0 outright and
    the reduction above says nothing.
    """
    if f.group != group:
        raise InputError("f lives on a different group")
    if sum(f.entries.values()) == 0:
        raise InputError(
            "total mass of f is zero; the level-shift reduction does not apply"
        )
    return decide_zero_annihilator(group, f, cap)
