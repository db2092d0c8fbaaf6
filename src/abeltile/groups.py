"""Finitely generated abelian groups and their integer convolution algebra.

A group is ``Z^d x Z/N_1 x ... x Z/N_t``; elements are integer coordinate
tuples, canonical when each torsion coordinate lies in ``[0, N_m)``.  Two
kinds of integer-valued functions live here: finitely supported maps (the
tiles ``f``) and maps periodic under a scalar lattice ``qZ^d`` (candidate
solutions and right-hand sides), stored densely on the fundamental domain
``[q]^d x prod [N_m]``.  All arithmetic is exact over arbitrary-precision
integers.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InputError, _Record, _want_int
from .qzlinear import HALF, ZERO, IntMatrix, smith_normal_form

__all__ = [
    "GroupSpec",
    "GroupElement",
    "FinMap",
    "PeriodicMap",
    "convolve",
    "convolve_periodic",
    "dilate",
    "difference",
    "Quotient",
    "quotient_by",
    "pushforward",
    "l1_norm",
    "unit_expansion",
]

# Elements are plain coordinate tuples; GroupSpec owns canonicalization.
GroupElement = Tuple[int, ...]


class GroupSpec(_Record):
    """Shape of ``Z^free_rank x prod Z/N`` with torsion moduli ``N >= 1``."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple = ()) -> None:
        _want_int(free_rank, "free_rank", 0)
        torsion = tuple(torsion)
        for n in torsion:
            _want_int(n, "torsion modulus", 1)
        self._fill(free_rank, torsion)

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    def canonicalize(self, coords: Sequence[int]) -> GroupElement:
        """Reduce torsion coordinates into [0, N); idempotent."""
        if len(coords) != self.rank:
            raise InputError(
                f"element has {len(coords)} coordinates, group has rank {self.rank}"
            )
        for c in coords:
            if not isinstance(c, int) or isinstance(c, bool):
                raise InputError("coordinates must be integers")
        free = tuple(coords[: self.free_rank])
        tors = tuple(
            c % n for c, n in zip(coords[self.free_rank :], self.torsion)
        )
        return free + tors

    def identity(self) -> GroupElement:
        return (0,) * self.rank

    def add(self, x: Sequence[int], y: Sequence[int]) -> GroupElement:
        if len(x) != self.rank or len(y) != self.rank:
            raise InputError(f"operands need {self.rank} coordinates each")
        return self.canonicalize(tuple(a + b for a, b in zip(x, y)))

    def sub(self, x: Sequence[int], y: Sequence[int]) -> GroupElement:
        return self.add(x, self.scale(-1, y))

    def scale(self, r: int, x: Sequence[int]) -> GroupElement:
        return self.canonicalize(tuple(r * a for a in x))

    def fundamental_domain(self, q: int) -> Iterator[GroupElement]:
        """Row-major iteration over ``[q]^d x prod [N_m]``."""
        axes = [range(q)] * self.free_rank + [range(n) for n in self.torsion]
        return itertools.product(*axes)

    def domain_size(self, q: int) -> int:
        out = q**self.free_rank
        for n in self.torsion:
            out *= n
        return out


class FinMap:
    """Finitely supported integer-valued function on a group.

    Keys are canonical coordinate tuples, coefficients are non-zero integers;
    construction canonicalizes, merges collisions, and drops zeros.
    """

    __slots__ = ("group", "entries")

    def __init__(self, group: GroupSpec, data: object = ()) -> None:
        self.group = group
        merged: Dict[GroupElement, int] = {}
        items = data.items() if isinstance(data, dict) else data
        for coords, coeff in items:
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise InputError("coefficients must be integers")
            key = group.canonicalize(tuple(coords))
            merged[key] = merged.get(key, 0) + coeff
        self.entries = {k: v for k, v in merged.items() if v != 0}

    @classmethod
    def delta(cls, group: GroupSpec, coords: Sequence[int], coeff: int = 1) -> "FinMap":
        return cls(group, [(tuple(coords), coeff)])

    @classmethod
    def indicator(cls, group: GroupSpec, points: Iterable[Sequence[int]]) -> "FinMap":
        return cls(group, [(tuple(p), 1) for p in points])

    @classmethod
    def zero(cls, group: GroupSpec) -> "FinMap":
        return cls(group)

    def coeff(self, coords: Sequence[int]) -> int:
        return self.entries.get(self.group.canonicalize(tuple(coords)), 0)

    def support(self) -> tuple:
        return tuple(sorted(self.entries))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def shift(self, h: Sequence[int]) -> "FinMap":
        """Translate by h: returns ``delta_h * self``."""
        g = self.group
        return FinMap(g, [(g.add(x, h), c) for x, c in self.entries.items()])

    def __add__(self, other: "FinMap") -> "FinMap":
        _same_group(self, other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return FinMap(self.group, out)

    def __neg__(self) -> "FinMap":
        return FinMap(self.group, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "FinMap") -> "FinMap":
        return self + (-other)

    def __mul__(self, n: int) -> "FinMap":
        if not isinstance(n, int):
            return NotImplemented
        return FinMap(self.group, {k: n * v for k, v in self.entries.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FinMap):
            return self.group == other.group and self.entries == other.entries
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.entries.items()))
        return f"FinMap({{{body}}})"


def _same_group(f, g):
    if f.group != g.group:
        raise InputError("operands live on different groups")


class PeriodicMap:
    """Integer function invariant under ``qZ^d``, dense on the fundamental domain.

    Lookup factors through reduction mod q on free coordinates and mod N_m on
    torsion coordinates, so a PeriodicMap behaves as a total function on the
    group.
    """

    __slots__ = ("group", "period", "values", "_strides")

    def __init__(self, group: GroupSpec, period: int, values: Sequence[int]) -> None:
        _want_int(period, "period", 1)
        self.group = group
        self.period = period
        vals = tuple(values)
        expected = group.domain_size(period)
        if len(vals) != expected:
            raise InputError(
                f"values grid has {len(vals)} cells, fundamental domain needs {expected}"
            )
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError("values must be integers")
        self.values = vals
        dims = [period] * group.free_rank + list(group.torsion)
        strides = []
        acc = 1
        for d in reversed(dims):
            strides.append(acc)
            acc *= d
        self._strides = tuple(reversed(strides))

    @classmethod
    def from_function(
        cls, group: GroupSpec, period: int, fn: Callable[[GroupElement], int]
    ) -> "PeriodicMap":
        return cls(group, period, map(fn, group.fundamental_domain(period)))

    @classmethod
    def constant(cls, group: GroupSpec, value: int, period: int = 1) -> "PeriodicMap":
        return cls(group, period, [value] * group.domain_size(period))

    def _index(self, coords: Sequence[int]) -> int:
        g = self.group
        if len(coords) != g.rank:
            raise InputError("coordinate arity mismatch")
        idx = 0
        for i in range(g.free_rank):
            idx += (coords[i] % self.period) * self._strides[i]
        for j, n in enumerate(g.torsion):
            idx += (coords[g.free_rank + j] % n) * self._strides[g.free_rank + j]
        return idx

    def value(self, coords: Sequence[int]) -> int:
        return self.values[self._index(coords)]

    @property
    def is_zero(self) -> bool:
        return not any(self.values)

    def equals(self, other: "PeriodicMap") -> bool:
        """Pointwise equality as functions on the group (periods may differ)."""
        if self.group != other.group:
            return False
        q = math.lcm(self.period, other.period)
        return all(
            self.value(x) == other.value(x) for x in self.group.fundamental_domain(q)
        )

    def __eq__(self, other):
        if isinstance(other, PeriodicMap):
            return (
                self.group == other.group
                and self.period == other.period
                and self.values == other.values
            )
        return NotImplemented

    def __repr__(self):
        return f"PeriodicMap(period={self.period}, values={self.values!r})"


def convolve(f: FinMap, g: FinMap) -> FinMap:
    """Exact convolution ``(f*g)(x) = sum_y f(y) g(x-y)``; bilinear, commutative.

    The identity of the algebra is ``delta`` at the group identity.
    """
    _same_group(f, g)
    grp = f.group
    out: Dict[GroupElement, int] = {}
    for y, cf in f.entries.items():
        for z, cg in g.entries.items():
            key = grp.add(y, z)
            out[key] = out.get(key, 0) + cf * cg
    return FinMap(grp, out)


def convolve_periodic(f: FinMap, a: PeriodicMap) -> PeriodicMap:
    """Convolution of a finitely supported map with a periodic one; the result
    keeps the period of ``a`` and is evaluated exactly on its fundamental domain.

    Each term ``c * delta_y`` reads ``a`` at ``x - y`` for every cell ``x`` in
    row-major order; the flat index of that cell is a sum of per-axis entries
    ``((x_i - y_i) mod dim_i) * stride_i``, so the sums stream straight from
    ``a.values`` into the result.
    """
    if f.group != a.group:
        raise InputError("operands live on different groups")
    grp = f.group
    dims = [a.period] * grp.free_rank + list(grp.torsion)
    vals = a.values
    streams = []
    for y, c in f.entries.items():
        tables = [
            [((x - yi) % n) * stride for x in range(n)]
            for yi, n, stride in zip(y, dims, a._strides)
        ]
        read = map(vals.__getitem__, map(sum, itertools.product(*tables)))
        streams.append(read if c == 1 else map(c.__mul__, read))
    if not streams:
        return PeriodicMap.constant(grp, 0, a.period)
    return PeriodicMap(grp, a.period, map(sum, zip(*streams)))


def dilate(f: FinMap, r: int) -> FinMap:
    """Push each support point x to r*x, summing coefficients on collisions."""
    _want_int(r, "dilation factor", 1)
    g = f.group
    return FinMap(g, [(g.scale(r, x), c) for x, c in f.entries.items()])


def difference(f, h: Sequence[int]):
    """Difference operator ``(d_h f)(x) = f(x+h) - f(x)`` for either map kind.

    Computed as convolution with ``delta_{-h} - delta_0``.
    """
    if not isinstance(f, (FinMap, PeriodicMap)):
        raise InputError("difference wants a FinMap or a PeriodicMap")
    zero = f.group.identity()
    kernel = FinMap(f.group, [(f.group.sub(zero, h), 1), (zero, -1)])
    return convolve(f, kernel) if isinstance(f, FinMap) else convolve_periodic(kernel, f)


class Quotient(_Record):
    """Presentation of ``G / <w>`` with an explicit projection.

    ``project`` sends a coordinate tuple of the source group to canonical
    coordinates of the quotient.  The projection is a homomorphism whose
    kernel is exactly ``<w>`` plus the source torsion relations, computed from
    the Smith normal form of the relation matrix so it is reproducible.
    """

    # _transform: rows of U (unimodular)
    __slots__ = ("source", "group", "_transform", "_free_idx", "_torsion_idx", "_moduli")

    def project(self, coords: Sequence[int]) -> GroupElement:
        x = self.source.canonicalize(tuple(coords))
        y = [sum(row[j] * x[j] for j in range(len(x))) for row in self._transform]
        free = [y[i] for i in self._free_idx]
        tors = [y[i] % self._moduli[i] for i in self._torsion_idx]
        return tuple(free) + tuple(tors)


def quotient_by(group: GroupSpec, w: Sequence[int]) -> Quotient:
    """Quotient presentation of ``group / <w>`` for ``w`` of infinite order.

    Requires a non-zero free part, so the generated subgroup is infinite
    cyclic.  Relation matrix columns are ``w`` and the torsion relators
    ``N_m e_m``; Smith normal form turns ``Z^r / columns`` into moduli per
    transformed coordinate: 0 = free, 1 = dropped, else torsion.
    """
    r = group.rank
    wc = group.canonicalize(tuple(w))
    if all(c == 0 for c in wc):
        raise InputError("cannot quotient by the zero element")
    if all(c == 0 for c in wc[: group.free_rank]):
        raise InputError("quotient direction has finite order (zero free part)")
    columns = [list(wc)]
    for m, n in enumerate(group.torsion):
        col = [0] * r
        col[group.free_rank + m] = n
        columns.append(col)
    rel = IntMatrix([[columns[j][i] for j in range(len(columns))] for i in range(r)])
    snf = smith_normal_form(rel)
    diag = snf.diagonal
    moduli = []
    for i in range(r):
        d = diag[i] if i < len(diag) else 0
        moduli.append(d)
    free_idx = tuple(i for i, d in enumerate(moduli) if d == 0)
    torsion_idx = tuple(i for i, d in enumerate(moduli) if d >= 2)
    new_spec = GroupSpec(len(free_idx), tuple(moduli[i] for i in torsion_idx))
    return Quotient(
        source=group,
        group=new_spec,
        _transform=snf.U.entries,
        _free_idx=free_idx,
        _torsion_idx=torsion_idx,
        _moduli=tuple(moduli),
    )


def pushforward(f: FinMap, w: Sequence[int], quotient: Optional[Quotient] = None) -> FinMap:
    """Sum f over cosets of ``<w>``: the image lives on the quotient group.

    Pass a precomputed :func:`quotient_by` result to keep several pushforwards
    in the same coordinates (it is deterministic either way).
    """
    q = quotient if quotient is not None else quotient_by(f.group, w)
    if q.source != f.group:
        raise InputError("quotient was computed for a different group")
    return FinMap(q.group, [(q.project(x), c) for x, c in f.entries.items()])


def l1_norm(f: FinMap) -> int:
    """Sum of absolute coefficients — the term count of :func:`unit_expansion`."""
    return sum(abs(c) for c in f.entries.values())


def unit_expansion(f: FinMap) -> list:
    """Write f as a signed sum of deltas: terms ``(x, eps)`` with eps 0 for +1
    and 1/2 for -1, each point repeated |coefficient| times, sorted by point.

    >>> G = GroupSpec(1)
    >>> unit_expansion(FinMap(G, {(0,): -2}))
    [((0,), RationalMod1(1, 2)), ((0,), RationalMod1(1, 2))]
    """
    if f.is_zero:
        raise InputError("unit expansion of the zero map is degenerate")
    out = []
    for x in f.support():
        c = f.entries[x]
        eps = ZERO if c > 0 else HALF
        out.extend([(x, eps)] * abs(c))
    return out
