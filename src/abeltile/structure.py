"""Planar structure of tiling equations: wedge products and complementary
vectors, dilation stability reports, and coset slicing.  Everything here is
exact.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .errors import InputError, _Record, _want_int
from .groups import (
    FinMap,
    GroupSpec,
    PeriodicMap,
    convolve_periodic,
    dilate,
)

__all__ = [
    "wedge",
    "complement",
    "DilationReport",
    "dilation_check",
    "coset_slice",
]

Z2 = GroupSpec(2)


def _vec2(v) -> Tuple[int, int]:
    v = tuple(v)
    if len(v) != 2 or any(isinstance(c, bool) or not isinstance(c, int) for c in v):
        raise InputError(f"expected an integer pair, got {v!r}")
    return v  # type: ignore[return-value]


def wedge(u: Sequence[int], v: Sequence[int]) -> int:
    """Planar cross product u0*v1 - u1*v0 (bilinear, antisymmetric).

    >>> wedge((1, 0), (0, 1))
    1
    >>> wedge((2, 3), (4, 5))
    -2
    """
    u, v = _vec2(u), _vec2(v)
    return u[0] * v[1] - u[1] * v[0]


def _require_primitive(w) -> Tuple[int, int]:
    w = _vec2(w)
    if w == (0, 0):
        raise InputError("the zero vector spans no direction")
    if math.gcd(w[0], w[1]) != 1:
        raise InputError(f"{w} is not primitive (gcd of coordinates must be 1)")
    return w


def complement(w: Sequence[int]) -> Tuple[int, int]:
    """The fixed complementary vector w* with wedge(w, w*) = 1.

    Any two complements differ by a multiple of w; this one has its first
    coordinate in [0, |w0|): the inverse of -w1 modulo |w0| (0 when
    |w0| = 1), or (-w1, 0) when w0 = 0.  Together with w it frames the
    plane: y = wedge(w, y)*w* - wedge(w*, y)*w for every y.

    >>> complement((1, 0))
    (0, 1)
    >>> complement((0, 1))
    (-1, 0)
    >>> wedge((2, 3), complement((2, 3)))
    1
    """
    a, b = _require_primitive(w)
    if a == 0:
        return (-b, 0)
    c0 = pow(-b, -1, abs(a))  # a*c1 - b*c0 = 1 needs b*c0 = -1 (mod a)
    return (c0, (1 + b * c0) // a)


class DilationReport(_Record):
    __slots__ = ("q", "results")  # results: (r, exact equality held) pairs

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.results)


def dilation_check(
    f: FinMap, a: PeriodicMap, g: PeriodicMap, q: int, r_list: Sequence[int]
) -> DilationReport:
    """Report whether stretching the support of f by r preserves f*a = g.

    The base identity f*a = g is re-verified first and its failure is an
    input error, not a report line — the interesting content is only what
    dilation does to an identity that actually holds.  Each r must satisfy
    r ≡ 1 (mod q); whether the dilated identity then holds is reported per r
    (it can legitimately fail when q lacks the divisibility the stability
    statement needs, and such failures are data, not errors).
    """
    if g.group != f.group:
        raise InputError("g lives on a different group")
    _want_int(q, "q", 1)
    base = convolve_periodic(f, a)
    if not base.equals(g):
        diff = [
            (x, base.value(x), g.value(x))
            for x in f.group.fundamental_domain(math.lcm(base.period, g.period))
            if base.value(x) != g.value(x)
        ]
        raise InputError(
            f"precondition f*a = g fails at {len(diff)} cell(s), first: "
            f"x={diff[0][0]} gives {diff[0][1]} != {diff[0][2]}"
        )
    results = []
    for r in r_list:
        _want_int(r, "r", 1)
        if r % q != 1 % q:
            raise InputError(f"r = {r} is not congruent to 1 modulo q = {q}")
        results.append((r, convolve_periodic(dilate(f, r), a).equals(g)))
    return DilationReport(q, tuple(results))


def coset_slice(f: FinMap, x: Sequence[int], w: Sequence[int]) -> FinMap:
    """Restriction of f to the line x + Zw (w primitive).

    Membership is the wedge test: y lies on the line iff wedge(w, y - x) = 0.
    Slices over distinct lines partition f.

    >>> from .groups import FinMap
    >>> f = FinMap.indicator(Z2, [(0, 0), (1, 0), (0, 1)])
    >>> sorted(coset_slice(f, (0, 0), (1, 0)).support())
    [(0, 0), (1, 0)]
    """
    if f.group != Z2:
        raise InputError("slicing is implemented for Z² only")
    x = _vec2(x)
    w = _require_primitive(w)
    kept = {
        y: c
        for y, c in f.entries.items()
        if wedge(w, (y[0] - x[0], y[1] - x[1])) == 0
    }
    return FinMap(Z2, kept)
