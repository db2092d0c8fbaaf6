"""Desk-scale calculators around the planar structure of tiling equations:
wedge products and complementary vectors, dilation stability reports, coset
slicing, slice-convolution periodicity reports, and finite Cesàro averages
along a direction.

Everything here is exact on finite data.  The one knowingly approximate
object is cesaro_average: the true direction-averaging projection uses a
generalized (non-computable) limit, so this module only ever exposes the
finite mean over an orbit segment and says so.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence, Tuple

from .errors import InputError, _Record, _want_int
from .groups import (
    FinMap,
    GroupSpec,
    PeriodicMap,
    convolve_periodic,
    dilate,
)

__all__ = [
    "Window2D",
    "wedge",
    "complement",
    "DilationReport",
    "dilation_check",
    "coset_slice",
    "SliceReport",
    "slicing_periodicity_check",
    "cesaro_average",
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

    Any two complements differ by a multiple of w; this recipe pins one down:
    extended gcd produces a first solution, then it is shifted by multiples of
    w until the first coordinate lands in [0, |w0|) (or, when w0 = 0, until
    the second coordinate is 0).  Together with w it frames the plane:
    y = wedge(w, y)*w* - wedge(w*, y)*w for every y.

    >>> complement((1, 0))
    (0, 1)
    >>> complement((0, 1))
    (-1, 0)
    >>> wedge((2, 3), complement((2, 3)))
    1
    """
    a, b = _require_primitive(w)
    # s*a + t*b = 1, so (-t, s) pairs to a*s - b*(-t) = 1
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    c0, c1 = -old_t, old_s
    if a != 0:
        shift = (c0 % abs(a) - c0) // a
    else:
        shift = -c1 // b  # b = ±1 here, force the second coordinate to 0
    return (c0 + shift * a, c1 + shift * b)


class DilationReport(_Record):
    __slots__ = ("q", "results")  # results: (r, exact equality held) pairs

    def __init__(self, q: int, results: Tuple[Tuple[int, bool], ...]) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "results", results)

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


class SliceReport(_Record):
    __slots__ = ("coset_key", "base_point", "convolution", "period_vectors")

    def __init__(
        self,
        coset_key: int,  # wedge(w, y) shared by the whole line
        base_point: Tuple[int, int],
        convolution: PeriodicMap,
        period_vectors: Tuple[Tuple[int, int], ...],  # invariance shifts within [0, q)²
    ) -> None:
        object.__setattr__(self, "coset_key", coset_key)
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "convolution", convolution)
        object.__setattr__(self, "period_vectors", period_vectors)


def slicing_periodicity_check(
    f: FinMap, phi: PeriodicMap, w: Sequence[int]
) -> Tuple[SliceReport, ...]:
    """Convolve each line-slice of f with phi and report its repeat vectors.

    phi's declared square period q is first checked to make phi invariant
    under the shift by q·w (the hypothesis the slicing statement runs on).
    One report per line of direction w meeting supp(f), keyed by the wedge
    value that names the line; the repeat vectors are all shifts in [0, q)²
    fixing the slice convolution, so the quotient reader can see the full
    invariance lattice at a glance.  f = 0 yields an empty report.
    """
    if f.group != Z2 or phi.group != Z2:
        raise InputError("slicing is implemented for Z² only")
    w = _require_primitive(w)
    q = phi.period
    qw = (q * w[0], q * w[1])
    for x in Z2.fundamental_domain(q):
        if phi.value((x[0] + qw[0], x[1] + qw[1])) != phi.value(x):
            raise InputError(f"phi is not invariant under the shift {qw}")

    lines: Dict[int, Tuple[int, int]] = {}
    for y in f.support():
        key = wedge(w, y)
        lines.setdefault(key, y)
    reports = []
    for key in sorted(lines):
        base = lines[key]
        conv = convolve_periodic(coset_slice(f, base, w), phi)
        vectors = tuple(
            v
            for v in Z2.fundamental_domain(conv.period)
            if all(
                conv.value((x[0] + v[0], x[1] + v[1])) == conv.value(x)
                for x in Z2.fundamental_domain(conv.period)
            )
        )
        reports.append(SliceReport(key, base, conv, vectors))
    return tuple(reports)


class Window2D(_Record):
    """Finite rectangular window of values; inclusive integer bounds.

    Out-of-range lookups raise — a window never pretends to know values it
    was not given.
    """

    __slots__ = ("x_range", "y_range", "values")

    def __init__(
        self,
        x_range: Tuple[int, int],
        y_range: Tuple[int, int],
        values: Tuple[Tuple[object, ...], ...],  # rows indexed by x, columns by y
    ) -> None:
        (x0, x1), (y0, y1) = x_range, y_range
        if x1 < x0 or y1 < y0:
            raise InputError("window bounds are empty")
        rows = tuple(tuple(row) for row in values)
        if len(rows) != x1 - x0 + 1 or any(len(row) != y1 - y0 + 1 for row in rows):
            raise InputError("value grid does not match the window bounds")
        object.__setattr__(self, "x_range", x_range)
        object.__setattr__(self, "y_range", y_range)
        object.__setattr__(self, "values", rows)

    @classmethod
    def from_function(
        cls, x_range: Tuple[int, int], y_range: Tuple[int, int], fn: Callable
    ) -> "Window2D":
        return cls(
            tuple(x_range),
            tuple(y_range),
            tuple(
                tuple(fn(x, y) for y in range(y_range[0], y_range[1] + 1))
                for x in range(x_range[0], x_range[1] + 1)
            ),
        )

    def value(self, x: int, y: int):
        if not (self.x_range[0] <= x <= self.x_range[1]):
            raise InputError(f"x = {x} outside window x-range {self.x_range}")
        if not (self.y_range[0] <= y <= self.y_range[1]):
            raise InputError(f"y = {y} outside window y-range {self.y_range}")
        return self.values[x - self.x_range[0]][y - self.y_range[0]]


def cesaro_average(a: Window2D, v: Sequence[int], n_terms: int) -> Window2D:
    """Finite Cesàro mean (1/N)·Σ_{n=1..N} a(x + n·v) — an *approximation* of
    the direction-averaging projection (the genuine projection needs a
    generalized limit, which no finite computation produces).

    The domain shrinks so every sampled point stays inside a's window; values
    are exact Fractions.  The mean is a sup-norm contraction and reproduces
    any v-periodic window exactly on the shrunken domain.
    """
    v = _vec2(v)
    _want_int(n_terms, "n_terms", 1)
    # x + n*v must stay in bounds for n = 1..N, per axis
    vx, vy = v

    def axis(rng, step):
        lo, hi = rng
        # lo <= x + n*step <= hi for all n in 1..N
        lows = [lo - n * step for n in range(1, n_terms + 1)]
        highs = [hi - n * step for n in range(1, n_terms + 1)]
        return max(lows), min(highs)
    nx = axis(a.x_range, vx)
    ny = axis(a.y_range, vy)
    if nx[1] < nx[0] or ny[1] < ny[0]:
        raise InputError("averaging window is empty; enlarge the input window")
    from fractions import Fraction

    return Window2D.from_function(
        nx,
        ny,
        lambda x, y: Fraction(
            sum(a.value(x + n * vx, y + n * vy) for n in range(1, n_terms + 1)),
            n_terms,
        ),
    )
