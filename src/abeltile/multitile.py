"""Decide f*1_A = g on Z² by dovetailing two semi-procedures.

One side searches for a solution that repeats on a square torus (periods run
over multiples of g's period); the other side searches for a finite window
around the origin on which no partial 0/1 assignment can satisfy the
convolution constraints (such a window rules out *every* A, periodic or not).
Whichever side lands first decides the instance; if both ladders run out the
verdict is UNKNOWN — an honest budget statement, never a NO.  Before a torus
search runs, a mass count rules out sides with no solution: summed over the
torus, f*1_A = g reads sum(f)·|A mod q| = sum of g over [q]², and a side where
no count 0..q² fits returns None without a search and costs no nodes.

Both sides build their constraints in one function, one equality per cell, and
share one iterative backtracking engine with bounds propagation: each
constraint keeps two slacks, how far its target lies above the least and
below the greatest value its left side can still reach under the current
partial assignment.  A value of a cell uses up one of them, and the cell is
forced to its other value as soon as its own would overdraw the slack.  Cells
no constraint reads start at 0 and never cost a branch.
"""

from __future__ import annotations

from itertools import product, zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, InputError, _Record, _want_int
from .groups import FinMap, GroupSpec, PeriodicMap, convolve_periodic

__all__ = [
    "TorusAssignment",
    "SearchBudget",
    "MultitileVerdict",
    "periodic_search",
    "box_refute",
    "verify_multitile",
    "decide_multitile",
]

Z2 = GroupSpec(2)


class TorusAssignment(_Record):
    """0/1 pattern on [q]², read row-major: bits[x*q + y] covers cell (x, y)."""

    __slots__ = ("q", "bits")

    def __init__(self, q: int, bits: Tuple[int, ...]) -> None:
        _want_int(q, "torus side", 1)
        bits = tuple(bits)
        if len(bits) != q * q:
            raise InputError(f"expected {q * q} bits, got {len(bits)}")
        for b in bits:
            if b not in (0, 1) or isinstance(b, bool):
                raise InputError("bits must be 0 or 1")
        self._fill(q, bits)

    def to_periodic_map(self) -> PeriodicMap:
        return PeriodicMap(Z2, self.q, self.bits)

    def render(self) -> str:
        rows = []
        for x in range(self.q):
            rows.append("".join("#" if self.bits[x * self.q + y] else "." for y in range(self.q)))
        return "\n".join(rows)


class SearchBudget(_Record):
    __slots__ = ("max_q", "max_box_radius", "max_nodes")

    def __init__(
        self, max_q: int = 12, max_box_radius: int = 6, max_nodes: int = 200_000
    ) -> None:
        values = (max_q, max_box_radius, max_nodes)
        self._fill(*(_want_int(value, name, 1) for name, value in zip(self.__slots__, values)))


class MultitileVerdict(_Record):
    # answer: "YES" | "NO" | "UNKNOWN"
    __slots__ = ("answer", "certificate", "refutation_box_radius", "budget_note", "nodes_used")
    _defaults = dict(certificate=None, refutation_box_radius=None, budget_note=None, nodes_used=0)

    @property
    def is_yes(self) -> bool:
        return self.answer == "YES"


# ---------------------------------------------------------------------------
# shared pseudo-boolean engine


class _Csp:
    """Equality constraints sum(c_i * x_i) = t over 0/1 cells.

    Bounds propagation on two slacks per constraint: slot 2k holds t − lo and
    slot 2k+1 holds hi − t, where lo and hi bound what constraint k can still
    reach.  Each value of a cell uses up |c| of exactly one of the two slacks
    (value 1 of a positive c raises lo, value 0 lowers hi; the other way round
    for a negative c).  A constraint is dead when a slack is negative, and a
    cell is forced to its other value when |c| exceeds the slack its value
    would use.  So a constraint whose slacks both cover its largest |c| can
    force nothing, and it is queued only when one of them falls below that.
    These rules are monotone: every queue order reaches the same fixpoint or
    the same dead end.
    """

    def __init__(self, nvars: int, constraints: Sequence[Tuple[Sequence[Tuple[int, int]], int]]):
        self.nvars = nvars
        self.trail: List[int] = []
        self.slack: List[int] = []
        # per constraint: (cell, |c|, slot of value 0, slot of value 1) per live term
        self.rows: List[List[Tuple[int, int, int, int]]] = []
        # per cell and value: (slot, |c|, largest |c| of the slot's constraint) it uses
        self.uses: List[Tuple[list, list]] = [([], []) for _ in range(nvars)]
        slack = self.slack
        for k, (terms, t) in enumerate(constraints):
            merged: Dict[int, int] = {}
            for v, c in terms:
                merged[v] = merged.get(v, 0) + c
            # with nothing assigned lo sums the negative c and hi the positive
            # ones, so each term adds |c| to the slot its value 0 would use
            slack += [t, -t]
            row = []
            for v, c in merged.items():
                if c:
                    slot0, slot1 = (2 * k + 1, 2 * k) if c > 0 else (2 * k, 2 * k + 1)
                    slack[slot0] += abs(c)
                    row.append((v, abs(c), slot0, slot1))
            top = max((a for _, a, _, _ in row), default=0)
            for v, a, slot0, slot1 in row:
                self.uses[v][0].append((slot0, a, top))
                self.uses[v][1].append((slot1, a, top))
            self.rows.append(row)
        # a cell no constraint reads is free, so 0 keeps the solution lex-least
        self.value = [-1 if uses[0] else 0 for uses in self.uses]

    def _assign(self, v: int, b: int, queue: List[int]) -> None:
        """Set cell v to b and queue each constraint whose used slack falls
        below its largest |c|."""
        self.value[v] = b
        self.trail.append(v)
        slack = self.slack
        for s, a, top in self.uses[v][b]:
            slack[s] -= a
            if slack[s] < top:
                queue.append(s >> 1)

    def undo(self, mark: int) -> None:
        value, slack, uses = self.value, self.slack, self.uses
        for v in self.trail[mark:]:
            for s, a, _ in uses[v][value[v]]:
                slack[s] += a
            value[v] = -1
        del self.trail[mark:]

    def propagate(self, queue: List[int]) -> bool:
        """Fixpoint over the queued constraints; False on a dead end."""
        value, slack = self.value, self.slack
        while queue:
            k = queue.pop()
            if slack[2 * k] < 0 or slack[2 * k + 1] < 0:
                return False
            for v, a, slot0, slot1 in self.rows[k]:
                if value[v] != -1:
                    continue
                if a > slack[slot1]:
                    if a > slack[slot0]:
                        return False
                    self._assign(v, 0, queue)
                elif a > slack[slot0]:
                    self._assign(v, 1, queue)
        return True

    def assign_and_propagate(self, v: int, b: int) -> bool:
        queue: List[int] = []
        self._assign(v, b, queue)
        return self.propagate(queue)

    def solve(self, max_nodes: int) -> Tuple[Optional[List[int]], int]:
        """First solution in lexicographic cell order (0 before 1), or None.

        Decisions are taken on the lowest unassigned cell, so together with
        sound propagation the first solution found is the lex-least one.
        Raises BudgetExceededError when the decision count passes max_nodes.
        """
        if not self.propagate(list(range(len(self.rows)))):
            return None, 0
        value = self.value
        nodes = v = 0
        stack: List[Tuple[int, int, int]] = []  # (cell, bit, trail mark) per decision
        while True:
            while v < self.nvars and value[v] != -1:
                v += 1
            if v == self.nvars:
                return list(value), nodes
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError(
                    f"search exceeded the node budget of {max_nodes}"
                )
            b, mark = 0, len(self.trail)
            while not self.assign_and_propagate(v, b):
                self.undo(mark)
                while b:  # both values failed here: reopen the last decision
                    if not stack:
                        return None, nodes
                    v, b, mark = stack.pop()
                    self.undo(mark)
                b = 1
            stack.append((v, b, mark))
            v += 1


# ---------------------------------------------------------------------------
# the two semi-procedures


def _require_z2(f: FinMap, g: PeriodicMap) -> None:
    if f.group != Z2 or g.group != Z2:
        raise InputError("multi-tiling decision is implemented for Z² only")


def _search(f: FinMap, g: PeriodicMap, cells, index, nvars: int, max_nodes: int):
    """(lex-least a ∈ {0,1}^nvars or None, nodes) for the constraints
    sum(c·a[index(x − y)] for c·δ_y in f) = g(x), one per x in cells: the torus
    and the box differ only in their cells and in how index maps Z² to a cell."""
    supp = [(y, f.coeff(y)) for y in f.support()]
    constraints = [
        ([(index(x[0] - y[0], x[1] - y[1]), c) for y, c in supp], g.value(x))
        for x in cells
    ]
    return _Csp(nvars, constraints).solve(max_nodes)


def _torus(f: FinMap, g: PeriodicMap, q: int, max_nodes: int):
    _require_z2(f, g)
    _want_int(q, "torus side", 1)
    if q % g.period != 0:
        raise InputError(f"torus side {q} is not a multiple of g's period {g.period}")
    _want_int(max_nodes, "max_nodes", 1)
    # summing the constraints over the torus gives sum(f)·|A mod q| = sum of g
    # over [q]², so a side where no count 0..q² fits has no solution
    total = sum(f.entries.values())
    mass = (q // g.period) ** 2 * sum(g.values)
    if total == 0:
        fits = mass == 0
    else:
        fits = mass % total == 0 and 0 <= mass // total <= q * q
    if not fits:
        return None, 0
    cells = product(range(q), repeat=2)  # indexed by the quotient map Z² → Z²/qZ²
    solution, nodes = _search(f, g, cells, lambda p0, p1: p0 % q * q + p1 % q, q * q, max_nodes)
    return (None if solution is None else TorusAssignment(q, tuple(solution))), nodes


def periodic_search(
    f: FinMap, g: PeriodicMap, q: int, max_nodes: int = SearchBudget().max_nodes
) -> Optional[TorusAssignment]:
    """Lex-least qZ²-periodic solution of f*1_A = g, or None if the torus
    admits none.  Exact: encodes one equality constraint per torus cell and
    exhausts the assignment tree (budget overruns raise, they never return).
    A side where sum(f)·|A mod q| = sum of g over [q]² has no count 0..q²
    returns None without a search, so it costs no nodes."""
    return _torus(f, g, q, max_nodes)[0]


def _box(f: FinMap, g: PeriodicMap, n: int, max_nodes: int):
    _require_z2(f, g)
    _want_int(n, "box radius", 0)
    _want_int(max_nodes, "max_nodes", 1)
    r = n + max((max(abs(y[0]), abs(y[1])) for y in f.support()), default=0)
    side = 2 * r + 1
    cells = product(range(-n, n + 1), repeat=2)  # indexed by the offset into the window
    solution, nodes = _search(
        f, g, cells, lambda p0, p1: (p0 + r) * side + p1 + r, side * side, max_nodes)
    return solution is None, nodes


def box_refute(
    f: FinMap, g: PeriodicMap, n: int, max_nodes: int = SearchBudget().max_nodes
) -> bool:
    """True iff no 0/1 assignment on the window [−n−R, n+R]² meets the
    convolution constraint on every cell of [−n,n]² (R = support radius of f).

    True refutes global existence: any solution restricts to a consistent
    window.  A budget overrun raises BudgetExceededError — inconclusive is
    never reported as False.
    """
    return _box(f, g, n, max_nodes)[0]


def verify_multitile(f: FinMap, g: PeriodicMap, cert: TorusAssignment) -> bool:
    """Exact convolution check of a torus certificate on all q² cells."""
    _require_z2(f, g)
    if cert.q % g.period != 0:
        raise InputError(
            f"certificate period {cert.q} is not a multiple of g's period {g.period}"
        )
    return convolve_periodic(f, cert.to_periodic_map()).equals(g)


def decide_multitile(
    f: FinMap, g: PeriodicMap, budget: SearchBudget = SearchBudget()
) -> MultitileVerdict:
    """Dovetailed decision of "does some A ⊂ Z² satisfy f*1_A = g?".

    Alternates one torus attempt (q = period, 2·period, … ≤ max_q) with one
    refutation attempt (radius 0, 1, … ≤ max_box_radius), each under its own
    node allowance.  YES and NO both come with re-checkable certificates;
    UNKNOWN reports which ladders were exhausted and whether any attempt was
    cut short by the node budget.
    """
    _require_z2(f, g)
    qs = list(range(g.period, budget.max_q + 1, g.period))
    ns = list(range(0, budget.max_box_radius + 1))
    total_nodes = 0
    truncated = 0
    for pair in zip_longest(qs, ns):
        for step, arg in zip((_torus, _box), pair):
            if arg is None:
                continue
            try:
                found, nodes = step(f, g, arg, budget.max_nodes)
            except BudgetExceededError:
                found, nodes = None, budget.max_nodes
                truncated += 1
            total_nodes += nodes
            if found and step is _box:
                return MultitileVerdict("NO", refutation_box_radius=arg, nodes_used=total_nodes)
            if found:
                if not verify_multitile(f, g, found):  # pragma: no cover - guard
                    raise AssertionError("torus certificate failed re-verification")
                return MultitileVerdict("YES", certificate=found, nodes_used=total_nodes)

    note = (
        f"exhausted torus sides {qs or 'none'} and box radii {ns}"
        f" with {budget.max_nodes} nodes per attempt"
    )
    if truncated:
        note += f"; {truncated} attempt(s) were cut short by the node budget"
    return MultitileVerdict("UNKNOWN", budget_note=note, nodes_used=total_nodes)
