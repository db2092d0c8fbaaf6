"""Exact integer linear algebra and linear systems over Q/Z.

Smith normal form over the integers decides solvability of ``A @ x = b`` when
the unknowns live in the divisible group Q/Z: with ``U @ A @ V = D`` and
``c = U @ b``, the system is solvable iff ``c[i]`` vanishes whenever the
diagonal entry ``d_i`` does (including rows beyond the diagonal), and then
``x = V @ y`` with ``y_i`` the canonical lift ``c_i / d_i`` is a solution.

The solve runs on plain integers: ``b`` becomes numerators over the lcm
``den`` of its denominators, ``c = U @ b`` and the lift
``y_i = (c_i mod den) / (den * d_i)`` stay integer numerators, and ``V @ y``
is summed over one common denominator; a RationalMod1 is built only for each
unknown of the result.  Everything here is exact; no floats, ever.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from .errors import InputError, _Record

__all__ = [
    "RationalMod1",
    "ZERO",
    "HALF",
    "IntMatrix",
    "SnfDecomposition",
    "smith_normal_form",
    "solve_qz",
    "verify_qz",
    "QzSolutionSet",
    "qz_solution_set",
]


class RationalMod1:
    """An element of Q/Z, stored reduced with ``0 <= numerator < denominator``.

    Supports the operations that make sense in Q/Z — addition, negation,
    subtraction, and scaling by integers.  Multiplying two cosets is *not*
    well defined and is deliberately unsupported.

    >>> RationalMod1(7, 3)
    RationalMod1(1, 3)
    >>> RationalMod1(-1, 4) + RationalMod1(1, 2)
    RationalMod1(1, 4)
    >>> 3 * RationalMod1(1, 6)
    RationalMod1(1, 2)
    >>> -RationalMod1(1, 3)
    RationalMod1(2, 3)
    >>> RationalMod1(4, 2) == RationalMod1(0, 1)
    True
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1) -> None:
        for part in (numerator, denominator):
            if not isinstance(part, int) or isinstance(part, bool):
                raise InputError("RationalMod1 wants integer numerator/denominator")
        if denominator == 0:
            raise InputError("zero denominator")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        numerator %= denominator
        g = math.gcd(numerator, denominator)
        self.numerator = numerator // g
        self.denominator = denominator // g

    def as_fraction(self) -> Fraction:
        """The canonical representative in [0, 1)."""
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def order(self) -> int:
        """Additive order in Q/Z (the reduced denominator).

        >>> RationalMod1(2, 6).order()
        3
        """
        return self.denominator

    def __add__(self, other):
        if isinstance(other, RationalMod1):
            return RationalMod1(
                self.numerator * other.denominator + other.numerator * self.denominator,
                self.denominator * other.denominator,
            )
        if isinstance(other, int):
            return RationalMod1(self.numerator, self.denominator)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RationalMod1(-self.numerator, self.denominator)

    def __sub__(self, other):
        if isinstance(other, (RationalMod1, int)):
            return self + (-other if isinstance(other, RationalMod1) else 0)
        return NotImplemented

    def __mul__(self, n):
        if isinstance(n, int):
            return RationalMod1(self.numerator * n, self.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, RationalMod1):
            return (self.numerator, self.denominator) == (other.numerator, other.denominator)
        if isinstance(other, int):
            return self.numerator == 0
        return NotImplemented

    def __lt__(self, other):
        return self.as_fraction() < other.as_fraction()

    def __le__(self, other):
        return self.as_fraction() <= other.as_fraction()

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __bool__(self):
        return self.numerator != 0

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"RationalMod1({self.numerator}, {self.denominator})"


ZERO = RationalMod1(0)
HALF = RationalMod1(1, 2)


class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers.

    >>> A = IntMatrix([[2, 0], [0, 3]])
    >>> (IntMatrix.identity(2) @ A) == A
    True
    >>> A.det()
    6
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_data: Sequence[Sequence[int]], cols: Optional[int] = None) -> None:
        entries = tuple(tuple(row) for row in rows_data)
        self.rows = len(entries)
        if entries:
            self.cols = len(entries[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in entries:
            if len(row) != self.cols:
                raise InputError("ragged matrix")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InputError("matrix entries must be integers")
        self.entries = entries

    @classmethod
    def _of_ints(cls, rows_data: Sequence[Sequence[int]], cols: int) -> "IntMatrix":
        """Matrix from rows of ``cols`` ints each, built without the checks of
        the public constructor; for entries that are ints by construction."""
        self = cls.__new__(cls)
        self.entries = tuple(map(tuple, rows_data))
        self.rows = len(self.entries)
        self.cols = cols
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def column(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("dimension mismatch in matrix product")
        return IntMatrix(
            [
                [
                    sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            cols=other.cols,
        )

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector; entries may be ints or RationalMod1."""
        if len(vec) != self.cols:
            raise InputError("dimension mismatch in matrix-vector product")
        out = []
        for i in range(self.rows):
            acc = sum((self.entries[i][j] * vec[j] for j in range(self.cols)), ZERO)
            out.append(acc)
        return out

    def det(self) -> int:
        """Exact determinant via the Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


class SnfDecomposition(_Record):
    """U @ A @ V = D with U, V unimodular and D diagonal, d_i | d_{i+1}, d_i >= 0."""

    __slots__ = ("U", "D", "V")

    @property
    def diagonal(self) -> tuple:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))


def smith_normal_form(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms, deterministic for a fixed input.

    Pivot rule: smallest absolute value among the non-zero entries of the
    working submatrix, ties broken row-major.  Keeping pivots small bounds
    coefficient growth and pins down the output.

    >>> snf = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    >>> snf.diagonal
    (1, 6)
    >>> snf.U @ IntMatrix([[2, 0], [0, 3]]) @ snf.V == snf.D
    True
    """
    rows, cols = A.rows, A.cols
    m = [list(row) for row in A.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, k):
        m[i], m[k] = m[k], m[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in m:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def add_row(i, k, q):
        # row_i -= q * row_k, mirrored on U
        mi, mk = m[i], m[k]
        for j in range(cols):
            mi[j] -= q * mk[j]
        ui, uk = u[i], u[k]
        for j in range(rows):
            ui[j] -= q * uk[j]

    def add_col(j, k, q):
        # col_j -= q * col_k, mirrored on V
        for r in m:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def process(t: int) -> bool:
        """Clear row t and column t of the working submatrix; False if empty."""
        while True:
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    val = abs(m[i][j])
                    if val != 0 and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                return False
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if m[t][t] < 0:
                negate_row(t)
            p = m[t][t]
            clean = True
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    add_row(i, t, m[i][t] // p)
                    if m[i][t] != 0:
                        clean = False
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    add_col(j, t, m[t][j] // p)
                    if m[t][j] != 0:
                        clean = False
            if clean:
                return True

    limit = min(rows, cols)
    t = 0
    while t < limit and process(t):
        t += 1
    rank = t

    # Enforce the divisibility chain d_i | d_{i+1}.  When it fails, fold row
    # i+1 into row i (putting d_{i+1} next to d_i) and re-eliminate from i;
    # the new d_i is gcd(d_i, d_{i+1}), strictly smaller, so this terminates.
    i = 0
    while i + 1 < rank:
        if m[i + 1][i + 1] % m[i][i] != 0:
            add_row(i, i + 1, -1)
            t = i
            while t < rank and process(t):
                t += 1
            i = 0
        else:
            i += 1

    return SnfDecomposition(
        IntMatrix._of_ints(u, rows), IntMatrix._of_ints(m, cols), IntMatrix._of_ints(v, cols)
    )


def solve_qz(A: IntMatrix, b: Sequence[RationalMod1]) -> Optional[list]:
    """A canonical solution of ``A @ x = b`` over Q/Z, or None: the particular
    solution of :func:`qz_solution_set`.

    >>> solve_qz(IntMatrix([[2]]), [RationalMod1(1, 3)])
    [RationalMod1(1, 6)]
    >>> solve_qz(IntMatrix([[0]]), [RationalMod1(1, 2)]) is None
    True
    """
    sol = qz_solution_set(A, b)
    return None if sol is None else list(sol.particular)


def verify_qz(A: IntMatrix, x: Sequence[RationalMod1], b: Sequence[RationalMod1]) -> bool:
    """Exact check that ``A @ x = b`` in Q/Z.

    >>> verify_qz(IntMatrix([[2]]), [RationalMod1(1, 6)], [RationalMod1(1, 3)])
    True
    >>> verify_qz(IntMatrix([[2]]), [RationalMod1(1, 3)], [RationalMod1(1, 3)])
    False
    """
    if len(x) != A.cols or len(b) != A.rows:
        raise InputError("dimension mismatch")
    return all(lhs == rhs for lhs, rhs in zip(A.apply(list(x)), b))


class QzSolutionSet(_Record):
    """The full solution set of ``A @ x = b`` over Q/Z, finitely presented.

    Solutions are ``particular + sum_i (t_i / d_i) * v_i`` for ``t_i`` in
    ``range(d_i)``, where ``v_i`` are integer columns of V paired with the
    diagonal entries ``d_i >= 2``.  Directions with ``d_i = 0`` (honestly
    free: ``A @ v = 0`` over the integers, so they never move ``A @ x``) are
    pinned to zero rather than enumerated.
    """

    __slots__ = ("particular", "shift_vectors", "shift_moduli")

    @property
    def count(self) -> int:
        return math.prod(self.shift_moduli)

    def at(self, ts: Sequence[int]) -> tuple:
        """The solution with shift coefficients ``ts`` (``0 <= t_i < d_i``)."""
        x = list(self.particular)
        for t, vec, d in zip(ts, self.shift_vectors, self.shift_moduli):
            if t:
                for j, vj in enumerate(vec):
                    if vj:
                        x[j] = x[j] + RationalMod1(t * vj, d)
        return tuple(x)

    def __iter__(self) -> Iterator[tuple]:
        for ts in itertools.product(*(range(d) for d in self.shift_moduli)):
            yield self.at(ts)


def qz_solution_set(A: IntMatrix, b: Sequence[RationalMod1]) -> Optional[QzSolutionSet]:
    """The whole solution set of ``A @ x = b`` over Q/Z, or None.

    The right-hand side is taken as integer numerators ``bn`` over
    ``den = lcm`` of its denominators, so ``cn = U @ bn`` is exact integer
    arithmetic.  Solvable iff ``cn_i = 0 (mod den)`` whenever ``d_i = 0``
    (rows beyond the diagonal included).  Divisibility of Q/Z supplies the
    rest: the lift is ``y_i = (cn_i mod den) / (den * d_i)``, the smallest
    non-negative one, so the particular solution is deterministic (reducing
    ``cn_i`` before dividing is what picks it).  ``V @ y`` is summed over one
    common denominator and each unknown becomes one RationalMod1.  The finite
    torsion part is kept for searches that must enumerate it.
    """
    if len(b) != A.rows:
        raise InputError("right-hand side length does not match row count")
    snf = smith_normal_form(A)
    den = math.lcm(*(x.denominator for x in b))
    bn = [(j, x.numerator * (den // x.denominator)) for j, x in enumerate(b) if x.numerator]
    diag = snf.diagonal
    lifts = []  # (i, cn_i mod den, d_i) for the non-zero lifts
    for i, urow in enumerate(snf.U.entries):
        cn = sum(urow[j] * v for j, v in bn) % den
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if cn:
                return None
        elif cn:
            lifts.append((i, cn, d))
    scale = math.lcm(*(d for _, _, d in lifts))
    yn = [(i, cn * (scale // d)) for i, cn, d in lifts]  # over den * scale
    particular = tuple(
        RationalMod1(sum(vrow[i] * v for i, v in yn), den * scale) for vrow in snf.V.entries
    )
    vectors = []
    moduli = []
    for i, d in enumerate(diag):
        if d >= 2:
            vectors.append(snf.V.column(i))
            moduli.append(d)
    return QzSolutionSet(particular, tuple(vectors), tuple(moduli))
