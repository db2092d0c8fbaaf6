"""Reference checks of every outcome, run after the timed passes.

Nothing here imports the package under test: verdicts are re-checked by the
naive, sympy-backed routines in ``tests/_oracles.py`` and by literal
convolution on plain dicts.

* cyclic groups: the verdict must equal the full character scan;
* every YES witness: f * a = 0 cell by cell on a fundamental domain, and
  a(0) = 1;
* NO on a group with free rank: no character of order dividing
  SCAN_DENOMINATOR[free rank] may kill f-hat (a one-sided check, sound for
  any bound);
* multitile YES: the torus certificate and each dilation line by literal
  convolution; NO: ``box_brute`` when the window touches few enough cells;
* CLI: the exit code against the hand-written expectation, then the payload
  as above.

``check`` returns ``(decided, problem, unverified)``: whether the instance got
a YES/NO that re-checks, the mismatch found (or None) and whether a NO was too
large to re-check.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from workloads import DEEP_DIAGONAL_ID

SCAN_DENOMINATOR = {0: 1, 1: 60, 2: 30, 3: 6}
BOX_BRUTE_MAX_CELLS = 16

# Outcomes that are wrong today and are tracked by the benchmark instead of
# failing it: instance id -> (exit code, text the error line must contain).
KNOWN_DEFECTS = {DEEP_DIAGONAL_ID: (1, "RecursionError")}


class Checker:
    def __init__(self, oracles):
        self.o = oracles

    # --- annihilators ---------------------------------------------------------

    def witness_problem(self, free_rank, torsion, f, period, values):
        dims = [period] * free_rank + list(torsion)
        if len(values) != math.prod(dims):
            return "witness grid has the wrong size"
        strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]

        def a_value(x):
            return values[sum((xi % m) * s for xi, m, s in zip(x, dims, strides))]

        cells = itertools.product(*(range(m) for m in dims))
        conv = self.o.conv_window({tuple(p): c for p, c in f}, a_value, cells)
        if any(conv.values()):
            return "witness: f * a != 0"
        if a_value((0,) * len(dims)) != 1:
            return "witness: a(0) != 1"
        return None

    def killing_character(self, free_rank, torsion, f):
        """A character of bounded order with f-hat = 0 there, or None."""
        if free_rank == 0 and len(torsion) == 1:
            entries = {tuple(p): c for p, c in f}
            return 0 if self.o.cyclic_annihilator_scan(torsion[0], entries) else None
        dens = [SCAN_DENOMINATOR[free_rank]] * free_rank + list(torsion)
        for js in itertools.product(*(range(d) for d in dens)):
            phases = []
            for p, c in f:
                base = -sum(Fraction(j * x, d) for j, x, d in zip(js, p, dens))
                if c < 0:
                    base += Fraction(1, 2)
                phases.extend([base] * abs(c))
            if self.o.zero_sum_of_roots(phases):
                return js
        return None

    def zero_verdict_problem(self, free_rank, torsion, f, answer, period=None, values=None):
        if answer == "YES":
            problem = self.witness_problem(free_rank, torsion, f, period, values)
            if problem is None and free_rank == 0 and len(torsion) == 1:
                if self.killing_character(free_rank, torsion, f) is None:
                    return "YES but the character scan finds no annihilating character"
            return problem
        if answer == "NO":
            chi = self.killing_character(free_rank, torsion, f)
            if chi is not None:
                return f"NO but the character {chi} kills f-hat"
            return None
        return f"unexpected answer {answer!r}"

    def zero(self, inst, res):
        if res["error"] == "TIMEOUT":
            return False, None, False
        if res["error"] is not None:
            return False, f"crashed: {res['error']}", False
        problem = self.zero_verdict_problem(
            inst["free_rank"], inst["torsion"], inst["f"], res["answer"],
            res.get("period"), res.get("values"))
        return problem is None, problem, False

    # --- multi-tiling ---------------------------------------------------------

    def torus_problem(self, cells, g, q, bits, r=1):
        entries = {(r * x, r * y): 1 for x, y in cells}

        def a_value(x):
            return bits[(x[0] % q) * q + (x[1] % q)]

        conv = self.o.conv_window(entries, a_value, itertools.product(range(q), repeat=2))
        return None if all(v == g for v in conv.values()) else f"torus certificate fails (r={r})"

    def box_problem(self, cells, g, radius):
        """(problem or None, unverified)."""
        touched = {(x - a, y - b) for x in range(-radius, radius + 1)
                   for y in range(-radius, radius + 1) for a, b in cells}
        if len(touched) > BOX_BRUTE_MAX_CELLS:
            return None, True
        entries = {tuple(c): 1 for c in cells}
        if not self.o.box_brute(entries, lambda x: g, radius):
            return f"NO at radius {radius} but box_brute finds a filling", False
        return None, False

    def multitile(self, inst, res):
        if res["error"] == "TIMEOUT":
            return False, None, False
        if res["error"] is not None:
            return False, f"crashed: {res['error']}", False
        cells, g = inst["cells"], inst["g"]
        if res["answer"] == "YES":
            problem = self.torus_problem(cells, g, res["q"], res["bits"])
            for r, ok in res["dilation"]:
                if problem is None and (self.torus_problem(
                        cells, g, res["q"], res["bits"], r) is None) != ok:
                    problem = f"dilation report for r={r} is wrong"
            return problem is None, problem, False
        if res["answer"] == "NO":
            problem, unverified = self.box_problem(cells, g, res["radius"])
            return problem is None, problem, unverified
        if res["answer"] == "UNKNOWN":
            return False, None, False
        return False, f"unexpected answer {res['answer']!r}", False

    # --- CLI ------------------------------------------------------------------

    def cli(self, inst, res):
        if res["error"] == "TIMEOUT":
            return False, "request timed out", False
        code = res["exit"]
        if code not in inst["expect"]:
            return False, f"exit {code}, expected one of {inst['expect']} ({res['stderr']})", False
        if code not in (0, 1):
            return False, None, False
        try:
            payload = json.loads(res["stdout"][0])
        except (IndexError, ValueError):
            return False, "no JSON verdict on stdout", False
        command = inst["argv"][0]
        problem, unverified = None, False
        if command in ("decide-zero", "decide-levelshift"):
            spec = inst["problem"]
            group = spec["group"]
            f = [(e["elem"], e["coeff"]) for e in spec["f"]]
            witness = payload.get("certificate", {}).get("witness", {})
            problem = self.zero_verdict_problem(
                group.get("free_rank", 0), group.get("torsion", []), f,
                payload["answer"], witness.get("period"), witness.get("values"))
        elif command == "decide-multitile":
            spec = inst["problem"]
            cells = [e["elem"] for e in spec["f"]]
            g = spec["g"]["values"][0]
            if code == 0:
                cert = payload["certificate"]
                problem = self.torus_problem(cells, g, cert["q"], cert["bits"])
            else:
                problem, unverified = self.box_problem(
                    cells, g, payload["refutation_box_radius"])
        elif command == "omega":
            k = int(inst["argv"][2])
            want = sorted(tuple(f"{e.numerator}/{e.denominator}" for e in t)
                          for t in self.o.brute_minimal_tuples(k))
            if sorted(tuple(t) for t in payload["tuples"]) != want:
                problem = f"omega --k {k} differs from the brute-force table"
        return problem is None, problem, unverified

    def check(self, inst, res):
        return getattr(self, inst["kind"])(inst, res)


def known_defect(inst, res):
    """True when a CLI mismatch is exactly a defect tracked in KNOWN_DEFECTS."""
    expected = KNOWN_DEFECTS.get(inst["id"])
    return (expected is not None and res.get("exit") == expected[0]
            and expected[1] in res.get("stderr", ""))
