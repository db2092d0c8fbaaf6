"""Seeded inputs for the four benchmark workloads.

Every generator is a pure function of its seed and returns plain JSON-able
dicts, so the worker process receives only the generated inputs and the
reference checks never need the package under test to read them.

Instance kinds:

* ``zero``       -- ``decide_zero_annihilator(group, f, cap)``
* ``multitile``  -- ``decide_multitile(1_P, g, budget)`` for a polyomino P
* ``cli``        -- one ``python -m abeltile.cli`` request with its expected
  exit codes written by hand
"""

from __future__ import annotations

import itertools
import math
import random

# The frozen exhaustive family of the acceptance suite: Z/N for N <= 12,
# supports of at most three points, coefficients in {±1, ±2}, l1 <= 5.
CYCLIC_FAMILY_SIZE = 44928
# Under 1000 instances a pass's tail percentile is p95 rather than p99; the
# p99 of a pass rests on its 10-15 slowest instances, which short stalls of
# the host moved by 20-30 % between runs of one seed.
CYCLIC_PER_BATCH = 950

# Groups of the rank sweep, as (free_rank, torsion).  Z³ stays in the pool on
# purpose: two of its l1 = 6 instances run far past the time limit, and
# decided_share must show that.
RANK_GROUPS = ((1, ()), (2, ()), (1, (2,)), (1, (3,)), (3, ()))
RANK_L1 = (3, 4, 5, 6, 7, 8)
RANK_PER_STRATUM = 2
ANNIHILATOR_CAP = 8
# The rank pool is drawn once from this seed; a run's seed only translates
# each f.  Decision time barely moves under translation while the verdict
# must not move at all, so the figures hold still across seeds while every
# run still tests placement independence.  (A fresh draw per seed put the
# spread of wall_s across ten seeds near 50 %: a handful of Z³ instances
# decide in seconds or not at all.)
RANK_POOL_SEED = "annihilator-rank/0"
RANK_SHIFT = 4

# All free polyominoes with 6 and 7 cells (35 + 108), min corner at the
# origin.  A seeded sample of shapes (or of their orientations) moved
# decided_share by about 13 % from seed to seed, because a shape decides or
# not as a whole; the census holds it still and the seed orders the run.
POLYOMINO_SIZES = (6, 7)
# Fixed offset of the second placement; a placement-independent decider gives
# the same verdict at both.
SHIFT = (-2, -2)
MULTITILE_BUDGET = (4, 2, 200)  # (max_q, max_box_radius, max_nodes)

# f = δ(0,0) + δ(12,12) with --max-q 1 --max-box 6: the box search recurses
# once per cell and overflows the interpreter stack.
DEEP_DIAGONAL_ID = "cli-deep-diagonal"


def cyclic_family():
    """The 44,928 instances in the acceptance suite's order, as (N, f)."""
    out = []
    for n in range(1, 13):
        for size in range(1, min(3, n) + 1):
            for support in itertools.combinations(range(n), size):
                for coeffs in itertools.product((-2, -1, 1, 2), repeat=size):
                    if sum(abs(c) for c in coeffs) <= 5:
                        out.append((n, [[[x], c] for x, c in zip(support, coeffs)]))
    return out


def _zero(iid, free_rank, torsion, f):
    return {"id": iid, "kind": "zero", "free_rank": free_rank,
            "torsion": list(torsion), "f": f, "cap": ANNIHILATOR_CAP}


def cyclic_batch(seed):
    """Proportional stratified sample of the cyclic family.

    Strata are (N, l1); each contributes in proportion to its size, so the
    mix matches the family while two seeds differ only within strata.  The
    batch keeps the family's order, so that the instances that fill the
    package's caches are alike from seed to seed.
    """
    rng = random.Random(f"cyclic-family/{seed}")
    strata = {}
    for idx, (n, f) in enumerate(cyclic_family()):
        l1 = sum(abs(c) for _, c in f)
        strata.setdefault((n, l1), []).append((idx, n, f))
    batch = []
    for key in sorted(strata):
        members = strata[key]
        take = max(1, round(len(members) * CYCLIC_PER_BATCH / CYCLIC_FAMILY_SIZE))
        batch.extend(rng.sample(members, min(take, len(members))))
    return [_zero(f"cyc-{idx}", 0, (n,), f) for idx, n, f in sorted(batch)]


def _random_f(rng, free_rank, torsion, l1):
    """Random f with exactly the given l1 norm on distinct group elements
    (coordinates in [-3, 3] on free axes)."""
    elements = 7 ** free_rank * math.prod(torsion)
    terms = rng.randint(1, min(l1, 4, elements))
    cuts = sorted(rng.sample(range(1, l1), terms - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [l1])]
    points = set()
    while len(points) < terms:
        points.add(tuple(
            [rng.randint(-3, 3) for _ in range(free_rank)]
            + [rng.randrange(n) for n in torsion]
        ))
    return [[list(p), s * rng.choice((-1, 1))] for p, s in zip(sorted(points), sizes)]


def annihilator_pool():
    """RANK_PER_STRATUM random f for every (group, l1) stratum."""
    rng = random.Random(RANK_POOL_SEED)
    pool = []
    for gi, (free_rank, torsion) in enumerate(RANK_GROUPS):
        for l1 in RANK_L1:
            for k in range(RANK_PER_STRATUM):
                f = _random_f(rng, free_rank, torsion, l1)
                pool.append((f"rank-g{gi}-l{l1}-{k}", free_rank, torsion, f))
    return pool


def annihilator_batch(seed):
    """The rank pool in its own order, each f translated by a seeded vector.
    (A seeded order moved verdict_p50_ms by 17 % between seeds: which
    instance pays for filling the package's caches changed.)"""
    rng = random.Random(f"annihilator-rank/{seed}")
    batch = []
    for iid, free_rank, torsion, f in annihilator_pool():
        shift = ([rng.randint(-RANK_SHIFT, RANK_SHIFT) for _ in range(free_rank)]
                 + [rng.randrange(n) for n in torsion])
        moduli = [None] * free_rank + list(torsion)
        moved = [[[x + s if n is None else (x + s) % n for x, s, n in zip(p, shift, moduli)], c]
                 for p, c in f]
        batch.append(_zero(iid, free_rank, torsion, moved))
    return batch


_SYMMETRIES = (
    lambda x, y: (x, y), lambda x, y: (-y, x), lambda x, y: (-x, -y),
    lambda x, y: (y, -x), lambda x, y: (-x, y), lambda x, y: (y, x),
    lambda x, y: (x, -y), lambda x, y: (-y, -x),
)


def _at_origin(cells):
    mx = min(x for x, _ in cells)
    my = min(y for _, y in cells)
    return tuple(sorted((x - mx, y - my) for x, y in cells))


def free_polyominoes(size):
    """One representative per free polyomino (up to rotation, reflection and
    translation): the least of its eight images with min corner at the
    origin."""
    def canon(cells):
        return min(_at_origin([t(x, y) for x, y in cells]) for t in _SYMMETRIES)

    shapes = {((0, 0),)}
    for _ in range(size - 1):
        shapes = {canon(shape + (cell,))
                  for shape in shapes for x, y in shape
                  for cell in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                  if cell not in shape}
    return sorted(shapes)


def random_polyomino(rng, size):
    """Connected cell set grown from the origin, min corner moved to (0, 0)."""
    cells = {(0, 0)}
    while len(cells) < size:
        x, y = rng.choice(sorted(cells))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        cells.add((x + dx, y + dy))
    return list(_at_origin(cells))


def multitile_batch(seed):
    """Every census shape at both placements, times g in {1, 2}, in seeded
    order."""
    batch = []
    for size in POLYOMINO_SIZES:
        for p, cells in enumerate(free_polyominoes(size)):
            shifted = [(x + SHIFT[0], y + SHIFT[1]) for x, y in cells]
            for placement, pts in (("origin", cells), ("shifted", shifted)):
                for g in (1, 2):
                    batch.append({
                        "id": f"poly{size}-{p}-{placement}-g{g}", "kind": "multitile",
                        "cells": [list(c) for c in pts], "g": g,
                        "budget": list(MULTITILE_BUDGET),
                    })
    random.Random(f"multitile-sweep/{seed}").shuffle(batch)
    return batch


# --- cli-cold -----------------------------------------------------------------


def _finmap_json(points):
    return [{"elem": list(p), "coeff": c} for p, c in points]


def _cli(iid, argv, problem, codes):
    return {"id": iid, "kind": "cli", "argv": argv, "problem": problem,
            "expect": sorted(codes)}


def cli_batch(seed):
    """A fixed mix of 40 requests, each drawn from the seed.

    Expected exit codes are written by hand from the README table: a decision
    is 0 or 1 (the oracle then settles which), a multitile decision on a
    shape of at most four cells is 0 (all of them tile), a multitile request
    whose torus ladder stops at q = 1 for a tileable f is 2, malformed input
    3 and a capacity refusal 4.  The deep-diagonal request expects "not 1":
    exit 1 means NO, and that instance has a solution.
    """
    rng = random.Random(f"cli-cold/{seed}")
    out = []
    for k in range(12):
        n = rng.randint(2, 12)
        f = _random_f(rng, 0, (n,), rng.randint(2, 5))
        out.append(_cli(f"cli-zero-{k}", ["decide-zero"],
                        {"group": {"free_rank": 0, "torsion": [n]}, "f": _finmap_json(f)},
                        (0, 1)))
    for k in range(8):
        while True:
            f = _random_f(rng, 1, (), rng.randint(2, 5))
            if sum(c for _, c in f) != 0:
                break
        out.append(_cli(f"cli-levelshift-{k}", ["decide-levelshift"],
                        {"group": {"free_rank": 1}, "f": _finmap_json(f)}, (0, 1)))
    for k in range(8):
        cells = random_polyomino(rng, rng.choice((2, 3, 4)))
        out.append(_cli(f"cli-multitile-{k}",
                        ["decide-multitile", "--max-q", "6", "--max-box", "2",
                         "--budget-nodes", "500"],
                        {"group": {"free_rank": 2},
                         "f": _finmap_json((c, 1) for c in cells),
                         "g": {"period": 1, "values": [1]}}, (0,)))
    d = rng.randint(2, 4)
    out.append(_cli("cli-multitile-unknown",
                    ["decide-multitile", "--max-q", "1", "--max-box", "2"],
                    {"group": {"free_rank": 2},
                     "f": _finmap_json((((0, 0), 1), ((d, d), 1))),
                     "g": {"period": 1, "values": [1]}}, (2,)))
    for k in range(4):
        period = 2 * rng.randint(1, 3)
        out.append(_cli(f"cli-verify-{k}", ["verify"],
                        {"group": {"free_rank": 1},
                         "f": _finmap_json((((0,), 1), ((1,), 1))),
                         "a": {"period": period,
                               "values": [(-1) ** i for i in range(period)]}},
                        (0,)))
    out.append(_cli("cli-verify-fail", ["verify"],
                    {"group": {"free_rank": 1},
                     "f": _finmap_json((((0,), 1), ((1,), 1))),
                     "a": {"period": 1, "values": [rng.randint(1, 3)]}}, (1,)))
    for k in range(2):
        out.append(_cli(f"cli-omega-{k}", ["omega", "--k", str(rng.randint(2, 4))],
                        None, (0,)))
    out.append(_cli("cli-malformed", ["decide-zero"],
                    {"group": {"free_rank": 1}, "f": [{"elem": [0]}]}, (3,)))
    for k in range(2):
        out.append(_cli(f"cli-capacity-{k}", ["decide-zero"],
                        {"group": {"free_rank": 1},
                         "f": _finmap_json((((0,), 5), ((rng.randint(1, 4),), 4)))},
                        (4,)))
    out.append(_cli(DEEP_DIAGONAL_ID,
                    ["decide-multitile", "--max-q", "1", "--max-box", "6"],
                    {"group": {"free_rank": 2},
                     "f": _finmap_json((((0, 0), 1), ((12, 12), 1))),
                     "g": {"period": 1, "values": [1]}}, (0, 2, 3, 4, 5)))
    rng.shuffle(out)
    return out


BATCHES = {
    "cyclic-family": cyclic_batch,
    "annihilator-rank": annihilator_batch,
    "multitile-sweep": multitile_batch,
    "cli-cold": cli_batch,
}
