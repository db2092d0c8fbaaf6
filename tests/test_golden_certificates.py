"""Golden tests of the decide-zero and decide-multitile byte contracts.

``golden_certificates.json`` holds, for a fixed set of inputs, the exit code
and the ``decide-zero`` JSON payload less ``timing_ms``, with the witness
values replaced by their count and SHA-256.  The test recomputes every entry
and names each one that differs, so a change that moves a character, a
period or a witness shows up here even when the verdict holds.
Its inputs are every 100th member of the exhaustive cyclic family of the
acceptance suite and the fixed rank <= 2 inputs of the other suites.

``golden_multitile.json`` holds the same for ``decide-multitile``: every free
hexomino and heptomino with its min corner at the origin, at g = 1 and g = 2,
under the multitile-sweep budget, plus the staircase hexomino and the deep
diagonal δ(0,0) + δ(12,12).  Its ``nodes_used`` and certificates pin the
search tree of the engine, not only the verdicts.

To regenerate both fixtures (only when a contract is meant to change)::

    PYTHONPATH=src python tests/test_golden_certificates.py --write
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import random
import sys
from pathlib import Path

from abeltile.cli import run

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "golden_certificates.json"
MULTITILE_FIXTURE = HERE / "golden_multitile.json"


def _problem(free_rank, torsion, terms):
    return {
        "group": {"free_rank": free_rank, "torsion": list(torsion)},
        "f": [{"elem": list(x), "coeff": c} for x, c in terms],
    }


def _cyclic_every_100th():
    k = 0
    for n in range(1, 13):
        for size in range(1, min(3, n) + 1):
            for support in itertools.combinations(range(n), size):
                for coeffs in itertools.product((-2, -1, 1, 2), repeat=size):
                    if sum(abs(c) for c in coeffs) > 5:
                        continue
                    if k % 100 == 0:
                        yield f"cyclic-{k}", _problem(0, (n,), [((x,), c) for x, c in zip(support, coeffs)])
                    k += 1


def _fixed_inputs():
    z, z2 = (1, ()), (2, ())
    named = {
        "hard-no": (z, [((-1,), 3), ((0,), -2), ((1,), 3)]),
        "domino": (z, [((0,), 1), ((1,), 1)]),
        "triple": (z, [((0,), 1), ((1,), 1), ((2,), 1)]),
        "delta-2": (z, [((0,), 2)]),
        "delta-3": (z, [((0,), 3)]),
        "delta-minus-2": (z, [((0,), -2)]),
        "zero-mass": (z, [((0,), 1), ((1,), -1)]),
        "two-minus-pair": (z, [((0,), 2), ((1,), -1), ((2,), -1)]),
        "z2-full": ((0, (2,)), [((0,), 1), ((1,), 1)]),
        "z6-minus-two-pair": ((0, (6,)), [((1,), -2), ((4,), -2)]),
        "plane-domino": (z2, [((0, 0), 1), ((1, 0), 1)]),
        "plane-delta-diff": (z2, [((0, 0), 1), ((1, 0), -1)]),
        "plane-l-tromino": (z2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)]),
    }
    for name, ((free_rank, torsion), terms) in named.items():
        yield name, _problem(free_rank, torsion, terms)
    # the draws of the acceptance suite's random-witness guarantee
    for free_rank, torsion in ((1, ()), (2, ()), (1, (2,))):
        rank = free_rank + len(torsion)
        rng = random.Random(f"acceptance-{free_rank}-{torsion}")
        for k in range(20):
            while True:
                merged = {}
                for _ in range(rng.randint(1, 3)):
                    coords = tuple(
                        rng.randint(-3, 3) if i < free_rank else rng.randint(0, 3)
                        for i in range(rank)
                    )
                    coords = coords[:free_rank] + tuple(
                        c % n for c, n in zip(coords[free_rank:], torsion)
                    )
                    merged[coords] = merged.get(coords, 0) + rng.choice([-2, -1, 1, 2])
                terms = [(x, c) for x, c in merged.items() if c]
                if terms and sum(abs(c) for _, c in terms) <= 5:
                    break
            yield f"random-{free_rank}-{len(torsion)}-{k}", _problem(free_rank, torsion, terms)


def _inputs():
    for name, problem in itertools.chain(_cyclic_every_100th(), _fixed_inputs()):
        yield name, problem, []


def _free_polyominoes(size):
    """The benchmark's census of free polyominoes with ``size`` cells."""
    path = HERE.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.free_polyominoes(size)


def _plane(terms, g):
    return dict(_problem(2, (), terms), g={"period": 1, "values": [g]})


def _multitile_inputs():
    sweep = ["--max-q", "4", "--max-box", "2", "--budget-nodes", "200"]
    for size, count in ((6, 35), (7, 108)):
        shapes = _free_polyominoes(size)
        assert len(shapes) == count
        for p, cells in enumerate(shapes):
            for g in (1, 2):
                yield f"poly{size}-{p}-g{g}", _plane([(c, 1) for c in cells], g), sweep
    staircase = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    yield "staircase", _plane([(c, 1) for c in staircase], 1), []
    yield ("deep-diagonal", _plane([((0, 0), 1), ((12, 12), 1)], 1),
           ["--max-q", "1", "--max-box", "6"])


def _decide(command, problem, flags, path):
    """Exit code and normalised payload of ``command`` on ``problem``."""
    path.write_text(json.dumps(problem))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([command, str(path), *flags])
    payload = json.loads(out.getvalue())
    del payload["timing_ms"]
    witness = payload.get("certificate", {}).get("witness")
    if witness is not None:
        values = witness.pop("values")
        witness["cells"] = len(values)
        witness["values_sha256"] = hashlib.sha256(
            json.dumps(values, separators=(",", ":")).encode()
        ).hexdigest()
    return code, payload


def _differing(command, fixture, scratch):
    entries = json.loads(fixture.read_text())
    differ = []
    for entry in entries:
        flags = entry.get("flags", [])
        code, payload = _decide(command, entry["problem"], flags, scratch / "problem.json")
        if code != entry["exit"] or payload != entry["payload"]:
            differ.append(entry["id"])
    return len(entries), differ


def test_decide_zero_payloads_match_golden(tmp_path):
    count, differ = _differing("decide-zero", FIXTURE, tmp_path)
    assert count >= 450
    assert not differ, f"{len(differ)} entries differ: {differ}"


def test_decide_multitile_payloads_match_golden(tmp_path):
    count, differ = _differing("decide-multitile", MULTITILE_FIXTURE, tmp_path)
    assert count == 2 * (35 + 108) + 2
    assert not differ, f"{len(differ)} entries differ: {differ}"


def _changes(old_entries, new_entries):
    """How many entries differ between two versions of a fixture, and the
    sorted names of what differs: payload keys, other entry keys, or
    ``(added)`` / ``(removed)`` for an id only one version has."""
    old = {e["id"]: e for e in old_entries}
    new = {e["id"]: e for e in new_entries}
    changed, what = 0, set()
    for name in old.keys() | new.keys():
        before, after = old.get(name), new.get(name)
        if before == after:
            continue
        changed += 1
        if before is None or after is None:
            what.add("(added)" if before is None else "(removed)")
            continue
        what.update(k for k in before.keys() | after.keys()
                    if k != "payload" and before.get(k) != after.get(k))
        b, a = before["payload"], after["payload"]
        what.update(k for k in b.keys() | a.keys() if b.get(k) != a.get(k))
    return changed, sorted(what)


def test_fixture_changes_name_entries_and_keys():
    def entry(name, code=2, **payload):
        return {"id": name, "exit": code, "payload": {"answer": "UNKNOWN", **payload}}

    old = [entry("a", nodes_used=5), entry("b", nodes_used=7), entry("c"), entry("gone")]
    assert _changes(old, old) == (0, [])
    new = [entry("a", nodes_used=4), entry("b", nodes_used=7), entry("c", 0, answer="YES"),
           entry("extra")]
    assert _changes(old, new) == (4, ["(added)", "(removed)", "answer", "exit", "nodes_used"])


def _write_fixture(command, fixture, inputs, scratch):
    """Write the fixture and report how many entries changed, and in what."""
    entries = []
    for name, problem, flags in inputs:
        code, payload = _decide(command, problem, flags, scratch / "problem.json")
        entry = {"id": name, "problem": problem, "exit": code, "payload": payload}
        if flags:
            entry["flags"] = flags
        entries.append(entry)
    old = json.loads(fixture.read_text()) if fixture.exists() else []
    changed, what = _changes(old, entries)
    lines = [json.dumps(e, sort_keys=True, separators=(",", ":")) for e in entries]
    fixture.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    scope = f"{changed} changed ({', '.join(what)})" if changed else "none changed"
    return f"wrote {len(lines)} entries to {fixture.name}: {scope}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command, fixture, inputs in (
            ("decide-zero", FIXTURE, _inputs()),
            ("decide-multitile", MULTITILE_FIXTURE, _multitile_inputs()),
        ):
            print(_write_fixture(command, fixture, inputs, Path(tmp)))
