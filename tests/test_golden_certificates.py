"""Golden test of the decide-zero byte contract.

``golden_certificates.json`` holds, for a fixed set of inputs, the exit code
and the ``decide-zero`` JSON payload less ``timing_ms``, with the witness
values replaced by their count and SHA-256.  The test recomputes every entry
and names each one that differs, so a change that moves a character, a
period, a witness or a block trace shows up here even when the verdict holds.

The inputs are every 100th member of the exhaustive cyclic family of the
acceptance suite and the fixed rank <= 2 inputs of the other suites.  To
regenerate the fixture (only when the contract is meant to change)::

    PYTHONPATH=src python tests/test_golden_certificates.py --write
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

from abeltile.cli import run

FIXTURE = Path(__file__).resolve().parent / "golden_certificates.json"


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
    yield from _cyclic_every_100th()
    yield from _fixed_inputs()


def _decide(problem, path):
    """Exit code and normalised payload of ``decide-zero`` on ``problem``."""
    path.write_text(json.dumps(problem))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["decide-zero", str(path)])
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


def test_decide_zero_payloads_match_golden(tmp_path):
    entries = json.loads(FIXTURE.read_text())
    assert len(entries) >= 450
    differ = []
    for entry in entries:
        code, payload = _decide(entry["problem"], tmp_path / "problem.json")
        if code != entry["exit"] or payload != entry["payload"]:
            differ.append(entry["id"])
    assert not differ, f"{len(differ)} entries differ: {differ}"


def _write_fixture(scratch):
    lines = []
    for name, problem in _inputs():
        code, payload = _decide(problem, scratch / "problem.json")
        entry = {"id": name, "problem": problem, "exit": code, "payload": payload}
        lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    return len(lines)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(f"wrote {_write_fixture(Path(tmp))} entries to {FIXTURE}")
