"""Command-line front end.

Problems arrive as JSON files, verdicts leave as deterministic single-line
JSON on stdout (sorted keys, no whitespace) so that byte comparison works —
only the timing_ms field varies between runs.  Exit codes are the contract
for scripting::

    0  YES / check passed
    1  NO / check failed
    2  UNKNOWN (budget exhausted)
    3  malformed input, or a --json-out file that cannot be written
    4  capacity cap refused the instance
    5  internal error (a crash, never a verdict)

Problem file schema (all sections except "group" and "f" optional)::

    {
      "group":    {"free_rank": 2, "torsion": [2, 4]},
      "f":        [{"elem": [0, 0], "coeff": 1}, ...],
      "g":        {"period": 2, "values": [1, 1, 1, 1]},
      "a":        {"period": 2, "values": [1, -1, 1, -1]},
      "cert":     {"q": 2, "bits": [1, 0, 1, 0]},
      "budget":   {"max_q": 12, "max_box_radius": 6, "max_nodes": 200000},
      "dilation": {"q": 2, "r_list": [3, 5]}
    }

"values"/"bits" may be flat (row-major over the fundamental domain) or a list
of rows; torsion coordinates may exceed their modulus and are canonicalized.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import List, Optional, Sequence, Tuple

from .annihilator import (
    decide_level_shift,
    decide_zero_annihilator,
    verify_annihilator,
)
from .cyclotomic import enumerate_minimal_tuples
from .errors import BudgetExceededError, CapacityError, InputError, _Record, _want_int
from .groups import FinMap, GroupSpec, PeriodicMap, convolve_periodic
from .multitile import SearchBudget, TorusAssignment, decide_multitile, verify_multitile
from .structure import coset_slice, dilation_check

__all__ = ["ProblemFile", "parse_problem", "run", "main"]


class ProblemFile(_Record):
    # dilation: (q, r_list), from the file's "dilation" section
    __slots__ = ("group", "f", "g", "a", "cert", "budget", "dilation")
    _defaults = dict(g=None, a=None, cert=None, budget=SearchBudget(), dilation=None)


# ---------------------------------------------------------------------------
# parsing


def _want(obj, path: str, kind, what: str):
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise InputError(f"{path}: expected {what}, got {obj!r}")
    return obj


def _fields(obj, path: str, required: Sequence[str] = (), optional: Sequence[str] = ()) -> None:
    """Check that ``obj`` is an object with only the named fields, all of
    ``required`` among them."""
    _want(obj, path, dict, "an object")
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise InputError(f"{path}: unknown field {sorted(extra)[0]!r}")
    if any(name not in obj for name in required):
        raise InputError(f"{path}: needs " + " and ".join(map(repr, required)))


def _flat_ints(obj, path: str) -> List[int]:
    _want(obj, path, list, "a list")
    if obj and all(isinstance(row, list) for row in obj):
        if len({len(row) for row in obj}) > 1:
            raise InputError(f"{path}: rows have different lengths")
        flat: List[int] = []
        for i, row in enumerate(obj):
            flat.extend(_want_int(v, f"{path}[{i}][{j}]") for j, v in enumerate(row))
        return flat
    if any(isinstance(row, list) for row in obj):
        raise InputError(f"{path}: mixes rows and scalars")
    return [_want_int(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _parse_group(obj) -> GroupSpec:
    _fields(obj, "group", optional=("free_rank", "torsion"))
    free_rank = _want_int(obj.get("free_rank", 0), "group.free_rank", 0)
    torsion = obj.get("torsion", [])
    _want(torsion, "group.torsion", list, "a list")
    torsion = tuple(
        _want_int(n, f"group.torsion[{i}]", 1) for i, n in enumerate(torsion)
    )
    return GroupSpec(free_rank, torsion)


def _parse_finmap(obj, group: GroupSpec, path: str) -> FinMap:
    _want(obj, path, list, "a list of terms")
    pairs = []
    for i, term in enumerate(obj):
        _fields(term, f"{path}[{i}]", required=("elem", "coeff"))
        elem = _want(term["elem"], f"{path}[{i}].elem", list, "a coordinate list")
        if len(elem) != group.rank:
            raise InputError(
                f"{path}[{i}].elem: expected {group.rank} coordinates, got {len(elem)}"
            )
        coords = tuple(
            _want_int(c, f"{path}[{i}].elem[{j}]") for j, c in enumerate(elem)
        )
        coeff = _want_int(term["coeff"], f"{path}[{i}].coeff")
        pairs.append((coords, coeff))
    return FinMap(group, pairs)


def _parse_periodic(obj, group: GroupSpec, path: str) -> PeriodicMap:
    _fields(obj, path, required=("period", "values"))
    period = _want_int(obj["period"], f"{path}.period", 1)
    values = _flat_ints(obj["values"], f"{path}.values")
    expected = group.domain_size(period)
    if len(values) != expected:
        raise InputError(
            f"{path}.values: expected {expected} values for period {period}, "
            f"got {len(values)}"
        )
    return PeriodicMap(group, period, values)


def _parse_cert(obj, path: str) -> TorusAssignment:
    _fields(obj, path, required=("q", "bits"))
    q = _want_int(obj["q"], f"{path}.q", 1)
    bits = _flat_ints(obj["bits"], f"{path}.bits")
    if len(bits) != q * q:
        raise InputError(f"{path}.bits: expected {q * q} bits, got {len(bits)}")
    return TorusAssignment(q, tuple(bits))


def _parse_budget(obj) -> SearchBudget:
    if obj is None:
        return SearchBudget()
    names = ("max_q", "max_box_radius", "max_nodes")
    _fields(obj, "budget", optional=names)
    given = {name: _want_int(obj[name], f"budget.{name}", 1) for name in names if name in obj}
    return SearchBudget(**given)


def _parse_dilation(obj) -> Tuple[int, Tuple[int, ...]]:
    _fields(obj, "dilation", required=("q", "r_list"))
    q = _want_int(obj["q"], "dilation.q", 1)
    rl = _want(obj["r_list"], "dilation.r_list", list, "a list")
    r_list = tuple(_want_int(r, f"dilation.r_list[{i}]", 1) for i, r in enumerate(rl))
    return q, r_list


def parse_problem(text: str) -> ProblemFile:
    """Validated ProblemFile, or InputError naming the offending location."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    _want(obj, "problem", dict, "a JSON object")
    known = {"group", "f", "g", "a", "cert", "budget", "dilation"}
    extra = set(obj) - known
    if extra:
        raise InputError(f"unknown top-level field {sorted(extra)[0]!r}")
    if "group" not in obj:
        raise InputError("missing required section 'group'")
    if "f" not in obj:
        raise InputError("missing required section 'f'")
    group = _parse_group(obj["group"])
    f = _parse_finmap(obj["f"], group, "f")
    g = _parse_periodic(obj["g"], group, "g") if "g" in obj else None
    a = _parse_periodic(obj["a"], group, "a") if "a" in obj else None
    cert = _parse_cert(obj["cert"], "cert") if "cert" in obj else None
    budget = _parse_budget(obj.get("budget"))
    dilation = _parse_dilation(obj["dilation"]) if "dilation" in obj else None
    return ProblemFile(group, f, g, a, cert, budget, dilation)


def _load(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read problem file: {e}") from None
    return parse_problem(text)


# ---------------------------------------------------------------------------
# serialization helpers


def _finmap_json(f: FinMap) -> list:
    return [
        {"elem": list(x), "coeff": f.coeff(x)} for x in f.support()
    ]


def _parse_vec(text: str, flag: str) -> Tuple[int, int]:
    parts = text.split(",")
    try:
        vec = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise InputError(f"{flag}: expected integers like '1,0', got {text!r}") from None
    if len(vec) != 2:
        raise InputError(f"{flag}: expected exactly two coordinates, got {text!r}")
    return vec  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decide_annihilator(ns, problem: ProblemFile) -> Tuple[dict, int]:
    # the decider is looked up by name at call time, so a rebound module
    # global (a wrapped decider) is the one that runs
    verdict = globals()[ns.decide](problem.group, problem.f, cap=ns.cap_n)
    payload = {"answer": verdict.answer}
    if verdict.is_yes:
        wit = verdict.witness_map
        payload["certificate"] = {
            "character": [str(e) for e in verdict.witness_character.etas],
            "witness": {"period": wit.period, "values": list(wit.values)},
        }
    return payload, 0 if verdict.is_yes else 1


def _cmd_decide_multitile(ns, problem: ProblemFile) -> Tuple[dict, int]:
    if problem.g is None:
        raise InputError("decide-multitile needs a 'g' section")
    file = problem.budget
    budget = SearchBudget(
        file.max_q if ns.max_q is None else ns.max_q,
        file.max_box_radius if ns.max_box is None else ns.max_box,
        file.max_nodes if ns.budget_nodes is None else ns.budget_nodes,
    )
    verdict = decide_multitile(problem.f, problem.g, budget)
    payload = {"answer": verdict.answer, "nodes_used": verdict.nodes_used}
    if verdict.answer == "YES":
        payload["certificate"] = {
            "q": verdict.certificate.q,
            "bits": list(verdict.certificate.bits),
        }
        if ns.render:
            print(verdict.certificate.render(), file=sys.stderr)
        return payload, 0
    if verdict.answer == "NO":
        payload["refutation_box_radius"] = verdict.refutation_box_radius
        return payload, 1
    payload["budget_note"] = verdict.budget_note
    return payload, 2


def _cmd_verify(ns, problem: ProblemFile) -> Tuple[dict, int]:
    if problem.g is not None:
        if problem.cert is not None:
            ok = verify_multitile(problem.f, problem.g, problem.cert)
            mode = "tiling-certificate"
        elif problem.a is not None:
            ok = convolve_periodic(problem.f, problem.a).equals(problem.g)
            mode = "tiling"
        else:
            raise InputError("verify with 'g' needs an 'a' or 'cert' section")
    else:
        if problem.a is None:
            raise InputError("verify needs an 'a' section (annihilator mode)")
        ok = verify_annihilator(problem.f, problem.a)
        mode = "annihilator"
    return {"answer": "PASS" if ok else "FAIL", "mode": mode}, 0 if ok else 1


def _cmd_omega(ns, problem: Optional[ProblemFile]) -> Tuple[dict, int]:
    tuples = enumerate_minimal_tuples(ns.k)
    payload = {
        "answer": "OK",
        "k": ns.k,
        "tuples": [[str(e) for e in t.entries] for t in tuples],
    }
    return payload, 0


def _cmd_dilate_check(ns, problem: ProblemFile) -> Tuple[dict, int]:
    if problem.a is None or problem.g is None or problem.dilation is None:
        raise InputError("dilate-check needs 'a', 'g', and 'dilation' sections")
    q, r_list = problem.dilation
    report = dilation_check(problem.f, problem.a, problem.g, q, r_list)
    payload = {
        "answer": "PASS" if report.all_pass else "FAIL",
        "q": report.q,
        "results": [{"r": r, "pass": ok} for r, ok in report.results],
    }
    return payload, 0 if report.all_pass else 1


def _cmd_slice(ns, problem: ProblemFile) -> Tuple[dict, int]:
    w = _parse_vec(ns.w, "--w")
    x = _parse_vec(ns.x, "--x")
    return {"answer": "OK", "slice": _finmap_json(coset_slice(problem.f, x, w))}, 0


# ---------------------------------------------------------------------------
# driver


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes ours, not argparse's
        raise InputError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built on first use and then shared by every run."""
    parser = _Parser(prog="abeltile", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json-out", metavar="PATH", help="also write the verdict here")
        return p

    for name, decide, what in (
        ("decide-zero", "decide_zero_annihilator", "does f*a = 0 have a non-zero solution?"),
        ("decide-levelshift", "decide_level_shift",
         "does f*a = const have a non-constant solution?"),
    ):
        p = add(name, _cmd_decide_annihilator, help=what)
        p.set_defaults(decide=decide)
        p.add_argument("problem")
        p.add_argument("--cap-n", type=int, default=8, help="l1-norm capacity cap")

    p = add("decide-multitile", _cmd_decide_multitile,
            help="does some A in Z² satisfy f*1_A = g?")
    p.add_argument("problem")
    p.add_argument("--budget-nodes", type=int, help="node cap per search attempt")
    p.add_argument("--max-q", type=int, help="largest torus side to try")
    p.add_argument("--max-box", type=int, help="largest refutation radius to try")
    p.add_argument("--render", action="store_true",
                   help="draw a YES certificate on stderr")

    p = add("verify", _cmd_verify, help="re-check a certificate against its problem")
    p.add_argument("problem")

    p = add("omega", _cmd_omega, help="canonical minimal vanishing phase tuples")
    p.add_argument("--k", type=int, required=True, help="tuple length")

    p = add("dilate-check", _cmd_dilate_check,
            help="is f*a = g stable under support dilation?")
    p.add_argument("problem")

    p = add("slice", _cmd_slice, help="restrict f to a line x + Zw")
    p.add_argument("problem")
    p.add_argument("--w", required=True, help="direction vector, e.g. '1,0'")
    p.add_argument("--x", required=True, help="base point, e.g. '0,0'")

    return parser


def _emit(payload: dict, started: float, json_out: Optional[str], code: int) -> int:
    """Print the payload as the verdict line and return its exit code.

    The ``--json-out`` copy is written first, so a path that cannot be
    written gives one ERROR line and exit 3 instead of a verdict.
    """
    payload["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if json_out:
        try:
            with open(json_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            error = f"cannot write --json-out: {e}"
            failed = {"command": payload["command"], "answer": "ERROR", "error": error}
            return _emit(failed, started, None, 3)
    print(text)
    return code


def run(argv: Sequence[str]) -> int:
    """Answer one command line: load its problem file, if it takes one, run
    the subcommand, and print its verdict fields under the ``command`` key."""
    started = time.perf_counter()
    json_out = None
    command = None
    try:
        ns = _build_parser().parse_args(list(argv))
        json_out = ns.json_out
        command = ns.command
        problem = _load(ns.problem) if "problem" in ns else None
        payload, code = ns.fn(ns, problem)
    except InputError as e:
        payload, code = {"answer": "ERROR", "error": str(e)}, 3
    except CapacityError as e:
        payload, code = {"answer": "ERROR", "error": str(e)}, 4
    except BudgetExceededError as e:
        payload, code = {"answer": "UNKNOWN", "error": str(e)}, 2
    except Exception as e:  # a crash must not exit 1, which reads as NO
        import traceback

        traceback.print_exc()
        error = f"internal error: {type(e).__name__}: {e}"
        payload, code = {"answer": "ERROR", "error": error}, 5
    payload["command"] = command
    return _emit(payload, started, json_out, code)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
