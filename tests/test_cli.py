"""Command-line interface: parsing, exit codes, deterministic JSON output."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from abeltile import AnnihilatorVerdict, InputError, SearchBudget
from abeltile.cli import parse_problem, run

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DOMINO_Z = {
    "group": {"free_rank": 1},
    "f": [{"elem": [0], "coeff": 1}, {"elem": [1], "coeff": 1}],
}
HARD_NO = {
    "group": {"free_rank": 1},
    "f": [
        {"elem": [-1], "coeff": 3},
        {"elem": [0], "coeff": -2},
        {"elem": [1], "coeff": 3},
    ],
}
DOMINO_PLANE = {
    "group": {"free_rank": 2},
    "f": [{"elem": [0, 0], "coeff": 1}, {"elem": [1, 0], "coeff": 1}],
    "g": {"period": 1, "values": [1]},
}


def _write(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    payload.pop("timing_ms", None)
    return code, payload, captured.err


# ----------------------------------------------------------------- parsing


def test_parse_minimal_problem():
    p = parse_problem('{"group": {"free_rank": 1}, "f": [{"elem": [0], "coeff": 2}]}')
    assert p.group.free_rank == 1 and p.group.torsion == ()
    assert p.f.entries == {(0,): 2}
    assert p.g is None and p.cert is None and p.dilation is None
    assert p.budget == SearchBudget()


def test_parse_canonicalizes_torsion_coordinates():
    p = parse_problem(
        '{"group": {"free_rank": 0, "torsion": [2]}, "f": [{"elem": [5], "coeff": 1}]}'
    )
    assert p.f.entries == {(1,): 1}


def test_parse_nested_rows_for_grids():
    p = parse_problem(
        json.dumps(
            {
                "group": {"free_rank": 2},
                "f": [{"elem": [0, 0], "coeff": 1}],
                "g": {"period": 2, "values": [[1, 0], [0, 1]]},
                "cert": {"q": 2, "bits": [[1, 0], [0, 1]]},
            }
        )
    )
    assert p.g.values == (1, 0, 0, 1)
    assert p.cert.bits == (1, 0, 0, 1)


@pytest.mark.parametrize(
    "text, needle",
    [
        ('{"group": {"free_rank": 1}}', "missing required section 'f'"),
        ('{"f": [{"elem": [0], "coeff": 1}]}', "missing required section 'group'"),
        ('{"group": {"free_rank": 1}, "f": [], "junk": 1}', "unknown top-level field"),
        ('{"group": {"free_rank": 1, "rank": 2}, "f": []}', "unknown field 'rank'"),
        (
            '{"group": {"free_rank": 1}, "f": [{"elem": [0, 0], "coeff": 1}]}',
            "expected 1 coordinates",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [{"elem": [0], "coeff": true}]}',
            "expected an integer",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [{"elem": [0], "coeff": 1, "w": 2}]}',
            "unknown field 'w'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "g": {"period": [2], "values": [1]}}',
            "g.period",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "g": {"period": 2, "values": [1]}}',
            "expected 2 values",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "budget": {"max_nodes": 0}}',
            "budget.max_nodes",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "cert": {"q": 2, "bits": [1]}}',
            "expected 4 bits",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "g": {"period": 1, "values": [1], "x": 0}}',
            "g: unknown field 'x'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "a": {"period": 1, "values": [1], "x": 0}}',
            "a: unknown field 'x'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "cert": {"q": 1, "bits": [1], "x": 0}}',
            "cert: unknown field 'x'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "budget": {"max_q": 2, "x": 0}}',
            "budget: unknown field 'x'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "dilation": {"q": 2, "r_list": [3], "x": 0}}',
            "dilation: unknown field 'x'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [{"elem": [0]}]}',
            "f[0]: needs 'elem' and 'coeff'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "g": {"period": 1}}',
            "g: needs 'period' and 'values'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "cert": {"bits": [1]}}',
            "cert: needs 'q' and 'bits'",
        ),
        (
            '{"group": {"free_rank": 1}, "f": [], "dilation": {"q": 2}}',
            "dilation: needs 'q' and 'r_list'",
        ),
        ('{"group": {"free_rank": 1}, "f": [], "budget": [1]}', "budget: expected an object"),
        (
            '{"group": {"free_rank": 2}, "f": [], "g": {"period": 2, "values": [[1], [1, 1, 1]]}}',
            "g.values: rows have different lengths",
        ),
        (
            '{"group": {"free_rank": 2}, "f": [], "g": {"period": 2, "values": [[1, 1], 1, 1]}}',
            "g.values: mixes rows and scalars",
        ),
    ],
)
def test_parse_rejections(text, needle):
    with pytest.raises(InputError) as e:
        parse_problem(text)
    assert needle in str(e.value)


def test_parse_reports_json_position():
    with pytest.raises(InputError) as e:
        parse_problem('{"group": }')
    assert "line 1 column 11" in str(e.value)


# ------------------------------------------------------------ decide-zero


def test_cli_decide_zero_yes(tmp_path, capsys):
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, DOMINO_Z)])
    assert code == 0
    assert payload["answer"] == "YES"
    cert = payload["certificate"]
    assert cert["character"] == ["1/2"]
    assert cert["witness"] == {"period": 2, "values": [1, -1]}
    assert cert.keys() == {"character", "witness"}


def test_cli_decide_zero_no(tmp_path, capsys):
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, HARD_NO)])
    assert code == 1
    assert payload == {"answer": "NO", "command": "decide-zero"}


def test_cli_decide_zero_capacity(tmp_path, capsys):
    code, payload, _ = _run(
        capsys, ["decide-zero", _write(tmp_path, HARD_NO), "--cap-n", "4"]
    )
    assert code == 4
    assert payload["answer"] == "ERROR"
    assert "capacity" in payload["error"]


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cli_cap_below_one_is_malformed_input(tmp_path, capsys, cap):
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, DOMINO_Z), "--cap-n", cap])
    assert code == 3
    assert payload == {
        "answer": "ERROR",
        "command": "decide-zero",
        "error": f"cap: expected an integer >= 1, got {cap}",
    }


def test_cli_decide_zero_refuses_a_partition_beyond_the_candidate_cap(tmp_path, capsys):
    far = {
        "group": {"free_rank": 1},
        "f": [{"elem": [0], "coeff": 1}, {"elem": [10**9], "coeff": 1}],
    }
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, far)])
    assert code == 4
    assert payload["answer"] == "ERROR"
    assert "candidates" in payload["error"]


def test_cli_decide_zero_refuses_a_witness_beyond_the_cell_cap(tmp_path, capsys):
    # the order-2 character kills f at once, but its witness would have 2^40 cells
    wide = {
        "group": {"free_rank": 40},
        "f": [{"elem": [0] * 40, "coeff": 1}, {"elem": [1] + [0] * 39, "coeff": 1}],
    }
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, wide)])
    assert code == 4
    assert payload["answer"] == "ERROR"
    assert f"witness of {2**40} cells" in payload["error"]


def test_cli_decide_zero_order_two_on_z3(tmp_path, capsys):
    # killed by (0, 1/2, 1/2): an 8-cell witness, where the partition search
    # alone would take seconds and find an order-150 character
    z3 = {
        "group": {"free_rank": 3},
        "f": [
            {"elem": [-3, 2, -3], "coeff": -1},
            {"elem": [1, -3, 3], "coeff": -2},
            {"elem": [3, 0, -1], "coeff": -2},
            {"elem": [3, 1, 0], "coeff": 1},
        ],
    }
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, z3)])
    assert code == 0
    cert = payload["certificate"]
    assert cert["character"] == ["0/1", "1/2", "1/2"]
    assert cert["witness"]["period"] == 2 and len(cert["witness"]["values"]) == 8
    assert cert.keys() == {"character", "witness"}


def test_cli_decide_zero_no_on_far_apart_points(tmp_path, capsys):
    # a NO, not a crash: the Q/Z solve for this f has shift moduli near 10^10
    far = {
        "group": {"free_rank": 1},
        "f": [{"elem": [0], "coeff": 1}, {"elem": [10**9], "coeff": 2}],
    }
    for command in ("decide-zero", "decide-levelshift"):
        code, payload, _ = _run(capsys, [command, _write(tmp_path, far)])
        assert code == 1
        assert payload == {"answer": "NO", "command": command}


def test_cli_decide_zero_no_on_far_apart_points_of_z_times_z2(tmp_path, capsys):
    # a NO, not a capacity refusal: the partition search would face 12 * 10^9
    # candidates; its YES twin (coefficient 1) still meets that refusal
    def far(coeff):
        return {
            "group": {"free_rank": 1, "torsion": [2]},
            "f": [{"elem": [0, 0], "coeff": 1}, {"elem": [10**9, 1], "coeff": coeff}],
        }

    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, far(2))])
    assert code == 1
    assert payload == {"answer": "NO", "command": "decide-zero"}
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, far(1))])
    assert code == 4
    assert "candidates" in payload["error"]


def test_cli_decide_levelshift(tmp_path, capsys):
    code, payload, _ = _run(capsys, ["decide-levelshift", _write(tmp_path, DOMINO_Z)])
    assert code == 0 and payload["answer"] == "YES"
    assert payload["certificate"].keys() == {"character", "witness"}
    _, zero, _ = _run(capsys, ["decide-zero", _write(tmp_path, DOMINO_Z)])
    assert payload["certificate"] == zero["certificate"]
    zero_mass = {
        "group": {"free_rank": 1},
        "f": [{"elem": [0], "coeff": 1}, {"elem": [1], "coeff": -1}],
    }
    code, payload, _ = _run(
        capsys, ["decide-levelshift", _write(tmp_path, zero_mass, "z.json")]
    )
    assert code == 3
    assert "total mass" in payload["error"]


def test_cli_decide_zero_roundtrip_through_verify(tmp_path, capsys):
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, DOMINO_Z)])
    assert code == 0
    check = dict(DOMINO_Z)
    check["a"] = payload["certificate"]["witness"]
    code, payload, _ = _run(capsys, ["verify", _write(tmp_path, check, "check.json")])
    assert code == 0
    assert payload["answer"] == "PASS" and payload["mode"] == "annihilator"


# -------------------------------------------------------- decide-multitile


def test_cli_multitile_yes_and_roundtrip(tmp_path, capsys):
    code, payload, err = _run(
        capsys, ["decide-multitile", _write(tmp_path, DOMINO_PLANE), "--render"]
    )
    assert code == 0
    assert payload["answer"] == "YES"
    assert payload["certificate"] == {"q": 2, "bits": [0, 0, 1, 1]}
    assert payload["nodes_used"] == 3
    assert err.splitlines() == ["..", "##"]
    check = dict(DOMINO_PLANE)
    check["cert"] = payload["certificate"]
    code, payload, _ = _run(capsys, ["verify", _write(tmp_path, check, "check.json")])
    assert code == 0
    assert payload["mode"] == "tiling-certificate"


def test_cli_multitile_no(tmp_path, capsys):
    bad = dict(DOMINO_PLANE)
    bad["g"] = {"period": 1, "values": [3]}
    code, payload, _ = _run(capsys, ["decide-multitile", _write(tmp_path, bad)])
    assert code == 1
    assert payload["answer"] == "NO"
    assert payload["refutation_box_radius"] == 0


def test_cli_multitile_unknown_exit_two(tmp_path, capsys):
    code, payload, _ = _run(
        capsys,
        [
            "decide-multitile",
            _write(tmp_path, DOMINO_PLANE),
            "--max-q", "1",
            "--max-box", "1",
            "--budget-nodes", "30",
        ],
    )
    assert code == 2
    assert payload["answer"] == "UNKNOWN"
    assert "exhausted" in payload["budget_note"]


def test_cli_multitile_budget_file_section(tmp_path, capsys):
    prob = dict(DOMINO_PLANE)
    prob["budget"] = {"max_q": 1, "max_box_radius": 1, "max_nodes": 30}
    code, payload, _ = _run(capsys, ["decide-multitile", _write(tmp_path, prob)])
    assert code == 2
    # flags beat the file section
    code, payload, _ = _run(
        capsys, ["decide-multitile", _write(tmp_path, prob), "--max-q", "2"]
    )
    assert code == 0
    # a flag replaces only its own field; the others keep the file's values
    code, payload, _ = _run(
        capsys, ["decide-multitile", _write(tmp_path, prob), "--max-box", "2"]
    )
    assert code == 2
    assert payload["budget_note"] == (
        "exhausted torus sides [1] and box radii [0, 1, 2] with 30 nodes per attempt"
    )


def test_cli_multitile_needs_g(tmp_path, capsys):
    code, payload, _ = _run(
        capsys, ["decide-multitile", _write(tmp_path, {"group": {"free_rank": 2}, "f": []})]
    )
    assert code == 3
    assert "needs a 'g' section" in payload["error"]


# ------------------------------------------------------------------ verify


def test_cli_verify_tiling_mode(tmp_path, capsys):
    prob = {
        "group": {"free_rank": 2},
        "f": [{"elem": [0, 0], "coeff": 1}, {"elem": [1, 0], "coeff": 1}],
        "g": {"period": 1, "values": [1]},
        "a": {"period": 2, "values": [0, 0, 1, 1]},
    }
    code, payload, _ = _run(capsys, ["verify", _write(tmp_path, prob)])
    assert code == 0 and payload["mode"] == "tiling"
    prob["a"] = {"period": 1, "values": [1]}
    code, payload, _ = _run(capsys, ["verify", _write(tmp_path, prob, "bad.json")])
    assert code == 1 and payload["answer"] == "FAIL"


def test_cli_verify_missing_sections(tmp_path, capsys):
    code, payload, _ = _run(capsys, ["verify", _write(tmp_path, DOMINO_Z)])
    assert code == 3
    assert "needs an 'a' section" in payload["error"]
    with_g = dict(DOMINO_PLANE)
    code, payload, _ = _run(capsys, ["verify", _write(tmp_path, with_g, "g.json")])
    assert code == 3
    assert "'a' or 'cert'" in payload["error"]


# ------------------------------------------------------------------- omega


def test_cli_omega(capsys):
    code, payload, _ = _run(capsys, ["omega", "--k", "3"])
    assert code == 0
    assert payload["tuples"] == [["0/1", "1/3", "2/3"], ["0/1", "2/3", "1/3"]]
    code, payload, _ = _run(capsys, ["omega", "--k", "4"])
    assert payload["tuples"] == []
    code, payload, _ = _run(capsys, ["omega", "--k", "7"])
    assert code == 4
    code, payload, _ = _run(capsys, ["omega", "--k", "1"])
    assert code == 3


# ------------------------------------------------------------ dilate-check


def test_cli_dilate_check(tmp_path, capsys):
    prob = {
        "group": {"free_rank": 1},
        "f": [{"elem": [0], "coeff": 1}, {"elem": [1], "coeff": 1}],
        "a": {"period": 2, "values": [1, -1]},
        "g": {"period": 1, "values": [0]},
        "dilation": {"q": 2, "r_list": [3, 5, 7]},
    }
    code, payload, _ = _run(capsys, ["dilate-check", _write(tmp_path, prob)])
    assert code == 0
    assert payload["answer"] == "PASS"
    assert payload["results"] == [
        {"r": 3, "pass": True},
        {"r": 5, "pass": True},
        {"r": 7, "pass": True},
    ]
    prob["dilation"] = {"q": 1, "r_list": [2]}
    code, payload, _ = _run(capsys, ["dilate-check", _write(tmp_path, prob, "f.json")])
    assert code == 1
    assert payload["results"] == [{"r": 2, "pass": False}]
    del prob["dilation"]
    code, payload, _ = _run(capsys, ["dilate-check", _write(tmp_path, prob, "m.json")])
    assert code == 3


# ------------------------------------------------------------------- slice


def test_cli_slice(tmp_path, capsys):
    prob = {
        "group": {"free_rank": 2},
        "f": [
            {"elem": [0, 0], "coeff": 1},
            {"elem": [1, 0], "coeff": 1},
            {"elem": [0, 1], "coeff": 1},
        ],
    }
    code, payload, _ = _run(
        capsys, ["slice", _write(tmp_path, prob), "--w", "1,0", "--x", "0,0"]
    )
    assert code == 0
    assert payload["slice"] == [
        {"elem": [0, 0], "coeff": 1},
        {"elem": [1, 0], "coeff": 1},
    ]
    code, payload, _ = _run(
        capsys, ["slice", _write(tmp_path, prob), "--w", "nope", "--x", "0,0"]
    )
    assert code == 3
    code, payload, _ = _run(
        capsys, ["slice", _write(tmp_path, prob), "--w", "1,0,0", "--x", "0,0"]
    )
    assert code == 3
    assert payload["error"] == "--w: expected exactly two coordinates, got '1,0,0'"
    code, payload, _ = _run(
        capsys, ["slice", _write(tmp_path, DOMINO_Z, "z.json"), "--w", "1,0", "--x", "0,0"]
    )
    assert code == 3  # slicing is a Z² affair


# ------------------------------------------------------------------ driver


def test_cli_internal_error_exits_five(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("abeltile.cli.decide_zero_annihilator", broken)
    code, payload, _ = _run(capsys, ["decide-zero", _write(tmp_path, DOMINO_Z)])
    assert code == 5
    assert payload == {
        "answer": "ERROR",
        "command": "decide-zero",
        "error": "internal error: RuntimeError: boom",
    }


def test_cli_runs_rebound_decider_after_parser_is_built(tmp_path, capsys, monkeypatch):
    problem = _write(tmp_path, DOMINO_Z)
    assert _run(capsys, ["decide-levelshift", problem])[0] == 0  # parser now built
    seen = []

    def traced(group, f, cap):
        seen.append(cap)
        return AnnihilatorVerdict("NO")

    monkeypatch.setattr("abeltile.cli.decide_level_shift", traced)
    code, payload, _ = _run(capsys, ["decide-levelshift", problem, "--cap-n", "6"])
    assert (code, payload["answer"], seen) == (1, "NO", [6])


def test_cli_deep_diagonal_does_not_exit_one(tmp_path, capsys):
    # f*1_A = 1 is solvable here, so exit 1 (NO) would be a wrong answer
    prob = {
        "group": {"free_rank": 2},
        "f": [{"elem": [0, 0], "coeff": 1}, {"elem": [12, 12], "coeff": 1}],
        "g": {"period": 1, "values": [1]},
    }
    code, payload, _ = _run(
        capsys, ["decide-multitile", _write(tmp_path, prob), "--max-q", "1", "--max-box", "6"]
    )
    assert code != 1
    assert payload["answer"] != "NO"
    assert code == 2
    assert payload["answer"] == "UNKNOWN"


ENVELOPE_CASES = {
    "decide-zero": (DOMINO_Z, [], 0),
    "decide-levelshift": (DOMINO_Z, [], 0),
    "decide-multitile": (DOMINO_PLANE, [], 0),
    "verify": (dict(DOMINO_Z, a={"period": 2, "values": [1, -1]}), [], 0),
    "dilate-check": (
        dict(
            DOMINO_Z,
            a={"period": 2, "values": [1, -1]},
            g={"period": 1, "values": [0]},
            dilation={"q": 2, "r_list": [3]},
        ),
        [],
        0,
    ),
    "slice": (DOMINO_PLANE, ["--w", "1,0", "--x", "0,0"], 0),
}


@pytest.mark.parametrize("command", sorted(ENVELOPE_CASES))
def test_cli_line_carries_its_command(tmp_path, capsys, command):
    problem, extra, expected = ENVELOPE_CASES[command]
    code, payload, _ = _run(capsys, [command, _write(tmp_path, problem), *extra])
    assert (code, payload["command"]) == (expected, command)
    code, payload, _ = _run(capsys, [command, str(tmp_path / "missing.json"), *extra])
    assert (code, payload["command"], payload["answer"]) == (3, command, "ERROR")
    assert payload["error"].startswith("cannot read problem file: ")


def test_cli_omega_line_carries_its_command(capsys):
    assert _run(capsys, ["omega", "--k", "2"])[1]["command"] == "omega"
    assert _run(capsys, ["omega", "--k", "1"])[1]["command"] == "omega"


def test_cli_unknown_subcommand(capsys):
    code, payload, _ = _run(capsys, ["frobnicate"])
    assert code == 3
    assert payload["answer"] == "ERROR"


def test_cli_missing_file(capsys):
    code, payload, _ = _run(capsys, ["decide-zero", "/no/such/file.json"])
    assert code == 3
    assert "cannot read problem file" in payload["error"]


def test_cli_output_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, DOMINO_Z)
    _, first, _ = _run(capsys, ["decide-zero", path])
    _, second, _ = _run(capsys, ["decide-zero", path])
    assert first == second


def test_cli_json_out_mirrors_stdout(tmp_path, capsys):
    path = _write(tmp_path, DOMINO_Z)
    out = tmp_path / "verdict.json"
    code = run(["decide-zero", path, "--json-out", str(out)])
    stdout_line = capsys.readouterr().out.strip()
    assert code == 0
    assert out.read_text().strip() == stdout_line


def test_cli_unwritable_json_out_exits_three(tmp_path, capsys):
    path = _write(tmp_path, DOMINO_Z)
    out = tmp_path / "missing-dir" / "verdict.json"
    code = run(["decide-zero", path, "--json-out", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["answer"] == "ERROR"
    assert payload["error"].startswith("cannot write --json-out: ")
    assert "YES" not in lines[0]
    assert not out.exists()


def _console_script_argv(tmp_path):
    """Argv that runs the ``abeltile`` console script, installed or not."""
    exe = shutil.which("abeltile")
    if exe:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "abeltile" in scripts, "pyproject.toml declares no 'abeltile' console script"
    module, _, attr = scripts["abeltile"].partition(":")
    launcher = tmp_path / "abeltile"
    launcher.write_text(
        f"import sys\nfrom {module} import {attr}\n"
        f"if __name__ == '__main__':\n    sys.exit({attr}())\n"
    )
    return [sys.executable, str(launcher)]


def test_console_script_is_installed(tmp_path):
    """The declared ``abeltile`` console script answers ``omega --k 2``.

    With an ``abeltile`` script on PATH (an installed checkout) that script
    is run. Without one, the entry is read from ``[project.scripts]`` in
    ``pyproject.toml`` and run through the launcher an installer would
    write: the suite also runs uninstalled from ``src/``, and an offline
    install needs the ``wheel`` package, which not every environment has.
    """
    proc = subprocess.run(
        _console_script_argv(tmp_path) + ["omega", "--k", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["tuples"] == [["0/1", "1/2"]]


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "abeltile.cli", "omega", "--k", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
