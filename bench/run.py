"""The abeltile benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cyclic-family --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The run generates the workload's
inputs from the seed, answers them in fresh worker processes (one at a time,
one request in flight: a closed loop with a single client) for ``--seconds``
seconds, re-checks every outcome against the reference routines outside the
timed region, and prints the figures.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from spans
around the calls into each layer) and the tracing overhead with ``--trace 1``.

Each timing is the upper decile over the passes (``PASS_LEVEL``), not the
median: the shared host runs at two speeds, and its faster one comes and goes
for 10-40 s at a time, so the median of a run followed whichever speed held
most of it.  The upper decile reads the steady, slower level.

A traced run alternates plain and traced passes over the same batch; the
per-layer figures are the median over its traced passes, and the overhead is
the traced minus the plain pass time, both at ``PASS_LEVEL``.  CLI requests
are answered through ``abeltile.cli.run`` in the worker in a traced run, so
that their layers can be seen; an untraced run pays a cold interpreter per
request.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import stats
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Per-instance time limit, enforced in the worker by SIGALRM (a child
# process timeout for cold CLI requests).  On annihilator-rank it sits in a
# gap: the slowest instance that decides within it takes about 1.4 s, and
# the two Z³ instances past it need 15 s and 225 s to reach their YES.
LIMIT_S = {
    "cyclic-family": 10.0,
    "annihilator-rank": 4.0,
    "multitile-sweep": 10.0,
    "cli-cold": 30.0,
}
# No pass comes near this; it only keeps a hung worker from holding the run.
WORKER_TIMEOUT_S = 150
# Fresh interpreters behind cli.interpreter_ms and cli.import_ms.
CLI_IMPORTS = 9
# setup_s is the median of this many imports before each pass, after one
# untimed warm-up, so that its samples spread over the run as the passes do
# rather than sitting in one phase of the host's speed.
SETUP_PER_PASS = 2
# Percentile over the passes of a run that every timing reports.  On a
# 2-vCPU shared host, one cyclic-family pass took 2.3-2.7 s at the host's
# usual speed and 1.4-1.9 s while a faster phase lasted (10-40 s at a time).
# Over 25 s windows of one 10-minute series of passes, the quartile spread
# of the window's median pass was 0.22-0.26 of its median; of its upper
# decile, 0.07-0.08.
PASS_LEVEL = 90.0
SETUP_MODULE = {"cli-cold": "abeltile.cli"}
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"
SHOW_IDS = 24

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "decided_share": "ratio",
    "sound_share": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for name in tracing.layer_metrics([], 0):
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units.update({"cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.run_ms": "ms",
                  "cli.exit_code_mismatches": "count", "trace.overhead_s": "s"})
    return units


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_interpreter_times(root, code, reps):
    """What ``code`` prints in each of ``reps`` fresh interpreters, or the
    whole process wall time when it prints nothing."""
    env = child_env(root)
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        wall = time.perf_counter() - started
        times.append(float(out.stdout) if out.stdout.strip() else wall)
    return times


def fresh_interpreter_s(root, code, reps):
    """Median over ``reps`` fresh interpreters, after one untimed warm-up."""
    return statistics.median(fresh_interpreter_times(root, code, reps + 1)[1:])


def run_pass(root, spec, timeout):
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py")],
                          input=json.dumps(spec), capture_output=True, text=True,
                          cwd=root, env=child_env(root), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment(root):
    commit = "unknown"  # a checkout without git history has no commit to name
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.samefile(out[0], root):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_before": os.getloadavg()}


def check_passes(root, batch, passes):
    """Re-check every outcome.  Identical outcomes of one instance in several
    passes are checked once."""
    sys.path.insert(0, os.path.join(root, "tests"))
    import _oracles

    checker = check.Checker(_oracles)
    by_id = {inst["id"]: inst for inst in batch}
    seen = {}
    tally = {"attempted": 0, "decided": 0, "failed": 0, "mismatched": 0,
             "unverified": 0, "timeouts": set(), "unknown": set(), "problems": {},
             "known": set(), "exit_mismatches": 0}
    for _, report in passes:
        for res in report["results"]:
            inst = by_id[res["id"]]
            key = (res["id"], json.dumps({k: v for k, v in res.items() if k != "secs"},
                                         sort_keys=True))
            if key not in seen:
                seen[key] = checker.check(inst, res)
            decided, problem, unverified = seen[key]
            tally["attempted"] += 1
            tally["decided"] += decided
            tally["unverified"] += unverified
            if res["error"] == "TIMEOUT":
                tally["timeouts"].add(res["id"])
            if res.get("answer") == "UNKNOWN" or res.get("exit") == 2:
                tally["unknown"].add(res["id"])
            if problem is not None:
                tally["mismatched"] += 1
                if inst["kind"] == "cli" and res.get("exit") not in inst["expect"]:
                    tally["exit_mismatches"] += 1
                if check.known_defect(inst, res):
                    tally["known"].add(res["id"])
                else:
                    tally["failed"] += 1
                    tally["problems"][res["id"]] = problem
    return tally


def pass_level(values):
    """A timing over the passes of a run, at PASS_LEVEL."""
    return stats.percentile(list(values), PASS_LEVEL)


def instance_ms(reports):
    """Each instance's time in ms, at PASS_LEVEL over the passes that ran it.
    A single timing of a millisecond instance is a sample of how fast the
    shared host was at that moment; a level over the passes is steadier."""
    times = {}
    for report in reports:
        for res in report["results"]:
            times.setdefault(res["id"], []).append(res["secs"] * 1000.0)
    return [pass_level(ts) for ts in times.values()]


def end_to_end(plain, batch_size, tally, setup_s):
    level, n_beyond = stats.tail_level(batch_size)
    ms = instance_ms(plain)
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_level(r["wall_s"] for r in plain),
        "verdict_p50_ms": stats.percentile(ms, 50),
        "verdict_tail_ms": stats.percentile(ms, level),
        "decided_share": stats.share(tally["decided"], tally["attempted"]),
        "sound_share": stats.share(tally["attempted"] - tally["mismatched"],
                                   tally["attempted"]),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
    }
    return metrics, (f"verdict_tail_ms is p{level:g} with {n_beyond} of {batch_size} instances"
                     f" beyond it (per-instance p{PASS_LEVEL:g} over the passes)")


def per_layer(root, workload, plain, traced, tally, passes):
    layers = {}
    for name in tracing.layer_metrics([], 0):
        layers[name] = statistics.median(r["layers"][name] for r in traced)
    layers["cli.interpreter_ms"] = 1000.0 * fresh_interpreter_s(root, "pass", CLI_IMPORTS)
    layers["cli.import_ms"] = 1000.0 * fresh_interpreter_s(
        root, IMPORT_SNIPPET.format("abeltile.cli"), CLI_IMPORTS)
    is_cli = workload == "cli-cold"
    layers["cli.run_ms"] = stats.percentile(instance_ms(plain), 50) if is_cli else 0.0
    layers["cli.exit_code_mismatches"] = tally["exit_mismatches"] / len(passes) if is_cli else 0
    layers["trace.overhead_s"] = (pass_level(r["wall_s"] for r in traced)
                                  - pass_level(r["wall_s"] for r in plain))
    return layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BATCHES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/abeltile/__init__.py", "tests/_oracles.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"bench: {needed} not found; run from the root of an abeltile checkout",
                  file=sys.stderr)
            return 2

    env = environment(root)
    batch = workloads.BATCHES[args.workload](args.seed)
    workdir = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        import_code = IMPORT_SNIPPET.format(SETUP_MODULE.get(args.workload, "abeltile"))
        setup_times = []
        if not args.trace:
            fresh_interpreter_times(root, import_code, 1)  # warm-up, not counted

        limit = LIMIT_S[args.workload]
        modes = (False, True) if args.trace else (False,)
        passes = []
        # An untimed run answers an instance that timed out once only once:
        # later passes count its first result, time included, instead of
        # spending the limit again to learn nothing new.  Traced passes run
        # everything, so that their spans cover the timeouts too.
        carried = {}
        started = last = time.perf_counter()
        while True:
            if not args.trace:
                setup_times += fresh_interpreter_times(root, import_code, SETUP_PER_PASS)
            traced = modes[len(passes) % len(modes)]
            todo = [inst for inst in batch if inst["id"] not in carried]
            spec = {"instances": todo, "limit_s": limit, "trace": traced,
                    "cli_inprocess": bool(args.trace), "workdir": workdir}
            report = run_pass(root, spec, timeout=WORKER_TIMEOUT_S)
            if not args.trace:
                done = {r["id"]: r for r in report["results"]}
                report["wall_s"] += sum(r["secs"] for r in carried.values())
                report["results"] = [done.get(i["id"]) or carried[i["id"]] for i in batch]
                carried.update((r["id"], r) for r in report["results"] if r["error"] == "TIMEOUT")
            passes.append((traced, report))
            now = time.perf_counter()
            # stop when one more pass like the last would end further past
            # --seconds than stopping now falls short of it
            if len(passes) >= len(modes) and now - started + (now - last) / 2 > args.seconds:
                break
            last = now
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = check_passes(root, batch, passes)
    plain = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    if args.trace:
        metrics = per_layer(root, args.workload, plain, traced, tally, passes)
        units = per_layer_units()
        note = f"tracing overhead {metrics['trace.overhead_s']:.4f} s per pass"
    else:
        metrics, note = end_to_end(plain, len(batch), tally, statistics.median(setup_times))
        units = END_TO_END_UNITS

    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               passes=len(passes), batch=len(batch), limit_s=limit,
               loadavg_after=os.getloadavg())
    print("record " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  {note}")
    for label, ids in (("timed out", tally["timeouts"]), ("unknown", tally["unknown"])):
        shown = sorted(ids)[:SHOW_IDS]
        more = f" and {len(ids) - len(shown)} more" if len(ids) > len(shown) else ""
        print(f"  {label} ({len(ids)}): {' '.join(shown) or '-'}{more}")
    print(f"  known defects: {' '.join(sorted(tally['known'])) or '-'}")
    print(f"  NO verdicts too large to re-check: {tally['unverified']}")
    for iid, problem in sorted(tally["problems"].items()):
        print(f"  FAILED {iid}: {problem}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
