"""One pass over a batch of instances, in a fresh interpreter.

Reads a JSON spec on stdin, answers every instance in order, one at a time,
and prints one JSON line: per-instance outcomes and times, the pass wall time
(the sum of the timed regions), the peak RSS and, for a traced pass, the
per-layer figures.  Run by ``bench/run.py``; the package is imported only
here, so each pass starts with empty caches.

Spec keys: ``instances``, ``limit_s`` (per-instance time limit), ``trace``
(wrap the layer bindings), ``cli_inprocess`` (answer CLI requests through
``abeltile.cli.run`` instead of a child process) and ``workdir`` (where CLI
problem files are written).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time

import tracing


class InstanceTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the package
    mistakes it for one of its own errors."""


def _alarm(signum, frame):
    raise InstanceTimeout()


def timed(call, limit_s):
    """(result, seconds, error name or None) under a per-instance limit."""
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        result = call()
        error = None
    except InstanceTimeout:
        result, error = None, "TIMEOUT"
    except Exception as exc:  # a crash is an outcome to report, not to stop on
        result, error = None, type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, time.perf_counter() - started, error


def _rat(r):
    return f"{r.numerator}/{r.denominator}"


class Pass:
    def __init__(self, spec):
        import abeltile
        from abeltile import annihilator, cli, multitile, qzlinear, structure

        self.ab = abeltile
        self.modules = {"annihilator": annihilator, "cli": cli, "multitile": multitile,
                        "qzlinear": qzlinear, "structure": structure}
        self.limit_s = spec["limit_s"]
        self.workdir = spec["workdir"]
        self.cli_inprocess = spec["cli_inprocess"]
        self.tracer = None
        if spec["trace"]:
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer, self.modules)

    # --- kinds ----------------------------------------------------------------

    def zero(self, inst):
        ab = self.ab
        group = ab.GroupSpec(inst["free_rank"], tuple(inst["torsion"]))
        f = ab.FinMap(group, [(tuple(p), c) for p, c in inst["f"]])
        verdict, secs, error = timed(
            lambda: self.modules["annihilator"].decide_zero_annihilator(
                group, f, inst["cap"]), self.limit_s)
        out = {"secs": secs, "error": error}
        if verdict is not None:
            out["answer"] = verdict.answer
            if verdict.is_yes:
                out["character"] = [_rat(e) for e in verdict.witness_character.etas]
                out["period"] = verdict.witness_map.period
                out["values"] = list(verdict.witness_map.values)
        return out

    def multitile(self, inst):
        ab = self.ab
        z2 = ab.GroupSpec(2)
        f = ab.FinMap.indicator(z2, [tuple(c) for c in inst["cells"]])
        g = ab.PeriodicMap.constant(z2, inst["g"])
        budget = ab.SearchBudget(*inst["budget"])
        mt, st = self.modules["multitile"], self.modules["structure"]

        def call():
            verdict = mt.decide_multitile(f, g, budget)
            report = None
            if verdict.is_yes:
                q = verdict.certificate.q
                report = st.dilation_check(
                    f, verdict.certificate.to_periodic_map(), g, q, (1 + q, 1 + 2 * q))
            return verdict, report

        got, secs, error = timed(call, self.limit_s)
        out = {"secs": secs, "error": error}
        if got is not None:
            verdict, report = got
            out["answer"] = verdict.answer
            out["nodes"] = verdict.nodes_used
            if verdict.is_yes:
                out["q"] = verdict.certificate.q
                out["bits"] = list(verdict.certificate.bits)
                out["dilation"] = [list(r) for r in report.results]
            elif verdict.answer == "NO":
                out["radius"] = verdict.refutation_box_radius
        if self.tracer is not None:
            timed(lambda: self.replay_ladder(f, g, budget), self.limit_s)
        return out

    def replay_ladder(self, f, g, budget):
        """The decide_multitile ladder again, through the public step
        functions, so that each torus and box step gets its own span."""
        mt = self.modules["multitile"]
        qs = list(range(g.period, budget.max_q + 1, g.period))
        ns = list(range(budget.max_box_radius + 1))
        for step in range(max(len(qs), len(ns))):
            for steps, fn in ((qs, mt.periodic_search), (ns, mt.box_refute)):
                if step < len(steps):
                    try:
                        if fn(f, g, steps[step], budget.max_nodes):
                            return
                    except self.ab.BudgetExceededError:
                        pass

    def cli(self, inst):
        args = list(inst["argv"])
        if inst["problem"] is not None:
            path = os.path.join(self.workdir, inst["id"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inst["problem"], fh)
            args.append(path)
        if self.cli_inprocess:
            return self._cli_inprocess(args)
        started = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "abeltile.cli", *args],
                                  capture_output=True, text=True, timeout=self.limit_s)
        except subprocess.TimeoutExpired:
            return {"secs": time.perf_counter() - started, "error": "TIMEOUT"}
        secs = time.perf_counter() - started
        lines = proc.stderr.strip().splitlines()
        return {"secs": secs, "error": None, "exit": proc.returncode,
                "stdout": proc.stdout.strip().splitlines()[-1:],
                "stderr": lines[-1] if lines else ""}

    def _cli_inprocess(self, args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, secs, error = timed(lambda: self.modules["cli"].run(args), self.limit_s)
        out = {"secs": secs, "error": None, "stdout": buf.getvalue().strip().splitlines()[-1:],
               "stderr": ""}
        if error == "TIMEOUT":
            out["error"] = error
        elif error is not None:
            # what the interpreter exits with on an uncaught exception
            out.update(exit=1, stderr=error)
        else:
            out["exit"] = code
        return out

    def run(self, instances):
        results = []
        for inst in instances:
            if self.tracer is not None:
                self.tracer.instance = inst["id"]
            out = getattr(self, inst["kind"])(inst)
            out["id"] = inst["id"]
            results.append(out)
        usage = resource.RUSAGE_CHILDREN if (
            instances and instances[0]["kind"] == "cli" and not self.cli_inprocess
        ) else resource.RUSAGE_SELF
        report = {
            "results": results,
            "wall_s": sum(r["secs"] for r in results),
            "rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            "layers": None,
        }
        if self.tracer is not None:
            timeouts = sum(1 for i, r in zip(instances, results)
                           if i["kind"] == "zero" and r["error"] == "TIMEOUT")
            report["layers"] = tracing.layer_metrics(self.tracer.spans, timeouts)
            report["spans"] = len(self.tracer.spans)
        return report


def main():
    spec = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _alarm)
    report = Pass(spec).run(spec["instances"])
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
