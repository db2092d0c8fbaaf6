"""Spans around the calls into each layer, recorded from outside the package.

A span is opened by wrapping a public name in the namespace of the module
that calls it (``abeltile.annihilator.qz_solution_set`` is the binding the
annihilator search looks up at run time), so no source file is edited.  Each
span keeps its name, start, end, parent span and instance id; spans stay in
memory and are reduced to per-layer figures when a pass ends.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """In-memory span recorder.  ``spans[i]`` is
    ``[name, start_ns, end_ns, parent_index, instance_id, note]``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None

    def wrap(self, name, fn, note=None):
        """``fn`` with a span around each call.  ``note(result)`` may return a
        number kept on the span; an exception is kept as its type name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [name, time.perf_counter_ns(), 0, parent, self.instance, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        return traced


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = {}
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# Wrapped bindings: (module, attribute, span name, note on the result).  A
# module appears once per binding that the package or the worker calls.
def _count(result):
    return None if result is None else result.count


def _truthy(result):
    return 1 if result else 0


def _cells(result):
    return len(result.values)


def _multitile(result):
    return (result.answer, result.nodes_used)


BINDINGS = (
    ("annihilator", "decide_zero_annihilator", "annihilator.decide", None),
    ("annihilator", "qz_solution_set", "qzlinear.solve", _count),
    ("annihilator", "is_minimal_vanishing", "cyclotomic.minvan", _truthy),
    ("annihilator", "witness_periodic_annihilator", "annihilator.witness", _cells),
    ("annihilator", "verify_annihilator", "annihilator.verify", None),
    ("annihilator", "convolve_periodic", "groups.convolve_periodic", None),
    ("qzlinear", "smith_normal_form", "qzlinear.snf", None),
    ("multitile", "decide_multitile", "multitile.decide", _multitile),
    ("multitile", "verify_multitile", "multitile.verify", None),
    ("multitile", "convolve_periodic", "groups.convolve_periodic", None),
    ("multitile", "periodic_search", "multitile.torus", _truthy),
    ("multitile", "box_refute", "multitile.box", _truthy),
    ("structure", "dilation_check", "structure.dilation", None),
    ("structure", "convolve_periodic", "groups.convolve_periodic", None),
    ("cli", "decide_zero_annihilator", "annihilator.decide", None),
    ("cli", "decide_multitile", "multitile.decide", _multitile),
    ("cli", "verify_annihilator", "annihilator.verify", None),
    ("cli", "verify_multitile", "multitile.verify", None),
    ("cli", "convolve_periodic", "groups.convolve_periodic", None),
    ("cli", "dilation_check", "structure.dilation", None),
)


def install(tracer, modules):
    """Replace every binding in ``modules`` (name -> module) by its traced
    wrapper."""
    for mod, attr, name, note in BINDINGS:
        target = modules[mod]
        setattr(target, attr, tracer.wrap(name, getattr(target, attr), note))


def layer_metrics(spans, timeouts):
    """Reduce one traced pass to the per-layer figures (seconds, counts)."""
    selfs = self_times(spans)
    total = {}
    self_total = {}
    calls = {}
    notes = {}
    for (name, start, end, _, _, note), own in zip(spans, selfs):
        total[name] = total.get(name, 0) + end - start
        self_total[name] = self_total.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        notes.setdefault(name, []).append(note)

    def secs(name, table=total):
        return table.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    solves = notes.get("qzlinear.solve", [])
    feasible = [n for n in solves if isinstance(n, int)]
    tests = notes.get("cyclotomic.minvan", [])
    decides = [n for n in notes.get("multitile.decide", []) if isinstance(n, tuple)]
    steps = notes.get("multitile.torus", []) + notes.get("multitile.box", [])
    return {
        "qzlinear.solve_calls": len(solves),
        "qzlinear.solve_s": secs("qzlinear.solve"),
        "qzlinear.snf_s": secs("qzlinear.snf"),
        "qzlinear.apply_s": secs("qzlinear.solve", self_total),
        "qzlinear.feasible_ratio": ratio(len(feasible), len(solves)),
        "annihilator.decide_calls": calls.get("annihilator.decide", 0),
        "annihilator.decide_s": secs("annihilator.decide"),
        "annihilator.self_s": secs("annihilator.decide", self_total),
        "annihilator.candidate_space": sum(feasible),
        "annihilator.witness_s": secs("annihilator.witness"),
        "annihilator.witness_cells": sum(
            n for n in notes.get("annihilator.witness", []) if isinstance(n, int)),
        "annihilator.verify_s": secs("annihilator.verify"),
        "annihilator.timeouts": timeouts,
        "cyclotomic.exact_tests": len(tests),
        "cyclotomic.exact_pass_ratio": ratio(tests.count(1), len(tests)),
        "cyclotomic.minvan_s": secs("cyclotomic.minvan"),
        "groups.convolve_periodic_calls": calls.get("groups.convolve_periodic", 0),
        "groups.convolve_periodic_s": secs("groups.convolve_periodic"),
        "multitile.decide_s": secs("multitile.decide"),
        "multitile.nodes": sum(n for _, n in decides),
        "multitile.unknown": sum(1 for a, _ in decides if a == "UNKNOWN"),
        "multitile.verify_s": secs("multitile.verify"),
        "multitile.torus_s": secs("multitile.torus"),
        "multitile.box_s": secs("multitile.box"),
        "multitile.torus_steps": calls.get("multitile.torus", 0),
        "multitile.box_steps": calls.get("multitile.box", 0),
        "multitile.budget_overruns": steps.count("BudgetExceededError"),
        "multitile.deciding_step_ratio": ratio(steps.count(1), len(steps)),
        "structure.dilation_calls": calls.get("structure.dilation", 0),
        "structure.dilation_s": secs("structure.dilation"),
    }
