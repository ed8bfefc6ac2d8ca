"""Span tracing from outside the program, for the per-layer metrics.

``Tracer.install`` replaces functions at the module attributes through
which the layers call each other (``braiddyn.automaton.mass_mul``,
``braiddyn.classify.to_normal_form``, ``NormalForm.to_word`` ...) with
wrappers that record a span per call: name, start, end, parent and op id.
Spans are only recorded while an op is open; outside one the wrappers
call straight through, so the benchmark's own correctness checks are not
traced.  At the end of each op its spans are folded into per-name totals
and dropped, which keeps memory bounded by the largest op.

A span's self time is its duration minus the durations of its direct
children.  When an op's spans nest (each child inside its parent, siblings
disjoint, nothing left open) the self times are all non-negative and add
up to the duration of the op's root span.  ``check_spans`` verifies the
nesting after every op, and an op whose spans do not nest counts as failed.
"""

from __future__ import annotations

import importlib
import logging
import time
from collections import Counter
from typing import Callable

REBUILD = "braidword.word_rebuild"
CLASSIFY = "classify.classify"


class Span:
    """One call: ``parent`` indexes the op's span list, -1 for the op root.

    ``outermost`` means no enclosing span has the same name, and
    ``in_classify`` that a classify span encloses this one.
    """

    __slots__ = ("name", "start", "end", "parent", "op", "outermost", "in_classify")

    def __init__(self, name, start, end, parent, op, outermost=True, in_classify=False):
        self.name, self.start, self.end, self.parent = name, start, end, parent
        self.op, self.outermost, self.in_classify = op, outermost, in_classify

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def check_spans(spans: list[Span]) -> list[str]:
    """Problems with an op's span tree; empty when the spans nest properly."""
    if not spans or spans[0].parent != -1:
        return ["the op has no root span"]
    problems = []
    last_end = {}  # parent index -> end of its latest child, in start order
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if i == 0:
            continue
        if not 0 <= s.parent < i:
            problems.append(f"span {i} {s.name} has parent {s.parent}")
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            problems.append(f"span {i} {s.name} lies outside its parent {p.name}")
        if s.start < last_end.get(s.parent, p.start):
            problems.append(f"span {i} {s.name} overlaps an earlier sibling")
        last_end[s.parent] = s.end
    if not problems and any(own < 0 for own in self_times(spans)):
        problems.append("a span has negative self time")
    return problems


class _CountHandler(logging.Handler):
    """Counts warnings logged while an op is open."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.count("anomaly_events")


class Tracer:
    def __init__(self):
        self.self_s: Counter = Counter()  # per span name
        self.incl_s: Counter = Counter()  # outermost spans only
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()  # counters fed by result hooks and ops
        self.coeff_bits_max = 0  # widest fusion coefficient in any path matrix
        self.rebuild_in_classify_s = 0.0
        self.ops = 0
        self.op_s = 0.0
        self.op_problems: list[str] = []  # check_spans of the latest op
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._handler = _CountHandler(self)

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self._op,
                 self._active[name] == 0, self._active[CLASSIFY] > 0)
        )
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        span = self._spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        self._active[span.name] -= 1

    def begin_op(self) -> None:
        self._op = self.ops
        self._enter("op")

    def end_op(self, words: int) -> float:
        """Close the op's root span, fold its spans into the totals, return its duration.

        ``op_problems`` then lists what is wrong with the op's span tree.
        """
        open_spans = [self._spans[i].name for i in self._stack[1:]]
        self._exit(self._stack[0])
        spans, self._spans, self._op = self._spans, [], None
        self._stack.clear()
        self._active.clear()
        self.op_problems = check_spans(spans)
        if open_spans:
            self.op_problems.append(f"spans left open: {open_spans}")
        selfs = self_times(spans)
        if any(span.name == CLASSIFY for span in spans):
            self.stats["classified_words"] += words
        for span, own in zip(spans, selfs):
            self.self_s[span.name] += own
            self.calls[span.name] += 1
            if span.outermost:
                self.incl_s[span.name] += span.duration
                if span.name == REBUILD and span.in_classify:
                    self.rebuild_in_classify_s += span.duration
        root = spans[0].duration
        self.ops += 1
        self.op_s += root
        return root

    def count(self, key: str, value: int = 1) -> None:
        if self._op is not None:
            self.stats[key] += value

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             on_result: Callable[[tuple, object], None] | None = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return original(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the layer boundaries of ``braiddyn`` (see README.md for the map)."""
        mod = {m: importlib.import_module(f"braiddyn.{m}")
               for m in ("automaton", "braidword", "classify", "cli")}
        am, bw, cl, cli = mod["automaton"], mod["braidword"], mod["classify"], mod["cli"]

        def on_path_matrix(args, matrix):
            self.count("path_arrows", len(args[1].arrows))
            for row in matrix:
                for entry in row:
                    self.count("matrix_terms", len(entry.terms))
                    for _, vec in entry.terms:
                        bits = max(c.bit_length() for c in vec.coeffs)
                        self.coeff_bits_max = max(self.coeff_bits_max, bits)

        def on_simulate(args, path):
            self.count("simulate_hits", path is not None)

        def on_normal_form(args, nf):
            self.count("nf_blocks", len(nf.blocks))
            self.count("nf_length", nf.length())

        def on_classify(args, res):
            self.count("rounds", res.rounds)

        # automaton -> fusion
        self.wrap(am, "mass_mul", "fusion.mass_mul")
        self.wrap(am, "eval_mass", "fusion.eval_mass")
        self.wrap(cli, "eval_mass", "fusion.eval_mass")
        # classify -> automaton, and automaton's own entry points (build is timed in setup)
        self.wrap(am, "simulate", "automaton.simulate", on_simulate)
        self.wrap(am, "recognizes_word", "automaton.recognizes_word")
        self.wrap(am, "recognize", "automaton.recognize")
        self.wrap(am, "path_matrix", "automaton.path_matrix", on_path_matrix)
        self.wrap(am, "zero_pattern", "automaton.zero_pattern")
        self.wrap(am, "pf_eigenvalue", "automaton.pf_eigenvalue")
        # callers -> braidword
        self.wrap(bw, "parse_word", "braidword.parse_word")
        self.wrap(cli, "parse_word", "braidword.parse_word")
        self.wrap(cli, "burau", "braidword.burau")
        self.wrap(cl, "to_normal_form", "braidword.to_normal_form", on_normal_form)
        self.wrap(bw.NormalForm, "to_word", REBUILD)
        self.wrap(bw.BraidWord, "inverse", REBUILD)
        self.wrap(bw.BraidWord, "__mul__", REBUILD)
        # classify -> twistcalc
        self.wrap(cl, "letter_support", "twistcalc.letter_support")
        self.wrap(cl, "gamma_on_unit", "twistcalc.gamma_on_unit")
        self.wrap(cl, "support_mass", "twistcalc.support_mass")
        # callers -> classify
        self.wrap(cl, "classify", CLASSIFY, on_classify)
        self.wrap(cli, "classify", CLASSIFY, on_classify)
        self.wrap(cli, "estimate_growth", "classify.estimate_growth")
        # bench -> cli
        self.wrap(cli, "main", "cli.main")
        logging.getLogger("braiddyn.classify").addHandler(self._handler)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        logging.getLogger("braiddyn.classify").removeHandler(self._handler)
