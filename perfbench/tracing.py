"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: each public function listed
in LAYER_PATCHES is replaced, for the duration of one in-process command,
at the module attribute where its caller looks it up. A span holds its
name, start, end, parent span and operation id (one CLI command is one
operation), plus any counts read from the call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tree_shape(tree) -> dict:
    nodes, depth, stack = 0, 0, [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        if not node.is_leaf:
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
    return {"tree_nodes": nodes, "tree_depth": depth}


def _archive_counts(archive) -> dict:
    return {"evals": len(archive.points), "violations": len(archive.violations)}


# Counts read at a span boundary: (positional args, result) -> dict.
_COUNTS = {
    "sim.simulate": lambda args, result: {"steps": len(result.steps)},
    "search.driver": lambda args, result: _archive_counts(result),
    "explain.tree": lambda args, result: _tree_shape(result),
    "explain.rules": lambda args, result: {"rules": len(result)},
    "fileio.write": lambda args, result: {
        "bytes": len(args[1].encode("utf-8"))},
}

# (module, attribute, span name). The module is the caller's, so the patch
# catches exactly the calls made through that name.
LAYER_PATCHES = (
    ("riskbench.cli", "parse_risk_model", "riskml.parse"),
    ("riskbench.cli", "validate", "riskml.validate"),
    ("riskbench.cli", "annotate_likelihoods", "riskml.annotate"),
    ("riskbench.cli", "serialize_model", "riskml.annotate"),
    ("riskbench.cli", "bind_assignment", "sim.bind"),
    ("riskbench.cli", "simulate", "sim.simulate"),
    ("riskbench.cli", "evaluate_events", "sim.events"),
    ("riskbench.cli", "trace_to_csv", "sim.trace_csv"),
    ("riskbench.search.campaign", "bind_assignment", "sim.bind"),
    ("riskbench.search.campaign", "simulate", "sim.simulate"),
    ("riskbench.search.campaign", "evaluate_events", "sim.events"),
    ("riskbench.cli", "run_campaign", "search.campaign"),
    ("riskbench.search.campaign", "run_search", "search.driver"),
    ("riskbench.cli", "archive_to_csv", "search.archive_write"),
    ("riskbench.cli", "parse_archive_csv", "search.archive_parse"),
    ("riskbench.cli", "dataset_from_rows", "explain.dataset"),
    ("riskbench.cli", "induce_tree", "explain.tree"),
    ("riskbench.cli", "extract_rules", "explain.rules"),
    ("riskbench.cli", "generate_counterexamples", "explain.counterexamples"),
    ("riskbench.cli", "estimate_event_likelihood", "explain.likelihood"),
    ("riskbench.cli", "atomic_write_text", "fileio.write"),
    ("riskbench.cli", "sha256_text", "fileio.sha256"),
)

# The campaign's evaluator is a closure made per campaign; its factory is
# patched so that each evaluation becomes a span the driver's self time
# can exclude.
EVALUATOR_FACTORY = ("riskbench.search.campaign", "campaign_evaluator")


class Recorder:
    """Collects one repetition's spans in memory; parents are indices into
    `spans`. Nothing is written until the run ends."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
            if count:
                self.spans[index] = Span(name, start, end, parent, self.op,
                                         count(args, result))
            return result

        return traced

    @contextmanager
    def operation(self, name: str):
        """Root span of one CLI command; layer spans nest under it."""
        self.op += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, None, self.op)


@contextmanager
def patched(recorder: Recorder):
    """Install the layer wrappers; restore the originals on exit.

    Yields the patch targets the program no longer has, so a refactor that
    moves a function shows in the report instead of silently zeroing its
    layer.
    """
    targets = [(module, attr, lambda fn, name=name: recorder.wrap(name, fn))
               for module, attr, name in LAYER_PATCHES]
    targets.append((*EVALUATOR_FACTORY,
                    lambda fn: _evaluator_factory(recorder, fn)))
    saved, missing = [], []
    for module_name, attr, wrap in targets:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, wrap(original))
    try:
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _evaluator_factory(recorder: Recorder, factory):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return recorder.wrap("search.evaluate", factory(*args, **kwargs))
    return make


def span_self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another (the program is single
    threaded), so the covered time is the sum of their durations.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def self_times(spans) -> dict:
    """Self time per span name."""
    totals: dict = {}
    for span, own in zip(spans, span_self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one repetition's spans (same-named spans sum)."""
    total: dict = {}
    counts: dict = {}
    calls: dict = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in (span.counts or {}).items():
            counts[key] = counts.get(key, 0) + value
    own = span_self_times(spans)
    roots = [i for i, span in enumerate(spans) if span.parent is None]
    root_time = sum(spans[i].duration for i in roots)
    root_self = sum(own[i] for i in roots)
    driver_self = sum(o for span, o in zip(spans, own)
                      if span.name == "search.driver")

    def t(name):
        return total.get(name, 0.0)

    steps = counts.get("steps", 0)
    evals = counts.get("evals", 0)
    return {
        "riskml.parse_s": t("riskml.parse"),
        "riskml.validate_s": t("riskml.validate"),
        "riskml.annotate_s": t("riskml.annotate"),
        "sim.bind_s": t("sim.bind"),
        "sim.simulate_s": t("sim.simulate"),
        "sim.episodes": calls.get("sim.simulate", 0),
        "sim.steps": steps,
        "sim.us_per_step": t("sim.simulate") / steps * 1e6 if steps else 0.0,
        "sim.events_s": t("sim.events"),
        "sim.trace_csv_s": t("sim.trace_csv"),
        "search.driver_self_s": driver_self,
        "search.evals": evals,
        "search.violations": counts.get("violations", 0),
        "search.violation_ratio":
            counts.get("violations", 0) / evals if evals else 0.0,
        "search.archive_write_s": t("search.archive_write"),
        "search.archive_parse_s": t("search.archive_parse"),
        "explain.dataset_s": t("explain.dataset"),
        "explain.tree_s": t("explain.tree"),
        "explain.rules_s": t("explain.rules"),
        "explain.counterexamples_s": t("explain.counterexamples"),
        "explain.likelihood_s": t("explain.likelihood"),
        "explain.tree_nodes": counts.get("tree_nodes", 0),
        "explain.tree_depth": counts.get("tree_depth", 0),
        "explain.rules": counts.get("rules", 0),
        "fileio.write_s": t("fileio.write"),
        "fileio.bytes_written": counts.get("bytes", 0),
        "fileio.sha256_s": t("fileio.sha256"),
        "trace.unaccounted_frac": root_self / root_time if root_time else 0.0,
    }
