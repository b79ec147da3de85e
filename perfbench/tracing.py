"""Per-layer tracing of rlatt from outside the package.

The tracer replaces a public function by a wrapper under its name in every
rlatt module that binds it (``spectral.build_hop_operator`` and
``operators.build_hop_operator`` are separate bindings of one function), and
puts the originals back on ``uninstall``.  Three kinds of wrapper:

- span: records (name, start, end, parent) in memory; self time is the
  span's duration minus its child spans and the timed calls inside it;
- timed: counts calls and adds up their time without a span record, for hot
  scalar functions called tens of thousands of times per operation;
- count: counts calls only, for the hottest functions.

Time spent in a timed or counted call, including the wrapper's own cost, is
charged to the timed call or span that encloses it.
"""

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, kind); "elliptic.ThetaEvaluator.bracket" is a method,
# patched on the class
TARGETS = (
    ("partitions", "add_strip", "count"),
    ("partitions", "enumerate_lattice", "count"),
    ("elliptic", "ThetaEvaluator.bracket", "count"),
    ("coeffs", "hop_coefficient", "timed"),
    ("coeffs", "pieri_coefficient", "count"),
    ("coeffs", "weight_vector", "span"),
    ("operators", "build_hop_operator", "span"),
    ("spectral", "joint_diagonalize", "span"),
    ("spectral", "label_spectrum", "span"),
    ("spectral", "continue_labels", "span"),
    ("spectral", "sweep_spectra", "span"),
    ("eigenpoly", "build_polynomials", "span"),
    ("eigenpoly", "pieri_residual", "span"),
    ("eigenpoly", "value_table", "span"),
    ("macdonald", "compare_trig", "span"),
    ("macdonald", "macdonald_coeffs", "count"),
    ("weightlattice", "crosscheck_hop_coefficients", "span"),
    ("report", "run_verification", "span"),
    ("cli", "main", "span"),
)


def _metric_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and call counts of one benchmark pass at a time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, timed_child_s]
        self.counts = Counter()
        self.timed_s = defaultdict(float)
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.timed_s = defaultdict(float)

    def install(self):
        modules = [mod for name, mod in sys.modules.items() if name == "rlatt" or name.startswith("rlatt.")]
        for module_name, attribute, kind in TARGETS:
            owner = sys.modules[f"rlatt.{module_name}"]
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            wrapper = getattr(self, "_" + kind)(_metric_name(module_name, attribute), original)
            binders = [owner] if isinstance(owner, type) else modules
            for binder in binders:
                if binder.__dict__.get(attribute) is original:
                    setattr(binder, attribute, wrapper)
                    self._undo.append((binder, attribute, original))

    def uninstall(self):
        for binder, attribute, original in reversed(self._undo):
            setattr(binder, attribute, original)
        self._undo = []

    def _span(self, name, fn):
        tracer, stack = self, self._stack

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter()
                stack.pop()
                tracer.counts[name] += 1

        return wrapper

    def _timed(self, name, fn):
        tracer, stack = self, self._stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.counts[name] += 1
                tracer.timed_s[name] += elapsed
                if stack:
                    tracer.spans[stack[-1]][4] += elapsed

        return wrapper

    def _count(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_seconds(self) -> dict:
        """Self time per span name, plus the total time of each timed function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float, self.timed_s)
        for (name, start, end, _, timed), inner in zip(self.spans, child):
            totals[name] += end - start - inner - timed
        return totals

    def count_children(self, name: str, parent_name: str) -> int:
        """Number of spans called name whose parent span is called parent_name."""
        return sum(
            1 for span in self.spans if span[0] == name and span[3] >= 0 and self.spans[span[3]][0] == parent_name
        )

    def span_records(self) -> list:
        return [[name, start, end, parent] for name, start, end, parent, _ in self.spans]
