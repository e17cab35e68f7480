"""Spans around calls into the krrbounds modules, recorded from outside.

A ``Tracer`` replaces a public function on the module (or class) where its
caller looks it up with a wrapper that records one span per call: name,
start, end, parent span and pass id.  Nothing under ``src/`` changes; the
originals are put back when ``Tracer.installed()`` exits, also on error.
Spans stay in memory and are summarised after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import logging
import time
from dataclasses import dataclass, field

# (module, attribute, span name) of every call the per-layer metrics use.  A
# name imported with ``from x import y`` is patched in the importing module,
# because that is where its caller looks it up.
WRAP_POINTS = (
    ("krrbounds.cli", "load_config", "cli.load_config"),
    ("krrbounds.experiments", "run_cell", "experiments.run_cell"),
    ("krrbounds.experiments", "compare_with_theory", "experiments.compare_with_theory"),
    ("krrbounds.experiments", "write_records", "experiments.write_records"),
    ("krrbounds.experiments", "effective_dimension_exact", "effdim.effective_dimension_exact"),
    ("krrbounds.experiments", "polynomial_spectrum", "spectral.polynomial_spectrum"),
    ("krrbounds.krr", "gram_matrix", "krr.gram_matrix"),
    ("krrbounds.krr", "krr_fit", "krr.krr_fit"),
    ("krrbounds.krr", "empirical_effective_dimension_profile",
     "krr.empirical_effective_dimension_profile"),
    ("krrbounds.synth", "build_model", "synth.build_model"),
    ("krrbounds.synth", "make_target", "synth.make_target"),
    ("krrbounds.synth", "sample_dataset", "synth.sample_dataset"),
    ("krrbounds.synth", "exact_excess_risk", "synth.exact_excess_risk"),
    ("krrbounds.synth:SpectralKernelModel", "basis", "synth.basis"),
    ("krrbounds.effdim", "effective_dimension_exact", "effdim.effective_dimension_exact"),
    ("krrbounds.effdim", "find_wrong_inequality_threshold",
     "effdim.find_wrong_inequality_threshold"),
    ("krrbounds.effdim", "polynomial_spectrum", "spectral.polynomial_spectrum"),
    ("krrbounds.rates", "risk_bound", "rates.risk_bound"),
)


def resolve_owner(path: str):
    """'pkg.mod' -> module object; 'pkg.mod:Class' -> the class."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@dataclass
class Span:
    name: str
    pass_id: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    ell: int | None = None

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class _CountWarnings(logging.Handler):
    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.count("krr.jitter_retries")


@dataclass
class Tracer:
    """In-memory spans, counts and maxima.

    ``on_result`` maps a span name to ``hook(tracer, span, args, result)``,
    called after each successful call; ``reference`` is data hooks may read.
    """

    on_result: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    peaks: dict[str, float] = field(default_factory=dict)
    pass_id: int = 0
    _stack: list[int] = field(default_factory=list)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def wrap(self, original, name: str):
        hook = self.on_result.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.pass_id, self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration_s
            if hook is not None:
                hook(self, span, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block, then restore."""
        patched = []
        handler = _CountWarnings(self)
        krr_logger = logging.getLogger("krrbounds.krr")
        try:
            for path, attr, name in WRAP_POINTS:
                owner = resolve_owner(path)
                original = owner.__dict__[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            krr_logger.addHandler(handler)
            yield self
        finally:
            krr_logger.removeHandler(handler)
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
