"""Metric catalogue and the per-layer summary of a traced run.

BENCHMARK.json lists the same names; the benchmark's tests keep the two in
step.  Per-layer timings are per pass (``.total``: summed over one pass and
averaged over passes) or per call (``.p50``/``.p90``, optionally for one ell).
Counts are per pass.  ``*_computed`` counts are computed from array shapes
and ignore cache misses.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (span, stat, ell): stat is "total", "p50" or "p90"; ell filters calls by size
_TIMINGS = (
    ("experiments.run_cell", "p50", None),
    ("experiments.run_cell", "p90", None),
    ("experiments.write_records", "total", None),
    ("synth.sample_dataset", "total", None),
    ("synth.exact_excess_risk", "total", None),
    ("krr.gram_matrix", "total", None),
    ("krr.gram_matrix", "p50", 64),
    ("krr.gram_matrix", "p50", 256),
    ("krr.gram_matrix", "p50", 2048),
    ("krr.krr_fit", "total", None),
    ("krr.krr_fit", "p50", None),
    ("krr.krr_fit", "p90", None),
    ("krr.krr_fit", "p50", 64),
    ("krr.krr_fit", "p50", 128),
    ("krr.krr_fit", "p90", 128),
    ("krr.krr_fit", "p50", 256),
    ("krr.krr_fit", "p50", 2048),
    ("krr.krr_fit", "p90", 2048),
    ("krr.empirical_effective_dimension_profile", "total", None),
    ("effdim.effective_dimension_exact", "p50", None),
    ("effdim.effective_dimension_exact", "p90", None),
    ("effdim.effective_dimension_exact", "total", None),
    ("effdim.find_wrong_inequality_threshold", "total", None),
    ("spectral.polynomial_spectrum", "total", None),
    ("cli.load_config", "total", None),
)


def _timing_name(span: str, stat: str, ell: int | None) -> str:
    return f"{span}_ms" + (f".ell{ell}" if ell else "") + f".{stat}"


# metrics measured in both the inherited-thread and the one-thread pass
TIMED_LAYER = (
    [(_timing_name(*t), "ms") for t in _TIMINGS]
    + [("experiments.run_cell_self_ms.total", "ms"),
       ("rates.risk_bound_us.p50", "us"),
       ("cli.import_ms", "ms")]
)

# counts and values that do not depend on the thread setting
COUNTED_LAYER = (
    ("synth.basis_rows", "count"),
    ("krr.gram_bytes_computed", "bytes"),
    ("krr.solve_flops_computed", "flop"),
    ("krr.eig_flops_computed", "flop"),
    ("krr.jitter_retries", "count"),
    ("experiments.records_bytes", "bytes"),
    ("experiments.fit_slope", "1"),
    ("effdim.terms_summed", "count"),
    ("effdim.enclosure_width_max", "1"),
    ("effdim.enclosure_misses", "count"),
    ("trace.krr_synth_share_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

BLAS1_SUFFIX = ".blas1"


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run prints."""
    rows = [(name, unit, "lower") for name, unit in TIMED_LAYER]
    rows += [(name + BLAS1_SUFFIX, unit, "lower") for name, unit in TIMED_LAYER]
    rows += [(name, unit, "lower") for name, unit in COUNTED_LAYER]
    return rows


# ----------------------------------------------------------------------------- hooks

def _basis(tracer, span, args, result):
    tracer.count("synth.basis_rows", result.shape[0])


def _gram(tracer, span, args, result):
    n = result.shape[0]
    span.ell = n
    tracer.count("krr.gram_bytes_computed", 8 * n * n)


def _fit(tracer, span, args, result):
    n = result.shape[0]
    span.ell = n
    # Cholesky n^3/3, two triangular solves and the residual product 4 n^2
    tracer.count("krr.solve_flops_computed", n**3 / 3 + 4 * n**2)


def _eig(tracer, span, args, result):
    n = args[0].shape[0]
    tracer.count("krr.eig_flops_computed", 4 * n**3 / 3)  # symmetric eigenvalues only


def _effdim(tracer, span, args, result):
    import oracle

    tracer.count("effdim.terms_summed", result.terms_summed)
    tracer.peak("effdim.enclosure_width_max", result.truncation_error_bound)
    spectrum, lam = args[0], args[1]
    if spectrum.decay_model is not None:
        beta, b = spectrum.decay_model
        ref = tracer.reference.get((beta, b, float(lam)))
        if ref is not None and oracle.outside_enclosure(ref, result.value, result.truncation_error_bound):
            tracer.count("effdim.enclosure_misses")


def _records(tracer, span, args, result):
    tracer.count("experiments.records_bytes", os.path.getsize(args[1]))


def _comparison(tracer, span, args, result):
    tracer.count("experiments.fit_slope", result.fit.slope)


HOOKS = {
    "synth.basis": _basis,
    "krr.gram_matrix": _gram,
    "krr.krr_fit": _fit,
    "krr.empirical_effective_dimension_profile": _eig,
    "effdim.effective_dimension_exact": _effdim,
    "experiments.write_records": _records,
    "experiments.compare_with_theory": _comparison,
}

# stages whose totals should account for a sweep's wall time
_STAGES = (
    "krr.gram_matrix", "krr.krr_fit", "krr.empirical_effective_dimension_profile",
    "synth.build_model", "synth.make_target", "synth.sample_dataset", "synth.exact_excess_risk",
)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, passes: int, pass_seconds: list, import_ms: float) -> dict[str, float]:
    """Per-layer values of one traced child, keyed by metric name."""
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def ms(name, ell=None):
        return [s.duration_s * 1e3 for s in by_name.get(name, ()) if ell is None or s.ell == ell]

    out = {}
    for span, stat, ell in _TIMINGS:
        values = ms(span, ell)
        out[_timing_name(span, stat, ell)] = (
            sum(values) / passes if stat == "total" else percentile(values, float(stat[1:]))
        )
    cells = by_name.get("experiments.run_cell", ())
    out["experiments.run_cell_self_ms.total"] = sum(s.self_s for s in cells) * 1e3 / passes
    out["rates.risk_bound_us.p50"] = percentile(ms("rates.risk_bound"), 50) * 1e3
    out["cli.import_ms"] = import_ms
    for name, _ in COUNTED_LAYER:
        out[name] = tracer.counts.get(name, 0) / passes
    out["effdim.enclosure_width_max"] = tracer.peaks.get("effdim.enclosure_width_max", 0.0)
    stage_ms = sum(sum(ms(name)) for name in _STAGES) / passes
    out["trace.krr_synth_share_frac"] = stage_ms / (statistics.fmean(pass_seconds) * 1e3)
    return out
