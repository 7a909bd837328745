"""Metric values of the benchmark, and the per-layer metrics of a traced run.

Shares are fractions of a traced unit's wall time: ``<layer>.share`` counts
the layer's whole span, ``<layer>.self_share`` only the part its child spans
do not cover.  Each is the median over traced units.  A layer that the
workload does not call in the benchmark process reads 0; the table says so.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from rff_lab.channel import ChannelScenario
from rff_lab.signal_model import Method
from spans import layer_stats

#: per-layer metrics in report order: (name, unit, better)
PER_LAYER = (
    ("experiments.run_trial.ms_p50", "ms", "lower"),
    ("experiments.run_trial.ms_tail", "ms", "lower"),
    ("experiments.run_trial.self_share", "fraction", "lower"),
    *(
        (f"experiments.trial_ms.{s.value}.{m.value}", "ms", "lower")
        for s in ChannelScenario
        for m in Method
    ),
    ("experiments.rng_streams_per_trial", "count", "lower"),
    ("experiments.samples_kept_share", "fraction", "higher"),
    ("experiments.pool.startup_s", "s", "lower"),
    ("experiments.pool.tail_idle_s", "s", "lower"),
    ("channel.sample_csi_block.share", "fraction", "lower"),
    ("channel.init_trial_channel.share", "fraction", "lower"),
    ("signal_model.extract_batch.share", "fraction", "lower"),
    ("signal_model.extract_batch.self_share", "fraction", "lower"),
    ("signal_model.draw_fingerprint.share", "fraction", "lower"),
    ("signal_model.normals_per_trial", "count", "lower"),
    ("silhouette.normalize_block.share", "fraction", "lower"),
    ("silhouette.normalize_block.calls_per_trial", "count", "lower"),
    ("silhouette.silhouette_from_normalized.share", "fraction", "lower"),
    ("classifier.fit.share", "fraction", "lower"),
    ("classifier.accuracy.share", "fraction", "lower"),
    ("analytic.expected_silhouette.ms_total", "ms", "lower"),
    ("gaussian_moments.mc_ratio_detail.share", "fraction", "lower"),
    ("gaussian_moments.mc_ratio_detail.ms_p50", "ms", "lower"),
    ("gaussian_moments.mc_ratio_detail.ms_tail", "ms", "lower"),
    ("gaussian_moments.normals_drawn", "count", "lower"),
    ("cli.cmd_validate_claims.self_share", "fraction", "lower"),
    ("cli.validate.out_of_tolerance", "count", "lower"),
    ("config.parse_config.ms", "ms", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
)

ABSENT = "not called in this process"


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    detail: str = ""


def tail_percentile(values) -> tuple[str, float]:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it.

    With fewer than 20 samples none qualifies, and the maximum is given.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            cuts = statistics.quantiles(ordered, n=1000, method="inclusive")
            return f"p{pct:g}", cuts[round(pct * 10) - 1]
    return "max", ordered[-1]


def timing(values, unit: str) -> Metric:
    """The median of ``values``, with the tail percentile in the detail."""
    if not values:
        return Metric(0.0, unit, 0, ABSENT)
    label, tail = tail_percentile(values)
    return Metric(statistics.median(values), unit, len(values), f"median; {label} {tail:.6g}")


def tail(values, unit: str) -> Metric:
    if not values:
        return Metric(0.0, unit, 0, ABSENT)
    label, value = tail_percentile(values)
    return Metric(value, unit, len(values), label)


def median_rate(samples, per_unit) -> Metric:
    """Median over units of ``per_unit(result)`` per scaled wall second.

    Units that raised are skipped.
    """
    rates = [per_unit(s.result) / (s.wall * s.scale) for s in samples if s.result is not None]
    return Metric(statistics.median(rates) if rates else 0.0, "1/s", len(rates), "median")


def computed(value: float, how: str = "computed from array shapes") -> Metric:
    return Metric(float(value), "count", 1, how)


def per_layer(workload, tracer, plain, traced, parse_ms) -> dict[str, Metric]:
    """Every metric of `PER_LAYER` from a traced run.

    ``plain`` and ``traced`` are the untraced and traced unit samples of the
    run, and ``parse_ms`` the timed ``parse_config`` calls.
    """
    stats = layer_stats(tracer.spans)
    walls = stats.unit_walls_ns
    result = next((s.result for s in reversed(traced) if s.result is not None), None)
    is_sweep = workload.name != "validate_claims"

    def share(layer: str, own: bool = False) -> Metric:
        per_unit = (stats.self_ns if own else stats.total_ns).get(layer)
        if not per_unit:
            return Metric(0.0, "fraction", 0, ABSENT)
        values = [t / w for t, w in zip(per_unit, walls)]
        return Metric(statistics.median(values), "fraction", len(values), "median over traced units")

    def calls_ms(layer: str) -> list[float]:
        return [d / 1e6 for d in stats.calls_ns.get(layer, [])]

    n_trials = len(stats.calls_ns.get("experiments.run_trial", []))
    out = {
        "experiments.run_trial.ms_p50": timing(calls_ms("experiments.run_trial"), "ms"),
        "experiments.run_trial.ms_tail": tail(calls_ms("experiments.run_trial"), "ms"),
        "experiments.run_trial.self_share": share("experiments.run_trial", own=True),
    }
    for name, unit, _ in PER_LAYER:
        if name.startswith("experiments.trial_ms."):
            tag = name.removeprefix("experiments.trial_ms.")
            out[name] = timing([d / 1e6 for d in stats.trial_ns.get(tag, [])], unit)

    out["experiments.rng_streams_per_trial"] = computed(
        1 + 3 * workload.config.n_devices if is_sweep else 0, "computed: 1 + 3 x devices"
    )
    if result is not None and result.records:
        kept = 1.0 - statistics.fmean(r.nonfinite_rate for r in result.records)
        out["experiments.samples_kept_share"] = Metric(kept, "fraction", len(result.records),
                                                       "mean over cells of equal size")
    else:
        out["experiments.samples_kept_share"] = Metric(0.0, "fraction", 0, "no sweep records")
    pools = tracer.pools
    out["experiments.pool.startup_s"] = timing([p.startup for p in pools], "s")
    out["experiments.pool.tail_idle_s"] = timing([p.end - p.tail_start for p in pools], "s")

    out["channel.sample_csi_block.share"] = share("channel.sample_csi_block")
    out["channel.init_trial_channel.share"] = share("channel.init_trial_channel")
    out["signal_model.extract_batch.share"] = share("signal_model.extract_batch")
    out["signal_model.extract_batch.self_share"] = share("signal_model.extract_batch", own=True)
    out["signal_model.draw_fingerprint.share"] = share("signal_model.draw_fingerprint")
    out["signal_model.normals_per_trial"] = computed(
        result.normals / result.trials if is_sweep and result is not None else 0
    )
    out["silhouette.normalize_block.share"] = share("silhouette.normalize_block")
    normalize_calls = len(stats.calls_ns.get("silhouette.normalize_block", []))
    out["silhouette.normalize_block.calls_per_trial"] = Metric(
        normalize_calls / n_trials if n_trials else 0.0, "count", n_trials,
        "calls / traced trials" if n_trials else ABSENT,
    )
    out["silhouette.silhouette_from_normalized.share"] = share(
        "silhouette.silhouette_from_normalized"
    )
    out["classifier.fit.share"] = share("classifier.fit")
    out["classifier.accuracy.share"] = share("classifier.accuracy")
    analytic = stats.total_ns.get("analytic.expected_silhouette", [])
    out["analytic.expected_silhouette.ms_total"] = (
        Metric(statistics.median(analytic) / 1e6, "ms", len(analytic), "median per unit")
        if analytic else Metric(0.0, "ms", 0, ABSENT)
    )

    out["gaussian_moments.mc_ratio_detail.share"] = share("gaussian_moments.mc_ratio_detail")
    out["gaussian_moments.mc_ratio_detail.ms_p50"] = timing(
        calls_ms("gaussian_moments.mc_ratio_detail"), "ms"
    )
    out["gaussian_moments.mc_ratio_detail.ms_tail"] = tail(
        calls_ms("gaussian_moments.mc_ratio_detail"), "ms"
    )
    out["gaussian_moments.normals_drawn"] = computed(
        result.normals if not is_sweep and result is not None else 0
    )
    out["cli.cmd_validate_claims.self_share"] = share("cli.cmd_validate_claims", own=True)
    out["cli.validate.out_of_tolerance"] = Metric(
        float(result.out_of_tolerance if result is not None else 0), "count", 1,
        "in-regime quantities out of tolerance" if not is_sweep else "no oracle in this workload",
    )
    out["config.parse_config.ms"] = timing(parse_ms, "ms")

    plain_walls = [s.wall for s in plain]
    traced_walls = [s.wall for s in traced]
    out["trace.overhead_share"] = Metric(
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "fraction",
        len(traced_walls), f"{len(plain_walls)} untraced units",
    )
    return {name: out[name] for name, _, _ in PER_LAYER}
