"""Reductions the benchmark applies to a run's raw samples (README.md)."""

import math
import statistics

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

# Median host-kernel seconds on the reference host state; end-to-end
# times are scaled to it (README.md, "Host speed").
HOST_KERNEL_REF_S = 0.090

SERVE_LAYERS = (
    "serve.session_p50_ms",
    "serve.session_p95_ms",
    "serve.encode_session_p50_ms",
    "serve.decode_session_p50_ms",
    "serve.gen_lag_p95_ms",
    "serve.slo_miss_frac",
)


def median(values):
    """Median of values; 0.0 for none (a run without samples failed)."""
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank p-quantile of values, or None unless at least
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(p * n))
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _required(values, p, what):
    value = percentile(values, p)
    if value is None:
        raise ValueError(f"{what}: {len(values)} samples leave fewer than "
                         f"{MIN_BEYOND} beyond p{p * 100:g}")
    return value


def serve_layers(doc, slo_ms):
    """Session latency percentiles and latency-limit misses of one run,
    all 0 when the workload ran no sessions.  Failed and shed sessions
    count as misses."""
    latency = doc["latency_ms"]
    done = latency.get("all", [])
    failed = doc["failed_sessions"]
    if not done and not failed:
        return dict.fromkeys(SERVE_LAYERS, 0.0)
    over = sum(1 for v in done if v > slo_ms)
    return {
        "serve.session_p50_ms": _required(done, 0.50, "session latency"),
        "serve.session_p95_ms": _required(done, 0.95, "session latency"),
        "serve.encode_session_p50_ms": _required(
            latency.get("encode", []), 0.50, "encode-session latency"),
        "serve.decode_session_p50_ms": _required(
            latency.get("decode", []), 0.50, "decode-session latency"),
        "serve.gen_lag_p95_ms": _required(
            latency.get("lag", []), 0.95, "generator lag"),
        "serve.slo_miss_frac": (over + failed) / (len(done) + failed),
    }


def host_scale(doc):
    """How many times slower than the reference the host ran during the
    run: the median host-kernel time over HOST_KERNEL_REF_S."""
    return median(doc["host_kernel_s"]) / HOST_KERNEL_REF_S


def end_to_end(doc):
    """The end-to-end metrics of one untraced run, its rates and set-up
    time scaled to the reference host speed."""
    samples = doc["samples"]
    scale = host_scale(doc)
    return {
        "encode_fps": median(samples.get("encode_fps", [])) * scale,
        "decode_fps": median(samples.get("decode_fps", [])) * scale,
        "peak_rss_mb": doc["peak_rss_mb"],
        "setup_s": median(doc["setup_s"]) / scale,
    }


def result(doc, trace, bench, slo_ms):
    """The run's result object: every metric BENCHMARK.json lists for
    the mode, by name with its unit, and the run's operation counts.
    Any failed operation - a wrong output, or one that failed or was
    shed before it had an output - makes the run incorrect."""
    if trace:
        values = dict(doc["layers"])
        values.update(serve_layers(doc, slo_ms))
        values["failed_frac"] = doc["failed"] / doc["attempted"]
        listed = bench["per_layer"]
    else:
        values = end_to_end(doc)
        listed = bench["end_to_end"]
    names = [m["name"] for m in listed]
    missing = [n for n in names if n not in values]
    unlisted = [n for n in values if n not in names]
    if missing or unlisted:
        raise ValueError(f"metrics out of step with BENCHMARK.json: "
                         f"missing {missing}, unlisted {unlisted}")
    bad = [n for n in names if not math.isfinite(values[n])]
    if bad:
        raise ValueError(f"non-finite metrics: {bad}")
    return {
        "correct": (doc["failed"] == 0 and not doc["mismatches"]
                    and not doc["errors"]),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
