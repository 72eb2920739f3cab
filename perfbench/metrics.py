"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; selfcheck.py
checks that the two agree.
"""

from __future__ import annotations

#: Printed with --trace 0: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("ref_err_ratio", "ratio", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def ms(name: str) -> tuple[str, str, str]:
    return (name, "ms", "lower")


def count(name: str) -> tuple[str, str, str]:
    return (name, "count", "lower")


def _per_layer():
    out = [
        ms("probability.validate_ms"),
        ms("probability.loads_ms"),
        ms("probability.product_ms"),
        ms("formal_group.check_group_axioms_ms"),
        ms("formal_group.check_phi4_symmetry_ms"),
    ]
    out += [ms(f"hf_entropy.eval_batch_ms.{f}")
            for f in ("shannon", "renyi", "tsallis", "sharma_mittal", "kaniadakis")]
    out += [(f"hf_entropy.bytes_per_s.{s}", "B/s", "higher") for s in ("small", "large", "sparse")]
    out += [
        ms("hf_entropy.sk_suite_ms"),
        ms("hf_entropy.build_ms"),
        count("hf_entropy.value_calls"),
        count("hf_entropy.gradient_calls"),
        ("hf_entropy.busy_s", "s", "lower"),
        ms("composition.group_compose_build_ms"),
        ms("composition.group_compose_eval_ms"),
        ms("composition.sm_pair_eval_ms"),
        ms("composition.zeta_compose_eval_ms"),
        ms("composition.concavity_probe_ms"),
    ]
    out += [ms(f"divergence.fn_ms.{d}") for d in ("kl", "sm", "power", "tsallis_rel", "composed")]
    out += [
        count("divergence.calls"),
        ("divergence.us_per_call", "us", "lower"),
        ("divergence.busy_frac", "ratio", "higher"),
    ]
    out += [ms(f"geometry.div_metric_ms.w{w}") for w in (2, 5, 12)]
    out += [ms(f"geometry.div_connections_ms.w{w}") for w in (2, 5, 8, 12)]
    out += [ms(f"geometry.duality_residual_ms.w{w}") for w in (5, 12)]
    out += [
        count("geometry.fn_calls_per_op.w12"),
        count("geometry.stencil_points_per_op.w12"),
        ("geometry.rows_per_fn_call", "count", "higher"),
        ("geometry.self_frac", "ratio", "lower"),
    ]
    out += [ms(f"maxent.solve_ms.w{w}") for w in (10, 50, 200)]
    out += [
        ms("maxent.fd_grad_solve_ms"),
        count("maxent.iterations"),
        count("maxent.value_evals_per_iter"),
        ("maxent.self_frac", "ratio", "lower"),
    ]
    out += [count(f"maxent.unconverged.w{w}") for w in (10, 50, 200)]
    out += [ms("cli.import_ms"), ms("cli.import_numpy_ms")]
    out += [ms(f"cli.execute_ms.{s}") for s in
            ("entropy", "divergence", "compose", "metric", "connection", "maxent", "verify")]
    out += [
        ms("cli.process_ms"),
        count("cli.connection.div_connections_calls"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
    return tuple(out)


#: Printed with --trace 1.  A metric whose layer the workload does not
#: exercise reads 0.
PER_LAYER = _per_layer()
