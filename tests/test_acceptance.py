"""End-to-end acceptance battery.

Every test here checks one headline guarantee of the package at full
sampling scale and prints a single PASS/FAIL line with the measured
figure, so a verbose pytest run doubles as a checklist.  All randomness
is seeded; the quoted tolerances are asserted, not aspirational.
"""

import itertools
import time

import numpy as np

from entrogeo import (
    ConnCoeffs,
    ConstraintSet,
    alpha_connection,
    builtin_functional,
    check_group_axioms,
    check_phi4_symmetry,
    closed_geometry,
    combine_geometry,
    composability_residual,
    concavity_probe,
    div_connections,
    div_metric,
    duality_residual,
    entropy_functional,
    expm1_conjugator,
    group_compose,
    hf_alpha_of,
    hf_div_functional,
    identity_conjugator,
    kaniadakis,
    kl_functional,
    kl_pair,
    linear_composer,
    maximize,
    polynomial_composer,
    power_pair,
    product,
    q_sum,
    renyi,
    scale_conjugator,
    sharma_mittal,
    simplex_model,
    sk_suite,
    sm_div_functional,
    sm_divergence_pair,
    sm_pair_entropy,
    sm_tsallis_entropy,
    tsallis,
    uniform,
    validate,
    zeta_compose_div,
)

GIBBS_A = [[0.0, 1.0, 2.0]]
GIBBS_TARGET = 1.2
# Root of the moment equation for the exponential tilt on {0, 1, 2},
# frozen from a 50-digit scalar solve.
GIBBS_WEIGHTS = [0.2383714066067965, 0.32325718678640697, 0.4383714066067965]


def _report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _interior_points(rng, w: int, count: int, floor_frac: float = 0.5):
    """Seeded simplex parameters staying `floor_frac` of uniform from faces."""
    floor = floor_frac / (w + 1)
    out = []
    while len(out) < count:
        x = rng.dirichlet(8.0 * np.ones(w + 1))
        if x.min() >= floor:
            out.append(x[1:].copy())
    return out


def test_deformed_addition_passes_group_axioms(capsys):
    t0 = time.perf_counter()
    worst_axiom = 0.0
    for q in (0.0, 0.5, 1.0, 2.0):
        rep = check_group_axioms(q_sum(q), samples=10_000, seed=31)
        worst_axiom = max(
            worst_axiom,
            rep.commutativity_residual,
            rep.associativity_residual,
            rep.identity_residual,
        )
    worst_phi4 = max(
        check_phi4_symmetry(q_sum(q), samples=1_000, seed=32) for q in (0.0, 0.5, 1.0, 2.0)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_axiom <= 1e-10 and worst_phi4 <= 1e-9 and elapsed < 1.0
    _report(
        capsys,
        "group axioms q in {0,0.5,1,2}",
        ok,
        f"axiom residual {worst_axiom:.2e} (<=1e-10), "
        f"4-arg symmetry {worst_phi4:.2e} (<=1e-9), {elapsed:.2f}s (<1s)",
    )


def test_every_builtin_entropy_passes_the_axiom_battery(capsys):
    specs = [("shannon", {})]
    specs += [("renyi", {"alpha": a}) for a in (0.5, 2.0, 3.0)]
    specs += [("tsallis", {"q": q}) for q in (0.5, 2.0, 3.0)]
    specs += [
        ("sharma_mittal", {"alpha": a, "beta": b})
        for a, b in ((0.5, 0.7), (0.3, 0.5), (2.0, 3.0))
    ]
    specs += [("kaniadakis", {"kappa": k}) for k in (0.3, 0.5, 0.9)]
    t0 = time.perf_counter()
    failures = []
    for family, params in specs:
        rep = sk_suite(builtin_functional(family, **params), w_max=6, samples=1_000, seed=77)
        if not rep.passed:
            failures.append(rep.entropy)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report(
        capsys,
        "strict-uniform-maximality/expansibility/non-negativity",
        ok,
        f"{len(specs) - len(failures)}/{len(specs)} functionals at tol 1e-10, "
        f"{elapsed:.2f}s (<5s){'; failed: ' + ', '.join(failures) if failures else ''}",
    )


def test_composability_holds_exactly_where_claimed_and_fails_elsewhere(capsys):
    rng = np.random.default_rng(55)
    matched = (
        (tsallis(1.5), q_sum(1.5)),
        (sharma_mittal(0.5, 0.7), q_sum(0.7)),
        (renyi(2.0), q_sum(1.0)),
    )
    worst = 0.0
    for pair, law in matched:
        for _ in range(1_000):
            p = validate(rng.dirichlet(np.ones(3)))
            qd = validate(rng.dirichlet(np.ones(4)))
            worst = max(worst, composability_residual(pair, law, p, qd))

    # the kappa-deformed family must visibly fail against every deformed sum
    kan = kaniadakis(0.4)
    fixed_p = validate([0.2, 0.8])
    fixed_q = validate([0.3, 0.7])
    unfalsified = []
    for qv in (0.0, 0.5, 1.0, 1.5, 2.0):
        law = q_sum(qv)
        best = composability_residual(kan, law, fixed_p, fixed_q)
        for _ in range(50):
            p = validate(rng.dirichlet(np.ones(2)))
            qd = validate(rng.dirichlet(np.ones(2)))
            best = max(best, composability_residual(kan, law, p, qd))
        if best <= 1e-3:
            unfalsified.append(qv)

    ok = worst <= 1e-10 and not unfalsified
    _report(
        capsys,
        "product composability",
        ok,
        f"matched-law residual {worst:.2e} (<=1e-10) over 3x1000 pairs; "
        f"kappa=0.4 exceeds 1e-3 against "
        f"{5 - len(unfalsified)}/5 deformed sums"
        + (f" (missed q={unfalsified})" if unfalsified else ""),
    )


def test_composition_engine_transports_the_law(capsys):
    alphas = (0.3, 0.5, 0.7, 0.8)
    conjugators = (identity_conjugator(), scale_conjugator(2.0), expm1_conjugator())
    rng = np.random.default_rng(203)
    worst = 0.0
    for m in (0, 1, 2):
        parts = [
            builtin_functional("sharma_mittal", alpha=a, beta=0.9)
            for a in alphas[: 2**m]
        ]
        for conj in conjugators:
            composed, omega = group_compose(parts, conj, m=m)
            # two-outcome pairs: the exponential rescaling amplifies absolute
            # error with the size of the composed value, so keep values small
            for _ in range(30):
                p = validate(rng.dirichlet(np.ones(2)))
                qd = validate(rng.dirichlet(np.ones(2)))
                gap = abs(
                    composed.eval(product(p, qd))
                    - float(omega(composed.eval(p), composed.eval(qd)))
                )
                worst = max(worst, gap)
    ok = worst <= 1e-9
    _report(
        capsys,
        "composition engine product rule",
        ok,
        f"residual {worst:.2e} (<=1e-9) over m in {{0,1,2}} x 3 rescalings x 30 pairs",
    )


def test_closed_forms_match_the_composition_engine(capsys):
    two_family, _ = group_compose(
        [
            builtin_functional("sharma_mittal", alpha=0.3, beta=0.5),
            builtin_functional("sharma_mittal", alpha=0.7, beta=0.5),
        ],
        identity_conjugator(),
        m=1,
    )
    tsallis_mix, _ = group_compose(
        [
            builtin_functional("tsallis", q=0.7),
            builtin_functional("sharma_mittal", alpha=0.3, beta=0.7),
        ],
        identity_conjugator(),
        m=1,
    )
    rng = np.random.default_rng(88)
    worst = 0.0
    for w in (2, 3, 4, 5, 6):
        batch = rng.dirichlet(np.ones(w), size=200)
        worst = max(
            worst,
            float(np.max(np.abs(
                two_family.eval_batch(batch) - sm_pair_entropy(0.3, 0.7, 0.5).fn(batch)
            ))),
            float(np.max(np.abs(
                tsallis_mix.eval_batch(batch) - sm_tsallis_entropy(0.3, 0.7).fn(batch)
            ))),
        )
    ok = worst <= 1e-12
    _report(
        capsys,
        "closed forms vs engine",
        ok,
        f"gap {worst:.2e} (<=1e-12) on 1000 distributions, W in 2..6",
    )


def test_composed_entropies_stay_concave(capsys):
    t0 = time.perf_counter()
    min_margin = np.inf
    for a1, a2, b in itertools.product((0.3, 0.7), repeat=3):
        rep = concavity_probe(sm_pair_entropy(a1, a2, b), samples=10_000, seed=13)
        min_margin = min(min_margin, rep.min_margin)
        assert rep.passed, f"two-family probe failed at {(a1, a2, b)}"
    for a, qv in itertools.product((0.3, 0.7), repeat=2):
        rep = concavity_probe(sm_tsallis_entropy(a, qv), samples=10_000, seed=13)
        min_margin = min(min_margin, rep.min_margin)
        assert rep.passed, f"tsallis-mix probe failed at {(a, qv)}"
    elapsed = time.perf_counter() - t0
    ok = min_margin >= -1e-9 and elapsed < 10.0
    _report(
        capsys,
        "concavity of composed entropies",
        ok,
        f"12 probes x 10^4 triples, min margin {min_margin:.2e} (>=-1e-9), "
        f"{elapsed:.2f}s (<10s)",
    )


def _metric_cases():
    return (
        ("kl", kl_functional(), kl_pair()),
        ("power2", hf_div_functional(power_pair(2.0)), power_pair(2.0)),
        ("sm(0.5,0.7)", sm_div_functional(0.5, 0.7), sm_divergence_pair(0.5, 0.7)),
    )


def test_divergence_metric_matches_closed_form(capsys):
    rng = np.random.default_rng(61)
    t0 = time.perf_counter()
    worst = 0.0
    for w in (1, 2, 3, 4, 5):
        model = simplex_model(w)
        pts = _interior_points(rng, w, count=20, floor_frac=0.04 * (w + 1))
        for xi in pts:
            for _, func, pair in _metric_cases():
                got = div_metric(func, model, xi).entries
                want = closed_geometry(pair, xi)[0].entries
                worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    _report(
        capsys,
        "metric closed form",
        ok,
        f"relative error {worst:.2e} (<=1e-5) at 20 points per W in 1..5, "
        f"{elapsed:.2f}s (<5s)",
    )


def test_divergence_connections_sit_in_the_alpha_family(capsys):
    assert hf_alpha_of(kl_pair()) == 1.0
    rng = np.random.default_rng(982)
    t0 = time.perf_counter()
    worst = 0.0
    for _, func, pair in _metric_cases():
        a = hf_alpha_of(pair)
        c = float(pair.h_prime(pair.f1)) * pair.d2f1
        for w in (1, 2, 3):
            model = simplex_model(w)
            for xi in _interior_points(rng, w, count=3):
                gamma, gamma_star = div_connections(func, model, xi)
                want = c * alpha_connection(model, xi, -a).entries
                want_star = c * alpha_connection(model, xi, +a).entries
                worst = max(
                    worst,
                    float(np.max(np.abs(gamma.entries - want)))
                    / (1.0 + float(np.max(np.abs(want)))),
                    float(np.max(np.abs(gamma_star.entries - want_star)))
                    / (1.0 + float(np.max(np.abs(want_star)))),
                )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(
        capsys,
        "connections vs alpha family",
        ok,
        f"scaled error {worst:.2e} (<=1e-4), kl exponent 1.0 exact, "
        f"{elapsed:.2f}s (<10s)",
    )


def _extrapolated_connections(func, model, which: int):
    """Connection field with the leading step-size bias removed."""
    def field(y):
        fine = np.asarray(div_connections(func, model, y, step=4e-4)[which].entries)
        coarse = np.asarray(div_connections(func, model, y, step=8e-4)[which].entries)
        return ConnCoeffs((4.0 * fine - coarse) / 3.0)
    return field


def test_metric_derivative_splits_into_dual_connections(capsys):
    rng = np.random.default_rng(982)
    worst = 0.0
    n_points = 0
    for w, count in ((1, 3), (2, 3), (3, 4)):
        model = simplex_model(w)
        for xi in _interior_points(rng, w, count):
            n_points += 1
            for _, func, _pair in _metric_cases():
                residual = duality_residual(
                    lambda y: div_metric(func, model, y),
                    _extrapolated_connections(func, model, 0),
                    _extrapolated_connections(func, model, 1),
                    model,
                    xi,
                )
                worst = max(worst, residual)
    ok = worst <= 5e-4
    _report(
        capsys,
        "metric/connection duality",
        ok,
        f"residual {worst:.2e} (<=5e-4) at {n_points} interior points, W in 1..3",
    )


def test_composed_divergence_geometry_is_the_weighted_combination(capsys):
    kl = kl_functional()
    p2 = hf_div_functional(power_pair(2.0))
    composed = (
        zeta_compose_div([kl, p2], linear_composer([0.6, 0.4])),
        zeta_compose_div(
            [kl, p2],
            polynomial_composer(
                [(0.6, (1, 0)), (0.4, (0, 1)), (0.2, (2, 0)), (0.1, (1, 1))],
                arity=2,
            ),
        ),
    )
    conn_step = 1.25e-4  # same step on both sides so only the mixing error remains
    rng = np.random.default_rng(41)
    worst_metric = 0.0
    worst_conn = 0.0
    for w in (1, 2):
        model = simplex_model(w)
        for xi in _interior_points(rng, w, count=2):
            part_metrics = [div_metric(f, model, xi) for f in (kl, p2)]
            part_conns = [div_connections(f, model, xi, step=conn_step) for f in (kl, p2)]
            for comp in composed:
                want_g, want_c, want_cs = combine_geometry(
                    comp.grad0,
                    part_metrics,
                    [c[0] for c in part_conns],
                    [c[1] for c in part_conns],
                )
                got_g = div_metric(comp, model, xi)
                got_c, got_cs = div_connections(comp, model, xi, step=conn_step)
                worst_metric = max(
                    worst_metric,
                    float(np.max(np.abs(got_g.entries - want_g.entries))),
                )
                worst_conn = max(
                    worst_conn,
                    float(np.max(np.abs(got_c.entries - want_c.entries))),
                    float(np.max(np.abs(got_cs.entries - want_cs.entries))),
                )
    ok = worst_metric <= 1e-5 and worst_conn <= 1e-4
    _report(
        capsys,
        "composed-divergence geometry",
        ok,
        f"metric gap {worst_metric:.2e} (<=1e-5), "
        f"connection gap {worst_conn:.2e} (<=1e-4), linear and quadratic mixing",
    )


def test_entropy_maximization_recovers_known_solutions(capsys):
    t0 = time.perf_counter()
    flat = maximize(builtin_functional("shannon"), size=4)
    uniform_gap = float(np.max(np.abs(flat.dist.weights - uniform(4).weights)))
    tilted = maximize(
        builtin_functional("shannon"),
        size=3,
        constraints=ConstraintSet(GIBBS_A, [GIBBS_TARGET]),
    )
    gibbs_gap = float(np.max(np.abs(tilted.dist.weights - np.asarray(GIBBS_WEIGHTS))))
    elapsed = time.perf_counter() - t0
    ok = uniform_gap <= 1e-6 and gibbs_gap <= 1e-6 and elapsed < 1.0
    _report(
        capsys,
        "entropy maximization",
        ok,
        f"uniform gap {uniform_gap:.2e}, tilted gap {gibbs_gap:.2e} "
        f"(both <=1e-6), {elapsed:.2f}s (<1s)",
    )


def test_parameter_limits_recover_neighbouring_families(capsys):
    rng = np.random.default_rng(19)
    worst_near_one = 0.0
    worst_diagonal = 0.0
    for _ in range(100):
        w = int(rng.integers(2, 7))
        p = validate(rng.dirichlet(np.ones(w)))
        for a in (0.5, 2.0):
            anchor = entropy_functional(renyi(a)).eval(p)
            for b in (1.0 - 1e-6, 1.0 + 1e-6):
                worst_near_one = max(
                    worst_near_one, abs(entropy_functional(sharma_mittal(a, b)).eval(p) - anchor)
                )
            worst_diagonal = max(
                worst_diagonal,
                abs(
                    entropy_functional(sharma_mittal(a, a)).eval(p)
                    - entropy_functional(tsallis(a)).eval(p)
                ),
            )
    ok = worst_near_one <= 1e-4 and worst_diagonal <= 1e-10
    _report(
        capsys,
        "family limits",
        ok,
        f"second-exponent->1 gap {worst_near_one:.2e} (<=1e-4), "
        f"diagonal-vs-tsallis gap {worst_diagonal:.2e} (<=1e-10), 100 distributions",
    )
