"""Command-line interface: grammars, JSON contract, and exit codes."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from entrogeo import hf_div_functional, tsallis_relative_pair, validate
from entrogeo.cli import _conjugator_from_spec, execute, main, render_json, render_pretty
from entrogeo.errors import ParamOutOfRange


@pytest.fixture()
def dist_file(tmp_path):
    def write(name, weights, as_csv=False):
        path = tmp_path / name
        if as_csv:
            path.write_text("".join(f"{w}\n" for w in weights))
        else:
            path.write_text(json.dumps({"weights": list(weights)}))
        return str(path)

    return write


def run(argv):
    code, text = execute(argv)
    return code, (json.loads(text) if text else None)


# --- output contract -----------------------------------------------------------


def test_json_is_insertion_ordered_and_compact():
    text = render_json({"b": 1, "a": [True, None], "c": "x"})
    assert text == '{"b":1,"a":[true,null],"c":"x"}'


def test_json_floats_carry_seventeen_digits():
    assert render_json({"v": 1 / 3}) == '{"v":0.33333333333333331}'
    assert render_json({"v": 1.5}) == '{"v":1.5}'


def test_json_nonfinite_becomes_null():
    assert render_json([math.nan, math.inf, -math.inf]) == "[null,null,null]"


def test_json_handles_numpy_scalars():
    doc = {"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}
    assert render_json(doc) == '{"i":3,"f":0.5,"b":true}'


def test_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        render_json({"x": object()})


def test_pretty_rendering_is_line_based():
    text = render_pretty({"name": "t", "passed": True, "vals": [1.0, 2.0]})
    assert "name: t" in text
    assert "passed: yes" in text
    assert "vals: [1, 2]" in text
    # shaped like compose's law_report, verify's checks and connection's gamma
    nested = render_pretty({
        "law_report": {"law": "q-sum(0.5)", "passed": True},
        "checks": [{"name": "a", "passed": False}],
        "gamma": [[[1.0, 2.0], [3.0, 4.5]]],
    })
    assert nested.splitlines() == [
        "law_report:",
        "  law: q-sum(0.5)",
        "  passed: yes",
        "checks:",
        "  -:",
        "    name: a",
        "    passed: no",
        "gamma:",
        "  -:",
        "    -: [1, 2]",
        "    -: [3, 4.5]",
    ]


def test_cli_output_is_deterministic(dist_file):
    path = dist_file("u4.json", [0.25] * 4)
    argv = ["entropy", "--family", "shannon", "--dist", path]
    assert execute(argv) == execute(argv)


# --- subcommands -----------------------------------------------------------------


def test_entropy_value(dist_file):
    path = dist_file("u4.json", [0.25] * 4)
    code, doc = run(["entropy", "--family", "shannon", "--dist", path])
    assert code == 0
    assert doc["command"] == "entropy"
    assert doc["value"] == pytest.approx(math.log(4.0), rel=1e-15)


def test_entropy_accepts_both_parameter_styles(dist_file):
    path = dist_file("u4.json", [0.25] * 4)
    code1, doc1 = run(["entropy", "--family", "tsallis:q=2", "--dist", path])
    code2, doc2 = run(["entropy", "--family", "tsallis", "--params", "q=2", "--dist", path])
    assert code1 == code2 == 0
    assert doc1["value"] == doc2["value"] == pytest.approx(0.75)


def test_divergence_from_csv_and_json(dist_file):
    p = dist_file("p.csv", [0.5, 0.5], as_csv=True)
    q = dist_file("q.json", [0.25, 0.75])
    code, doc = run(["divergence", "--family", "kl", "--p", p, "--q", q])
    assert code == 0
    assert doc["value"] == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-14)


def test_divergence_pair_spec(dist_file):
    p = dist_file("p.json", [0.5, 0.5])
    q = dist_file("q.json", [0.25, 0.75])
    code, doc = run(["divergence", "--family", "power:a=2", "--p", p, "--q", q])
    assert code == 0
    assert doc["value"] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_divergence_tsallis_relative_family_and_its_alias(dist_file):
    p, q = [0.2, 0.3, 0.5], [0.25, 0.25, 0.5]
    paths = ["--p", dist_file("p.json", p), "--q", dist_file("q.json", q)]
    want = hf_div_functional(tsallis_relative_pair(0.5)).eval(validate(p), validate(q))
    texts = []
    for family in ("tsallis-rel:alpha=0.5", "tsallis-relative:alpha=0.5"):
        code, text = execute(["divergence", "--family", family, *paths])
        assert code == 0 and json.loads(text)["value"] == want
        texts.append(text)
    assert texts[0] == texts[1]


def test_divergence_composed(dist_file):
    p = dist_file("p.json", [0.5, 0.5])
    q = dist_file("q.json", [0.25, 0.75])
    code, doc = run(
        [
            "divergence",
            "--family",
            "composed",
            "--of",
            "kl",
            "--of",
            "power:a=2",
            "--coeffs",
            "0.6,0.4",
            "--p",
            p,
            "--q",
            q,
        ]
    )
    assert code == 0
    assert doc["value"] == pytest.approx(0.21963795506886761, rel=1e-14)


def test_compose_reports_law_and_value(dist_file):
    path = dist_file("p3.json", [0.2, 0.3, 0.5])
    code, doc = run(
        [
            "compose",
            "--constituent",
            "sharma-mittal:alpha=0.3,beta=0.5",
            "--constituent",
            "sharma-mittal:alpha=0.7,beta=0.5",
            "--m",
            "1",
            "--dist",
            path,
        ]
    )
    assert code == 0
    assert doc["value"] == pytest.approx(3.7943432922226760, rel=1e-14)
    assert doc["law_report"]["passed"] is True


@pytest.mark.parametrize(
    "argv, residual",
    [
        (  # omega(x, y) is about -1e12 x y, so its iterates reach about 1e24
            ["--xi", "scale:1e-12", "--m", "1", "--constituent", "tsallis:q=2",
             "--constituent", "tsallis:q=2"],
            268435456.0,
        ),
        (["--constituent", "tsallis:q=1000"], 2.3283064365386963e-10),  # |Phi| up to about 1e6
    ],
)
def test_an_exact_law_with_large_values_passes_relative_to_them(dist_file, argv, residual):
    path = dist_file("p3.json", [0.2, 0.3, 0.5])
    code, doc = run(["compose", "--samples", "50", *argv, "--dist", path])
    assert code == 0
    assert doc["law_report"]["associativity_residual"] == residual  # absolute, as before
    assert doc["law_report"]["passed"] is True


def test_metric_reports_closed_form_agreement(dist_file):
    code, doc = run(
        ["metric", "--model", "simplex:2", "--point", "0.3,0.25", "--divergence", "kl"]
    )
    assert code == 0
    assert doc["closed_form_max_rel_error"] <= 1e-5
    g = np.asarray(doc["entries"])
    assert g.shape == (2, 2)
    assert g[0, 1] == pytest.approx(g[1, 0], abs=1e-10)


def test_metric_fisher_mode():
    code, doc = run(
        ["metric", "--model", "simplex:1", "--point", "0.5", "--divergence", "fisher"]
    )
    assert code == 0
    assert doc["entries"][0][0] == pytest.approx(4.0, rel=1e-6)


def test_connection_duality_fields():
    code, doc = run(
        ["connection", "--model", "simplex:2", "--point", "0.3,0.25", "--divergence", "kl"]
    )
    assert code == 0
    assert doc["duality_residual"] <= 5e-4
    assert doc["hf_alpha"] == pytest.approx(1.0)
    assert np.asarray(doc["gamma"]).shape == (2, 2, 2)


def test_connection_alpha_mode():
    code, doc = run(
        ["connection", "--model", "simplex:2", "--point", "0.3,0.25", "--alpha", "-1"]
    )
    assert code == 0
    assert np.max(np.abs(np.asarray(doc["gamma"]))) <= 1e-6


def test_maxent_constrained():
    code, doc = run(
        [
            "maxent",
            "--family",
            "shannon",
            "--w",
            "3",
            "--constraint",
            "0,1,2:1.2",
        ]
    )
    assert code == 0
    assert doc["converged"] is True
    np.testing.assert_allclose(
        doc["weights"],
        [0.2383714066067965, 0.32325718678640697, 0.4383714066067965],
        atol=1e-6,
    )


@pytest.mark.parametrize("scale", ["1e12", "1e14", "1e16", "1e100"])
def test_maxent_meets_a_row_of_large_entries(scale):
    # a projection stop scaled by max|A| for every row left the sum row off by 0.4: exit 2
    code, doc = run(
        ["maxent", "--family", "shannon", "--w", "3", "--constraint", f"1,{scale},-1:-0.4"]
    )
    assert code == 0
    assert doc["converged"] is True
    np.testing.assert_allclose(doc["weights"], [0.3, 0.0, 0.7], rtol=0.0, atol=1e-15)


def test_maxent_nonconvergence_exits_one():
    code, doc = run(
        [
            "maxent",
            "--family",
            "renyi",
            "--params",
            "alpha=2",
            "--w",
            "3",
            "--constraint",
            "0,1,2:1.2",
            "--max-iter",
            "1",
            "--tol",
            "1e-16",
        ]
    )
    assert code == 1
    assert doc["converged"] is False


def test_verify_group_law_passes():
    code, doc = run(["verify", "group-law", "--samples", "100"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["failures"] == 0
    assert len(doc["checks"]) == 8  # four deformations, two checks each


def test_verify_group_law_custom_deformations():
    code, doc = run(["verify", "group-law", "--samples", "50", "--q", "0.3", "--q", "1.7"])
    assert code == 0
    assert len(doc["checks"]) == 4
    assert "q-sum(0.3)" in doc["checks"][0]["name"]


def test_verify_sk_single_family():
    code, doc = run(
        [
            "verify",
            "sk",
            "--family",
            "kaniadakis",
            "--params",
            "kappa=0.5",
            "--samples",
            "50",
            "--w-max",
            "3",
        ]
    )
    assert code == 0
    assert len(doc["checks"]) == 1
    assert doc["checks"][0]["passed"] is True


def test_verify_composability_includes_the_negative_control():
    code, doc = run(["verify", "composability", "--pairs", "40"])
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert any(name.startswith("composability-falsification") for name in names)
    assert all(c["passed"] for c in doc["checks"])


def test_seed_resolution(monkeypatch, dist_file):
    monkeypatch.setenv("ENTROGEO_SEED", "99")
    code, doc = run(["verify", "group-law", "--samples", "20"])
    assert code == 0
    assert doc["seed"] == 99
    # explicit flag wins over the environment
    code, doc = run(["verify", "group-law", "--samples", "20", "--seed", "7"])
    assert doc["seed"] == 7
    monkeypatch.setenv("ENTROGEO_SEED", "not-a-number")
    code, _ = run(["verify", "group-law", "--samples", "20"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["compose", "--constituent", "shannon", "--dist", "p.json", "--seed", "-1"], None,
         "error: --seed must be non-negative, got -1"),
        (["verify", "group-law", "--samples", "20", "--seed", "-1"], None,
         "error: --seed must be non-negative, got -1"),
        (["maxent", "--family", "shannon", "--w", "3", "--seed", "-1"], None,
         "error: --seed must be non-negative, got -1"),
        (["verify", "group-law", "--samples", "20"], "-3",
         "error: ENTROGEO_SEED must be non-negative, got -3"),
    ],
)
def test_a_negative_seed_exits_two(capsys, dist_file, monkeypatch, argv, env, message):
    monkeypatch.chdir(Path(dist_file("p.json", [0.2, 0.3, 0.5])).parent)
    if env is None:
        monkeypatch.delenv("ENTROGEO_SEED", raising=False)
    else:
        monkeypatch.setenv("ENTROGEO_SEED", env)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


# --- failure modes ---------------------------------------------------------------


def test_unknown_family_exits_two(dist_file):
    path = dist_file("u4.json", [0.25] * 4)
    code, text = execute(["entropy", "--family", "boltzmann", "--dist", path])
    assert code == 2
    assert text == ""


def test_entropy_families_are_the_builtin_table_then_the_compositions():
    from entrogeo import cli, hf_entropy

    assert list(cli._ENTROPIES) == [
        "shannon", "renyi", "tsallis", "sharma-mittal", "kaniadakis", "sm-pair", "sm-tsallis",
    ]
    assert [name.replace("_", "-") for name in hf_entropy._BUILTINS] == list(cli._ENTROPIES)[:5]
    assert list(cli._DIVERGENCES) == ["kl", "sm", "power", "tsallis-rel", "tsallis-relative"]
    assert cli._DIVERGENCES["tsallis-relative"] is cli._DIVERGENCES["tsallis-rel"]
    built = cli._entropy("sharma-mittal:alpha=0.5,beta=0.7")
    assert built.name == hf_entropy.builtin_functional("sharma_mittal", alpha=0.5, beta=0.7).name


def test_conjugator_spec_grammar():
    assert _conjugator_from_spec("id").name == "id"
    assert _conjugator_from_spec("expm1").name == "expm1"
    assert _conjugator_from_spec("scale:2.5").forward(2.0) == 5.0
    with pytest.raises(ParamOutOfRange):
        _conjugator_from_spec("scale:zero")
    with pytest.raises(ParamOutOfRange):
        _conjugator_from_spec("log")
    with pytest.raises(ParamOutOfRange):
        _conjugator_from_spec("scale:-1")


def test_missing_file_exits_two():
    code, _ = execute(["entropy", "--family", "shannon", "--dist", "/nonexistent.json"])
    assert code == 2


def test_invalid_distribution_exits_two(dist_file):
    path = dist_file("bad.json", [0.5, 0.6])
    code, _ = execute(["entropy", "--family", "shannon", "--dist", path])
    assert code == 2


def test_bad_point_grammar_exits_two():
    code, _ = execute(
        ["metric", "--model", "simplex:2", "--point", "x,y", "--divergence", "kl"]
    )
    assert code == 2
    code, _ = execute(
        ["metric", "--model", "cube:2", "--point", "0.3,0.25", "--divergence", "kl"]
    )
    assert code == 2


_INVALID_ARGUMENTS = {
    "maxent-restarts-0": ["maxent", "--family", "shannon", "--w", "3", "--restarts", "0"],
    "maxent-max-iter-negative": ["maxent", "--family", "shannon", "--w", "3", "--max-iter", "-4"],
    "maxent-max-iter-0": ["maxent", "--family", "shannon", "--w", "3", "--max-iter", "0"],
    "maxent-tol-negative": ["maxent", "--family", "shannon", "--w", "3", "--tol", "-1"],
    "maxent-constraint-without-target": ["maxent", "--family", "shannon", "--w", "3",
                                         "--constraint", "0,1,2"],
    "maxent-constraint-non-numeric-target": ["maxent", "--family", "shannon", "--w", "3",
                                             "--constraint", "0,1,2:x"],
    "spec-without-value": ["entropy", "--family", "tsallis:q", "--dist", "p.json"],
    "spec-non-numeric-value": ["entropy", "--family", "tsallis:q=x", "--dist", "p.json"],
    "spec-missing-parameters": ["entropy", "--family", "sm-pair:alpha1=0.3", "--dist", "p.json"],
    "metric-bad-simplex-size": ["metric", "--model", "simplex:x", "--divergence", "kl",
                                "--point", "0.3,0.25"],
    "divergence-composed-without-of": ["divergence", "--family", "composed",
                                       "--p", "p.json", "--q", "p.json"],
    "connection-without-divergence-or-alpha": ["connection", "--model", "simplex:2",
                                               "--point", "0.3,0.25"],
    "maxent-dependent-rows": ["maxent", "--family", "shannon", "--w", "3",
                              "--constraint", "0,1,2:1", "--constraint", "0,2,4:2"],
    "maxent-nan-row": ["maxent", "--family", "shannon", "--w", "3",
                       "--constraint", "nan,1,2:1.2"],
    "maxent-row-squares-to-inf": ["maxent", "--family", "shannon", "--w", "3",
                                  "--constraint", "1,1e308,-1:-0.4"],
    "maxent-ragged-rows": ["maxent", "--family", "shannon", "--w", "3",
                           "--constraint", "0,1,2:1.2", "--constraint", "0,1:0.5"],
    "maxent-blank-field": ["maxent", "--w", "2", "--family", "shannon",
                           "--constraint", "0,,1:0.5"],
    # a size numpy refuses before it allocates; 1e8 to 1e15 would try to allocate
    "maxent-w-beyond-numpy": ["maxent", "--family", "shannon", "--w", "100000000000000000000"],
    "metric-blank-field": ["metric", "--model", "simplex:2", "--divergence", "kl",
                           "--point", "0.3,,0.25"],
    "metric-trailing-comma": ["metric", "--model", "simplex:2", "--divergence", "kl",
                              "--point", "0.3,0.25,"],
    "metric-negative-step": ["metric", "--model", "simplex:2", "--divergence", "kl",
                             "--point", "0.3,0.25", "--step", "-1"],
    "connection-negative-step": ["connection", "--model", "simplex:2", "--divergence", "kl",
                                 "--point", "0.3,0.25", "--step", "-1"],
    "verify-sk-w-max-1": ["verify", "sk", "--w-max", "1"],
    "compose-samples-0": ["compose", "--constituent", "tsallis:q=1.5", "--dist", "p.json",
                          "--samples", "0"],
    "verify-group-law-samples-0": ["verify", "group-law", "--samples", "0"],
    "non-numeric-weights": ["entropy", "--family", "shannon", "--dist", "non-numeric.json"],
    "ragged-weights": ["entropy", "--family", "shannon", "--dist", "ragged.json"],
    "nested-weights": ["entropy", "--family", "shannon", "--dist", "nested.json"],
    "verify-geometry-points-0": ["verify", "geometry", "--points", "0"],
    "verify-geometry-points-negative": ["verify", "geometry", "--points", "-3"],
    "verify-geometry-w-max-0": ["verify", "geometry", "--w-max", "0"],
    "verify-composability-pairs-0": ["verify", "composability", "--pairs", "0"],
    "divergence-composed-params": ["divergence", "--family", "composed", "--of", "kl",
                                   "--of", "power:a=2", "--params", "a=3",
                                   "--p", "p.json", "--q", "p.json"],
    "divergence-kl-pair": ["divergence", "--family", "kl", "--pair", "power:a=2",
                           "--p", "p.json", "--q", "p.json"],
    "divergence-kl-of": ["divergence", "--family", "kl", "--of", "power:a=2",
                         "--p", "p.json", "--q", "p.json"],
    "divergence-hf-coeffs": ["divergence", "--family", "hf", "--pair", "power:a=2",
                             "--coeffs", "1", "--p", "p.json", "--q", "p.json"],
    "connection-alpha-divergence": ["connection", "--model", "simplex:2", "--alpha", "0.5",
                                    "--divergence", "kl", "--point", "0.3,0.25"],
    "verify-all-family": ["verify", "all", "--family", "tsallis:q=1.5"],
    "verify-geometry-params": ["verify", "geometry", "--params", "q=1.5"],
    "verify-group-law-family": ["verify", "group-law", "--family", "tsallis", "--params", "q=2"],
    "verify-sk-params-without-family": ["verify", "sk", "--params", "q=1.5"],
    "verify-sk-q": ["verify", "sk", "--q", "0.5"],
    # A nan tolerance would accept any weights; a negative one none.
    "entropy-tol-nan": ["entropy", "--family", "shannon", "--dist", "off.json", "--tol", "nan"],
    "entropy-tol-negative": ["entropy", "--family", "shannon", "--dist", "p.json", "--tol", "-1"],
    "divergence-tol-nan": ["divergence", "--family", "kl", "--p", "off.json", "--q", "off.json",
                           "--tol", "nan"],
    "compose-tol-nan": ["compose", "--constituent", "tsallis:q=1.5", "--dist", "off.json",
                        "--tol", "nan"],
    "dist-not-utf8": ["entropy", "--family", "shannon", "--dist", "not-utf8.json"],
    # A given empty value is read, not taken for an option left out.
    "verify-sk-empty-family": ["verify", "sk", "--family", "", "--params", "alpha=2"],
    "divergence-composed-empty-coeffs": ["divergence", "--family", "composed", "--of", "kl",
                                         "--coeffs", "", "--p", "p.json", "--q", "p.json"],
    # 2^20000 is never formed, nor turned into text for the message.
    "compose-m-20000": ["compose", "--constituent", "tsallis:q=1.5", "--m", "20000",
                        "--dist", "p.json"],
}


@pytest.mark.parametrize("case", list(_INVALID_ARGUMENTS))
def test_invalid_arguments_exit_two_without_output(case, tmp_path, monkeypatch):
    files = {
        "p.json": [0.2, 0.3, 0.5],
        "non-numeric.json": ["x", 1],
        "ragged.json": [[0.5], [0.2, 0.3]],
        "nested.json": [[0.5], [0.5]],
        "off.json": [5, 7],
    }
    for name, weights in files.items():
        (tmp_path / name).write_text(json.dumps({"weights": weights}))
    (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe{}")
    monkeypatch.chdir(tmp_path)
    assert execute(_INVALID_ARGUMENTS[case]) == (2, "")


def test_inline_spec_parameters_match_params_option(dist_file):
    p = dist_file("p.json", [0.2, 0.3, 0.5])
    q = dist_file("q.json", [0.25, 0.25, 0.5])
    pairs = [
        (["maxent", "--family", "tsallis:q=1.5", "--w", "3"],
         ["maxent", "--family", "tsallis", "--params", "q=1.5", "--w", "3"]),
        (["divergence", "--family", "sm:alpha=0.5,beta=0.7", "--p", p, "--q", q],
         ["divergence", "--family", "sm", "--params", "alpha=0.5", "beta=0.7", "--p", p,
          "--q", q]),
        (["verify", "sk", "--family", "tsallis:q=1.5", "--samples", "50", "--w-max", "3"],
         ["verify", "sk", "--family", "tsallis", "--params", "q=1.5", "--samples", "50",
          "--w-max", "3"]),
    ]
    for inline, separate in pairs:
        code, text = execute(inline)
        assert code == 0, inline
        assert (code, text) == execute(separate)


def test_unknown_subcommand_exits_two():
    code, _ = execute(["frobnicate"])
    assert code == 2


def test_main_prints_and_returns(capsys, dist_file):
    path = dist_file("u2.json", [0.5, 0.5])
    rc = main(["entropy", "--family", "shannon", "--dist", path])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["value"] == pytest.approx(math.log(2.0))


@pytest.mark.parametrize(
    "argv, message",
    [
        (  # sum p^200 underflows to 0, and log(0) divides by zero
            ["entropy", "--family", "renyi:alpha=200", "--dist", "u100.json"],
            "error: renyi(200) is not finite at the given distribution",
        ),
        (  # q^(1 - 200) overflows, and inf * 0 is invalid
            ["divergence", "--family", "sm", "--params", "alpha=200", "beta=0.5",
             "--p", "p50.json", "--q", "u50.json"],
            "error: sm(200,0.5) is not finite at the given pair",
        ),
        (  # r = -1e300 / (1 - 1e-8): the pair's probes overflow h and meet log1p(-inf)
            ["entropy", "--family", "sharma-mittal:alpha=1e-8,beta=1e300", "--dist", "u50.json"],
            "error: sharma-mittal(1e-08,1e+300): h_inverse(h(x)) deviates by inf near f(1)",
        ),
        (  # the divergence mirror of the same pair
            ["divergence", "--family", "sm:alpha=1e-8,beta=1e300",
             "--p", "p50.json", "--q", "u50.json"],
            "error: sm-div(1e-08,1e+300): h_inverse(h(x)) deviates by inf near f(1)",
        ),
        (
            ["verify", "sk", "--family", "sharma-mittal:alpha=1e-8,beta=1e300"],
            "error: sharma-mittal(1e-08,1e+300): h_inverse(h(x)) deviates by inf near f(1)",
        ),
        (  # sum p^2000 underflows to 0, which h once read as the value 1 (true value 0.50017)
            ["entropy", "--family", "sharma-mittal:alpha=2000,beta=2", "--dist", "p3.json"],
            "error: sharma-mittal(2000,2) is not finite at the given distribution",
        ),
    ],
)
def test_non_finite_value_prints_one_stderr_line(capsys, dist_file, monkeypatch, argv, message):
    dist_file("u100.json", [0.01] * 100)
    dist_file("p3.json", [0.2, 0.3, 0.5])
    dist_file("u50.json", [0.02] * 50)
    path = dist_file("p50.json", np.random.default_rng(0).dirichlet(np.ones(50)))
    monkeypatch.chdir(Path(path).parent)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # outside pytest, each would print to stderr first
        assert main(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


_AT = ["--model", "simplex:2", "--point", "0.3,0.25"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["metric", *_AT, "--divergence", "kl", "--step", "nan"], "step must be finite, got nan"),
        (["metric", *_AT, "--divergence", "kl", "--step", "inf"], "step must be finite, got inf"),
        (["metric", *_AT, "--divergence", "fisher", "--step", "inf"],
         "step must be finite, got inf"),
        (["metric", *_AT, "--divergence", "kl", "--step=-inf"], "step must be positive, got -inf"),
        (["connection", *_AT, "--divergence", "kl", "--step", "nan"],
         "step must be finite, got nan"),
        (["connection", *_AT, "--divergence", "kl", "--step", "inf"],
         "step must be finite, got inf"),
        (["connection", *_AT, "--alpha", "0.5", "--step", "inf"], "step must be finite, got inf"),
        (["connection", *_AT, "--alpha", "inf"], "alpha must be finite, got inf"),
        (["connection", *_AT, "--alpha", "nan"], "alpha must be finite, got nan"),
        (["connection", *_AT, "--alpha", "1e308"], "connection entries are not finite"),
    ],
)
def test_a_non_finite_step_or_alpha_prints_one_stderr_line(capsys, argv, message):
    _exits_two_with_one_stderr_line(capsys, argv, message)


def _exits_two_with_one_stderr_line(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # outside pytest, each would print to stderr first
        assert main(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_LEAVES = (
    "stencil point [1e+308, 0.25] leaves the domain of simplex(2); reduce the step or move inward"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        # 0.3 +- 1e-17 rounds back to 0.3: the parent printed an all-zero metric or Gamma
        (["metric", *_AT, "--divergence", "kl", "--step", "1e-17"],
         "step must move every coordinate of the point, got 1e-17"),
        (["metric", *_AT, "--divergence", "fisher", "--step", "1e-17"],
         "step must move every coordinate of the point, got 1e-17"),
        (["connection", *_AT, "--divergence", "kl", "--step", "1e-17"],
         "step must move every coordinate of the point, got 1e-17"),
        (["connection", *_AT, "--alpha", "1", "--step", "1e-17"],
         "step must move every coordinate of the point, got 1e-17"),
        # h * h underflows to 0: two divide warnings, then "metric entries are not finite"
        (["metric", *_AT, "--divergence", "kl", "--step", "1e-320"],
         "step must move every coordinate of the point, got 1e-320"),
        # the simplex domain sum overflows before the StepTooLarge error
        (["metric", *_AT, "--divergence", "kl", "--step", "1e308"], _LEAVES),
        (["connection", *_AT, "--divergence", "kl", "--step", "1e308"], _LEAVES),
        (["connection", *_AT, "--alpha", "1", "--step", "1e308"], _LEAVES),
        # the projection squares the largest entry of each row
        (["maxent", "--family", "shannon", "--w", "3", "--constraint", "1,1e308,-1:-0.4"],
         "constraint entry 1e+308 squares to infinity"),
    ],
)
def test_a_step_or_row_out_of_float_range_prints_one_stderr_line(capsys, argv, message):
    _exits_two_with_one_stderr_line(capsys, argv, message)


def test_constraint_rows_of_unequal_length_print_one_stderr_line(capsys):
    argv = ["maxent", "--family", "shannon", "--w", "3",
            "--constraint", "0,1,2:1.2", "--constraint", "0,1:0.5"]
    message = "constraint rows must be numbers, all of one length"
    _exits_two_with_one_stderr_line(capsys, argv, message)


@pytest.mark.parametrize(
    "argv, read, expected",
    [
        (  # sum p^200 underflows at the uniform start: the run stops unconverged
            ["maxent", "--family", "renyi:alpha=200", "--w", "100"],
            lambda doc: (doc["value"], doc["converged"]),
            (None, False),
        ),
        (  # xi^-1 scales the samples by 1e300: x y overflows, and inf - inf is invalid
            ["compose", "--xi", "scale:1e-300", "--m", "1", "--constituent", "tsallis:q=2",
             "--constituent", "tsallis:q=2", "--dist", "u2.json"],
            lambda doc: (doc["law_report"]["commutativity_residual"], doc["law_report"]["passed"]),
            (None, False),
        ),
        *(  # the dual's warm start and uniform restart both give non-finite weights
            (["maxent", "--family", family, "--w", w], lambda doc: (doc["value"], doc["converged"]),
             (None, False))
            for family, w in (
                ("sm-pair:alpha1=300,alpha2=0.7,beta=0.5", "50"),
                ("sm-pair:alpha1=0.3,alpha2=0.7,beta=-1e8", "50"),
                ("sm-tsallis:alpha=1e6,q=0.5", "5"),
            )
        ),
    ],
)
def test_a_non_finite_run_prints_nothing_on_stderr(
    capsys, dist_file, monkeypatch, argv, read, expected
):
    monkeypatch.chdir(Path(dist_file("u2.json", [0.5, 0.5])).parent)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # outside pytest, each would print to stderr first
        assert main(argv) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    assert read(json.loads(captured.out)) == expected


@pytest.mark.parametrize(
    "family, row",
    [
        ("renyi:alpha=1e-300", "1e6,0,1:0.5"),
        ("tsallis:q=1e-300", "1e6,0,1:0.5"),
        ("sharma-mittal:alpha=1e-300,beta=0.5", "1e6,0,1:0.5"),
        ("renyi:alpha=1e-300", "2e6,0,1:1e6"),
    ],
)
def test_a_dual_hessian_that_overflows_hands_the_run_to_ascent(capsys, family, row):
    # At an exponent of 1e-300, -1/phi'' is about 1e301 p, and against a row entry of 1e6 the
    # dual's Hessian A diag(-1/phi'') A^T overflows.  Its inner solve gives up there, and
    # ascent continues as after any other give-up, where lstsq used to raise.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["maxent", "--family", family, "--w", "3", "--constraint", row]) in (0, 1)
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["command"] == "maxent"


def test_distinct_parameters_print_distinct_names(dist_file):
    path = dist_file("p3.json", [0.2, 0.3, 0.5])
    names = [
        run(["entropy", "--family", f"renyi:alpha={a}", "--dist", path])[1]["entropy"]
        for a in ("1.0000001", "1.0000002", "0.5")
    ]
    assert names == ["renyi(1.0000001)", "renyi(1.0000002)", "renyi(0.5)"]
    doc = run(["divergence", "--family", "sm:alpha=0.5,beta=0.7", "--p", path, "--q", path])[1]
    assert doc["divergence"] == "sm(0.5,0.7)"
