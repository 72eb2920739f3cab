"""Command-line interface: grammars, JSON contract, and exit codes."""

import json
import math

import numpy as np
import pytest

from entrogeo.cli import execute, main, render_json, render_pretty


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


# --- failure modes ---------------------------------------------------------------


def test_unknown_family_exits_two(dist_file):
    path = dist_file("u4.json", [0.25] * 4)
    code, text = execute(["entropy", "--family", "boltzmann", "--dist", path])
    assert code == 2
    assert text == ""


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
    "maxent-dependent-rows": ["maxent", "--family", "shannon", "--w", "3",
                              "--constraint", "0,1,2:1", "--constraint", "0,2,4:2"],
    "maxent-nan-row": ["maxent", "--family", "shannon", "--w", "3",
                       "--constraint", "nan,1,2:1.2"],
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
}


@pytest.mark.parametrize("case", list(_INVALID_ARGUMENTS))
def test_invalid_arguments_exit_two_without_output(case, tmp_path, monkeypatch):
    files = {
        "p.json": [0.2, 0.3, 0.5],
        "non-numeric.json": ["x", 1],
        "ragged.json": [[0.5], [0.2, 0.3]],
        "nested.json": [[0.5], [0.5]],
    }
    for name, weights in files.items():
        (tmp_path / name).write_text(json.dumps({"weights": weights}))
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
