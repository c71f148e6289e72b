import argparse
import json
import shlex
from pathlib import Path

import pytest

from planecurves import cli
from planecurves.cli import main
from planecurves.catalog import CATALOG, catalog_curve, exceptional_quartic
from planecurves.curve import PlaneCurve
from planecurves.field import FiniteField

from conftest import field_for


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_exceptional_quartic(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--field", "p=2,k=2", "--catalog", "exceptional_quartic",
        "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 14 and payload["q"] == 4


def test_count_missing_file(capsys):
    code, out, err = run_cli(capsys, "count", "--curve", "does-not-exist.curve")
    assert code == 1 and "error:" in err and out == ""


def test_unknown_flag_rejected(capsys):
    code, _, err = run_cli(capsys, "count", "--field", "p=2,k=1", "--bogus", "x")
    assert code == 1 and "error:" in err


def test_two_sources_rejected(capsys):
    code, _, err = run_cli(
        capsys, "count", "--field", "p=2,k=1",
        "--inline", "0 0 1 1", "--catalog", "smooth_conic",
    )
    assert code == 1 and "exactly one" in err


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--field", "p=3,k=2", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 9 and payload["modulus"] == [1, 0, 1]


def test_field_flag_with_modulus(capsys):
    code, out, _ = run_cli(
        capsys, "field-info", "--field", "p=2,k=2,mod=1,1,1", "--no-timestamp"
    )
    assert code == 0
    assert json.loads(out)["q"] == 4


@pytest.mark.parametrize("comma,space", [
    ("p=2,k=2", "p=2 k=2"),
    ("p=2, k=2", "p=2 k=2"),
    ("p=2,k=2,mod=1,1,1", "p=2 k=2 mod=1,1,1"),
    ("p=2, k=2, mod=1,1,1", "p=2  k=2 mod=1,1,1"),
    ("mod=1,0,1,p=3,k=2", "k=2 p=3 mod=1,0,1"),
    ("p=5", "p=5 k=1"),
], ids=["bare", "spaced", "mod", "spaced-mod", "mod-first", "prime"])
def test_comma_and_space_field_specs_agree(capsys, comma, space):
    """--field and a curve-file header share FiniteField.from_spec, which
    reads keys apart by commas (spaces after them allowed) or by spaces."""
    ctx = FiniteField.from_spec(space)
    assert FiniteField.from_spec(comma) == ctx
    assert PlaneCurve.from_text(f"{comma}\nd=1\n1 0 0 1\n").ctx == ctx
    comma_run, space_run = (run_cli(capsys, "field-info", "--field", spec, "--no-timestamp")
                            for spec in (comma, space))
    assert comma_run == space_run and comma_run[0] == 0


def test_prime_field_modulus_other_than_t_refused(capsys, tmp_path):
    """t + c for c != 0 codes GF(p) like t, so it would make equal fields unequal."""
    refusal = "degree-1 modulus [3, 1] must be [0, 1]"
    code, out, err = run_cli(capsys, "field-info", "--field", "p=5,k=1,mod=3,1")
    assert (code, out, err) == (1, "", f"error: {refusal}\n")
    path = tmp_path / "line.curve"
    path.write_text("p=5 k=1 mod=3,1\nd=1\n1 0 0 1\n")
    code, out, err = run_cli(capsys, "count", "--curve", str(path), "--field", "p=5,k=1")
    assert (code, out, err) == (1, "", f"error: line 1: {refusal}\n")
    code, out, _ = run_cli(capsys, "field-info", "--field", "p=5,k=1,mod=0,1", "--no-timestamp")
    assert code == 0 and json.loads(out)["spec"] == "p=5 k=1 mod=0,1"


def test_bounds_exit_code_signals_violation(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--field", "p=2,k=2", "--catalog", "exceptional_quartic",
        "--no-timestamp",
    )
    assert code == 2  # sziklai is applicable and violated: an anomaly find
    payload = json.loads(out)
    assert payload["exceptional"] is True
    code, _, _ = run_cli(
        capsys, "bounds", "--field", "p=5,k=1", "--catalog", "deg_q",
        "--no-timestamp",
    )
    assert code == 0


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--field", "p=2,k=1", "--inline", "0 0 1 1",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["i,a_i", "1,6", "3,1"]


def test_singular_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "singular", "--field", "p=5,k=1",
        "--inline", "0 2 1 1; 3 0 0 4", "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["singular_rational"] == ["0:0:1"]
    assert payload["geometric"]["status"] == "singular"
    assert payload["geometric"]["witness_degree_exact"] is True


@pytest.mark.parametrize("command", ["singular", "bounds"])
@pytest.mark.parametrize("budget", ["0", "-1", "4"])
def test_nonpositive_m_budget_refused(capsys, command, budget):
    """The locus decision is exact, so there is no budget to give: --m-budget
    is an unrecognized argument, whatever its value."""
    code, out, err = run_cli(
        capsys, command, "--field", "p=5,k=1", "--inline", "0 2 1 1; 3 0 0 4",
        "--m-budget", budget, "--no-timestamp",
    )
    assert code == 1 and out == ""
    assert err == f"error: unrecognized arguments: --m-budget {budget}\n"


def test_frobenius_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "frobenius", "--field", "p=3,k=2", "--catalog", "hermitian",
        "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["frobenius_nonclassical"] is True


def test_equiv_subcommand(capsys, tmp_path):
    quartic = exceptional_quartic(field_for(4))
    moved = quartic.transform(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    path = tmp_path / "moved.curve"
    path.write_text(moved.to_text())
    code, out, _ = run_cli(
        capsys, "equiv", "--field", "p=2,k=2", "--catalog", "exceptional_quartic",
        "--other-curve", str(path), "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True and payload["witness"] is not None


@pytest.mark.parametrize("other", [
    (),
    ("--other-catalog", "exceptional_quartic", "--other-inline", "4 0 0 1"),
])
def test_equiv_names_the_other_curve_flags(capsys, other):
    code, out, err = run_cli(
        capsys, "equiv", "--field", "p=2,k=2", "--catalog", "exceptional_quartic", *other,
    )
    assert code == 1 and out == ""
    assert err == ("error: exactly one of --other-curve, --other-inline, --other-catalog"
                   " is required\n")


def test_catalog_list_and_emit_round_trip(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--no-timestamp")
    assert code == 0
    assert "deg_q" in json.loads(out)["entries"]
    code, out, _ = run_cli(capsys, "catalog", "--emit", "deg_q", "--field", "p=5,k=1")
    assert code == 0
    from planecurves.curve import PlaneCurve

    cur = PlaneCurve.from_text(out)
    assert cur.degree == 5


def test_catalog_listing_gives_each_degree_and_params(capsys):
    """A fixed degree prints as an integer, any other as its rule in q; the
    rules match the curves the entries build."""
    code, out, _ = run_cli(capsys, "catalog", "--no-timestamp")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert {name: (e["degree"], e["params"]) for name, e in entries.items()} == {
        "exceptional_quartic": (4, []), "deg_q_plus_1": ("q+1", []), "deg_q": ("q", []),
        "deg_q_minus_1": ("q-1", ["alpha", "beta"]), "hermitian": ("sqrt(q)+1", []),
        "smooth_conic": (2, []),
    }
    for q, root in ((4, 2), (9, 3)):
        rules = {"q+1": q + 1, "q": q, "q-1": q - 1, "sqrt(q)+1": root + 1}
        for name, entry in entries.items():
            if CATALOG[name].applicable(q) is None:
                degree = catalog_curve(name, field_for(q)).degree
                assert degree == rules.get(entry["degree"], entry["degree"]), (name, q)


def test_catalog_emit_param_matches_catalog_flag(capsys):
    """--emit with --param builds the curve that --catalog name:param names."""
    code, out, err = run_cli(capsys, "catalog", "--emit", "deg_q_minus_1", "--field", "p=5,k=1",
                             "--param", "alpha=2")
    assert code == 0 and err == ""
    flag = argparse.Namespace(curve=None, inline=None, catalog="deg_q_minus_1:alpha=2",
                              field="p=5,k=1")
    assert out == cli._load_curve(flag).to_text()
    _, default, _ = run_cli(capsys, "catalog", "--emit", "deg_q_minus_1", "--field", "p=5,k=1")
    assert out != default


@pytest.mark.parametrize("argv,message", [
    (("catalog", "--emit", "deg_q_minus_1", "--field", "p=5,k=1", "--param", "alpha"),
     "bad catalog parameter 'alpha'"),
    (("count", "--field", "p=5,k=1", "--catalog", "deg_q_minus_1:alpha", "--no-timestamp"),
     "bad catalog parameter 'alpha'"),
    (("catalog", "--emit", "deg_q_minus_1", "--field", "p=5,k=1", "--param", "gamma=2"),
     "deg_q_minus_1 has no parameter 'gamma' (parameters: alpha, beta)"),
    (("count", "--field", "p=5,k=1", "--catalog", "deg_q:alpha=2", "--no-timestamp"),
     "deg_q has no parameter 'alpha' (parameters: none)"),
    (("count", "--field", "p=5,k=1", "--catalog", "deg_q_minus_1:alpha=x", "--no-timestamp"),
     "deg_q_minus_1 parameter 'alpha' needs an integer, got 'x'"),
    (("catalog", "--emit", "deg_q_minus_1", "--field", "p=5,k=1", "--param", "alpha=9"),
     "deg_q_minus_1 parameter 'alpha' must be an element code in [0, 5), got 9"),
], ids=["param", "catalog-flag", "unknown-name", "no-parameters", "not-integer",
        "not-element"])
def test_malformed_catalog_parameter_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (("field-info", "--field", "p=2,k=2,p=3"), "bad field spec token 'p=3'"),
    (("field-info", "--field", "p=2,k=2,k=3"), "bad field spec token 'k=3'"),
    (("field-info", "--field", "p=2,k=2,mod=1,1,1,mod=1,1,1"),
     "bad field spec token 'mod=1,1,1'"),
    (("count", "--field", "p=2,k=2", "--inline", "0 0 2 1; 0 0 2 3; 2 0 0 1",
      "--no-timestamp"), "duplicate term (0, 0, 2)"),
    (("catalog", "--emit", "deg_q_minus_1", "--field", "p=5", "--param", "alpha=1",
      "--param", "alpha=2"), "deg_q_minus_1 parameter 'alpha' given twice"),
    (("count", "--field", "p=5", "--catalog", "deg_q_minus_1:alpha=1,alpha=3",
      "--no-timestamp"), "deg_q_minus_1 parameter 'alpha' given twice"),
], ids=["field-repeated-p", "field-repeated-k", "field-repeated-mod", "inline-duplicate-term",
        "param-repeated", "catalog-flag-repeated"])
def test_repeated_input_refused(capsys, argv, message):
    """A repeated --field key, --inline term or catalog parameter is
    refused, never resolved by letting one of the copies win."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("inline,message", [
    ("0 0 x 1", "non-integer field in '0 0 x 1'"),
    ("-1 2 0 1", "negative exponent in '-1 2 0 1'"),
    ("0 0 1", "expected '<i> <j> <k> <coeff>', got '0 0 1'"),
], ids=["inline-non-integer", "inline-negative-exponent", "inline-three-fields"])
def test_malformed_inline_term_refused(capsys, inline, message):
    code, out, err = run_cli(capsys, "count", "--field", "p=3,k=1", "--inline", inline,
                             "--no-timestamp")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_catalog_names_a_bad_q(capsys):
    code, out, err = run_cli(capsys, "verify-catalog", "--q", "2,x")
    assert (code, out, err) == (1, "", "error: --q needs comma-separated integers, got 'x'\n")


@pytest.mark.parametrize("q", [",,,", "", ","])
def test_verify_catalog_refuses_an_empty_q_list(capsys, q):
    code, out, err = run_cli(capsys, "verify-catalog", "--q", q)
    assert (code, out, err) == (1, "", f"error: --q needs at least one integer, got {q!r}\n")


def test_verify_catalog_checks_each_q_once(capsys):
    def qs(q_arg):
        code, out, _ = run_cli(capsys, "verify-catalog", "--q", q_arg, "--skip-nonsingular",
                               "--no-timestamp")
        assert code == 0
        return [row["q"] for row in json.loads(out)["rows"]]

    once = qs("3,2")
    assert qs("3,2,3,,02") == once and once[0] == 3 and set(once) == {2, 3}


def test_verify_catalog_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify-catalog", "--q", "2,3", "--skip-nonsingular",
        "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0


def test_search_subcommand_json_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--field", "p=2,k=1", "--degree", "2",
        "--mode", "exhaustive", "--require-no-linear-component", "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_N"] == 3
    code, out, _ = run_cli(
        capsys, "search", "--field", "p=2,k=1", "--degree", "2",
        "--mode", "exhaustive", "--require-no-linear-component",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "N,count"


def test_search_random_missing_seed(capsys):
    code, _, err = run_cli(
        capsys, "search", "--field", "p=2,k=1", "--degree", "2", "--mode", "random",
    )
    assert code == 1 and "seed" in err


@pytest.mark.parametrize("extra,message", [
    (["--degree", "-1"], "degree must be >= 1"),
    (["--degree", "0", "--mode", "random", "--seed", "1", "--samples", "3",
      "--require-no-linear-component"], "degree must be >= 1"),
    (["--degree", "3", "--mode", "random", "--seed", "1", "--samples", "0"],
     "at least one sample"),
    (["--degree", "2", "--witness-cap", "-1"], "witness_cap must be >= 0"),
    (["--degree", "2", "--workers", "0"], "workers must be >= 1"),
    (["--degree", "2", "--seed", "1"], "exhaustive searches take no seed"),
    (["--degree", "2", "--samples", "5"], "exhaustive searches take no n_samples"),
    (["--degree", "3", "--mode", "random", "--seed", "1", "--samples", "5",
      "--singular-at", "0:0:1"], "singular_at is for constrained_random"),
    (["--degree", "1", "--mode", "constrained-random", "--seed", "1", "--samples", "5",
      "--singular-at", "0:0:1"], "constrained_random needs degree >= 2"),
    (["--degree", "3", "--mode", "constrained-random", "--seed", "1", "--samples", "5",
      "--singular-at", "1:2:x"], "bad point/line string '1:2:x'"),
], ids=["negative-degree", "zero-degree", "no-samples", "negative-witness-cap", "zero-workers",
        "exhaustive-seed", "exhaustive-samples", "random-singular-at", "constrained-degree-1",
        "singular-at-not-integer"])
def test_search_refuses_invalid_parameters(capsys, extra, message):
    code, out, err = run_cli(capsys, "search", "--field", "p=3,k=1", *extra, "--no-timestamp")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_lemma_check_pass_and_gate(capsys):
    code, out, _ = run_cli(
        capsys, "lemma-check", "--field", "p=5,k=1", "--catalog", "deg_q",
        "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(c.get("pass") for c in payload["checks"].values())
    # a line has a linear component: the tangency identity is gated off
    code, out, _ = run_cli(
        capsys, "lemma-check", "--field", "p=2,k=1", "--inline", "0 0 1 1",
        "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["tangency_bound"]["applicable"] is False
    assert "linear component" in payload["checks"]["tangency_bound"]["reason"]


@pytest.mark.parametrize("field,inline,reason", [
    ("p=5,k=1", "0 2 1 1; 3 0 0 4", "rational singular point"),
    ("p=2,k=1", "3 1 0 1; 0 3 1 1; 1 0 3 1", "degree exceeds q+1"),
], ids=["cusp", "klein-quartic"])
def test_lemma_check_names_why_the_tangency_bound_is_gated(capsys, field, inline, reason):
    code, out, _ = run_cli(capsys, "lemma-check", "--field", field, "--inline", inline,
                           "--no-timestamp")
    assert code == 0
    gate = json.loads(out)["checks"]["tangency_bound"]
    assert gate == {"applicable": False, "reason": reason}


def test_text_format_prints_one_key_per_line(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--field", "p=2,k=1", "--format", "text")
    assert code == 0
    assert out == "p: 2\nk: 1\nq: 2\nmodulus: [0, 1]\nspec: p=2 k=1 mod=0,1\n"


def test_csv_refused_by_a_command_without_a_csv_form(capsys):
    code, out, err = run_cli(capsys, "verify-catalog", "--q", "2", "--format", "csv")
    assert (code, out, err) == (1, "", "error: this subcommand has no CSV form\n")


@pytest.mark.parametrize("other,equivalent", [("0 2 0 1", True), ("1 1 0 1", False)],
                         ids=["double-lines", "double-line-vs-line-pair"])
def test_equiv_brute_force_method(capsys, other, equivalent):
    code, out, _ = run_cli(
        capsys, "equiv", "--field", "p=2,k=1", "--inline", "2 0 0 1", "--other-inline", other,
        "--method", "brute", "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "brute" and payload["equivalent"] is equivalent
    assert (payload["witness"] is not None) is equivalent


@pytest.mark.parametrize("argv,message", [
    (("count", "--inline", "0 0 1 1"), "--inline needs --field"),
    (("field-info", "--field", "p=2,q=3"), "bad field spec token 'q=3'"),
    (("field-info", "--field", "p=2,x"), "bad field spec 'p=2,x'"),
    (("catalog", "--emit", "deg_q"), "--emit needs --field"),
    (("field-info", "--field", "p=2,k=0"), "extension degree k = 0 must be >= 1"),
    (("field-info", "--field", "p=2,k=2,mod="), "bad field spec 'p=2,k=2,mod='"),
    (("field-info", "--field", "p=2, k=2, mod=1, 1, 1"), "bad field spec token '1,'"),
], ids=["inline-without-field", "field-unknown-key", "field-bad-fragment",
        "emit-without-field", "field-k-zero", "field-empty-mod", "field-space-in-mod"])
def test_usage_errors_are_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_readme_commands_parse():
    """Every planecurves line of README's "Command line" block, continuations
    joined and comments and redirections dropped, is accepted by the parser;
    none is run."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0].split(">", 1)[0].strip()
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [line for line in lines if line.startswith("planecurves ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_field_flag_must_match_the_curve_file(capsys, tmp_path):
    path = tmp_path / "line.curve"
    path.write_text("p=2 k=1 mod=0,1\nd=1\n1 0 0 1\n")
    code, out, err = run_cli(capsys, "count", "--curve", str(path), "--field", "p=3,k=1")
    assert (code, out, err) == (1, "", "error: --field disagrees with the curve file header\n")


def test_json_byte_stable_with_no_timestamp(capsys):
    args = ("count", "--field", "p=2,k=2", "--catalog", "exceptional_quartic",
            "--no-timestamp")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--field", "p=2,k=1")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_internal_invariant_failure_is_one_line(capsys, monkeypatch):
    from planecurves import search

    monkeypatch.setattr(search, "count_exact", lambda ctx, degree, rows: [-1] * len(rows))
    code, _, err = run_cli(
        capsys, "search", "--field", "p=2,k=1", "--degree", "2",
        "--mode", "exhaustive", "--no-timestamp",
    )
    assert code == 1
    assert err.startswith("internal error: witness re-verification failed")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_search_notes_unchecked_exceptional_hits(capsys, monkeypatch):
    """More N = 14 hits than kept witnesses: one stderr note, stdout and
    exit code as before."""
    from planecurves import search

    gf4 = field_for(4)
    record = search.SearchRecord(
        q=4, degree=4, mode="random", seed=1, generator="stub", engine="stub",
        curves_examined=3, histogram={14: 3}, best_N=14,
        witnesses=[exceptional_quartic(gf4)], witness_cap=1,
    )
    monkeypatch.setattr(search, "run_search", lambda task, workers=1: record)
    code, out, err = run_cli(
        capsys, "search", "--field", "p=2,k=2", "--degree", "4", "--mode", "random",
        "--seed", "1", "--samples", "3", "--require-no-linear-component",
        "--witness-cap", "1", "--no-timestamp",
    )
    assert code == 0
    assert out == json.dumps(record.to_json_dict(), sort_keys=True) + "\n"
    assert err.count("\n") == 1 and "1 of 3" in err and "--witness-cap" in err


def test_search_flags_a_kept_witness_that_is_not_the_exceptional_quartic(capsys, monkeypatch):
    """N = 14 over GF(4) is forgiven only when every kept witness is the
    exceptional quartic; the threshold is bound_values' sziklai value."""
    from planecurves import search

    gf4 = field_for(4)
    quartic = exceptional_quartic(gf4)
    # XYZ(X + Y + Z) also has 14 points, on four lines
    other = PlaneCurve(gf4, 4, {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1})
    for witnesses, expected in (([quartic], 0), ([quartic, other], 2), ([], 2)):
        record = search.SearchRecord(
            q=4, degree=4, mode="random", seed=1, generator="stub", engine="stub",
            curves_examined=3, histogram={14: len(witnesses)}, best_N=14,
            witnesses=witnesses, witness_cap=2,
        )
        monkeypatch.setattr(search, "run_search", lambda task, workers=1: record)
        code, _, err = run_cli(
            capsys, "search", "--field", "p=2,k=2", "--degree", "4", "--mode", "random",
            "--seed", "1", "--samples", "3", "--require-no-linear-component", "--no-timestamp",
        )
        assert (code, err) == (expected, ""), witnesses
