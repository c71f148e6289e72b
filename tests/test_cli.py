import argparse
import json

import pytest

from planecurves import cli
from planecurves.cli import main
from planecurves.catalog import CATALOG, catalog_curve, exceptional_quartic

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
        "--no-timestamp", "--m-budget", "9",
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
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_nonpositive_m_budget_refused(capsys, command, budget):
    """A budget below 1 is refused, never replaced by the default one."""
    code, out, err = run_cli(
        capsys, command, "--field", "p=5,k=1", "--inline", "0 2 1 1; 3 0 0 4",
        "--m-budget", budget, "--no-timestamp",
    )
    assert code == 1 and out == ""
    assert err == "error: m_budget must be >= 1\n"


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
    (["--degree", "-1"], "degree must be >= 0"),
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
], ids=["negative-degree", "no-samples", "negative-witness-cap", "zero-workers",
        "exhaustive-seed", "exhaustive-samples", "random-singular-at", "constrained-degree-1"])
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
