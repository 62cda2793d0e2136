"""Tests for the command-line interface.

Each subcommand is driven through ``main(argv)``; outputs are parsed
back from captured stdout and written files.  Exit codes follow the
contract: 0 success, 1 campaign failure, 2 input or solver error.
"""

import json
import random
import time

import pytest

from expansion_lab import cli, spanning
from expansion_lab.cli import main
from expansion_lab.exactla import IntMatrix, parse_matrix
from expansion_lab.harness import CampaignReport


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# span-check
# ---------------------------------------------------------------------------


def test_span_check_spanned(files, capsys):
    matrix = files("g.mat", "2 2\n1 0\n0 1\n")
    rc, data = run_json(capsys, ["span-check", matrix])
    assert rc == 0
    assert data["spanned"] is True
    assert data["witness_subset"] is None
    assert data["witness_vector"] is None
    assert data["subsets_checked"] == 3


def test_span_check_unspanned_reports_witness(files, capsys):
    matrix = files("g.mat", "1 2\n2 1\n")
    rc, data = run_json(capsys, ["span-check", matrix])
    assert rc == 0
    assert data["spanned"] is False
    assert data["witness_subset"] == [1]
    assert data["witness_vector"] == [1]


def test_span_check_odd_cycle_answers_with_a_witness(files, capsys):
    # e_i + e_(i+1) on a 23-cycle: the HNF pivot 2 decides it, where a
    # scan over subsets would pass _MAX_SUBSETS
    rows = [" ".join(str(int(j in (i, (i + 1) % 23))) for j in range(23))
            for i in range(23)]
    matrix = files("cycle.mat", "23 23\n" + "\n".join(rows) + "\n")
    rc, data = run_json(capsys, ["span-check", matrix])
    assert rc == 0
    assert data["spanned"] is False
    assert data["witness_subset"] == list(range(1, 24))
    # the lattice is the vectors of even coordinate sum, of index 2 in
    # Z^23, so a witness is exactly a vector of odd sum
    assert sum(data["witness_vector"]) % 2 == 1
    assert data["subsets_checked"] == 24


def test_span_check_witness_failure_is_a_solver_error(files, capsys, monkeypatch):
    # every witness candidate then looks like a lattice member
    monkeypatch.setattr(spanning, "lattice_member", lambda basis, x: True)
    matrix = files("g.mat", "1 2\n2 1\n")
    rc = main(["span-check", matrix])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "witness" in err


def test_span_check_subset_cap_is_a_solver_error(files, capsys, monkeypatch):
    # the certificate of the row 1 1 is priced at C(2, 1) = 2 rank-sized
    # minors, past a cap of 0
    monkeypatch.setattr(spanning, "_MAX_SUBSETS", 0)
    matrix = files("g.mat", "1 2\n1 1\n")
    rc = main(["span-check", matrix])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "cap" in err


# ---------------------------------------------------------------------------
# xi / xi-global / xi-zq
# ---------------------------------------------------------------------------


def test_xi_rational(files, capsys):
    matrix = files("a.mat", "1 2\n1 2\n")
    target = files("t.vec", "1\n")
    rc, data = run_json(capsys, ["xi", matrix, "--ring", "q", "--target", target])
    assert rc == 0
    assert data == {
        "value": "1/2",
        "target": ["1"],
        "witness": ["0", "1/2"],
        "ring": "Q",
        "solver": "lp",
        "exact": True,
    }


def test_xi_solver_flag_removed(files, capsys):
    # The face-enumeration route is a test oracle, not a CLI choice.
    matrix = files("a.mat", "1 2\n1 2\n")
    target = files("t.vec", "1\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["xi", matrix, "--solver", "face-oracle", "--target", target])
    assert excinfo.value.code == 2
    assert "--solver" in capsys.readouterr().err


def test_xi_integer(files, capsys):
    matrix = files("a.mat", "1 2\n1 2\n")
    target = files("t.vec", "1\n")
    rc, data = run_json(capsys, ["xi", matrix, "--ring", "z", "--target", target])
    assert rc == 0
    assert data["value"] == "1"
    assert data["witness"] == ["1", "0"]
    assert data["ring"] == "Z"


def test_xi_mod_q(files, capsys):
    matrix = files("a.mat", "1 2\n1 1\n")
    target = files("t.vec", "1\n")
    rc, data = run_json(
        capsys, ["xi", matrix, "--ring", "zq", "--modulus", "2", "--target", target]
    )
    assert rc == 0
    assert data["value"] == "1"
    assert data["ring"] == "Zq(2)"
    assert data["solver"] == "coset_bruteforce"


def test_xi_zq_without_modulus_is_an_input_error(files, capsys):
    matrix = files("a.mat", "1 2\n1 1\n")
    target = files("t.vec", "1\n")
    rc = main(["xi", matrix, "--ring", "zq", "--target", target])
    assert rc == 2
    assert "modulus" in capsys.readouterr().err


@pytest.mark.parametrize("ring", ["q", "z"])
def test_xi_modulus_without_ring_zq_is_an_input_error(files, capsys, ring):
    matrix = files("a.mat", "1 2\n1 1\n")
    target = files("t.vec", "1\n")
    rc = main(["xi", matrix, "--ring", ring, "--modulus", "3", "--target", target])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--modulus applies only to --ring zq" in captured.err


def test_xi_global_rational(files, capsys):
    matrix = files("a.mat", "1 2\n1 -1\n")
    rc, data = run_json(capsys, ["xi-global", matrix, "--ring", "q"])
    assert rc == 0
    assert data["value"] == "1"
    assert data["exact"] is True


def test_xi_global_integer_unspanned_is_inexact(files, capsys):
    matrix = files("a.mat", "1 2\n1 2\n")
    rc, data = run_json(capsys, ["xi-global", matrix, "--ring", "z"])
    assert rc == 0
    assert data["ring"] == "Z"
    assert data["exact"] is False


def test_xi_zq_global(files, capsys):
    matrix = files("a.mat", "1 2\n1 -1\n")
    rc, data = run_json(capsys, ["xi-zq", matrix, "--modulus", "2"])
    assert rc == 0
    assert data == {
        "value": "1",
        "attaining_target": ["1"],
        "ring": "Zq(2)",
        "exact": True,
    }


def test_xi_zq_global_identity_takes_the_first_block(files, capsys):
    matrix = files("a.mat", "2 2\n1 0\n0 1\n")
    rc, data = run_json(capsys, ["xi-zq", matrix, "--modulus", "2"])
    assert rc == 0
    assert (data["value"], data["attaining_target"]) == ("1", ["1", "0"])


def test_xi_zq_walk_past_the_coset_cap_is_a_solver_error(files, capsys):
    # rank 18 and an overlapping kernel of dimension 12 mod 2: 2 ** 30
    # coset vectors in all, refused before the walk starts
    rng = random.Random(3)
    rows = [" ".join(str(rng.randint(0, 1)) for _ in range(30)) for _ in range(18)]
    matrix = files("a.mat", "18 30\n" + "\n".join(rows) + "\n")
    start = time.perf_counter()
    rc = main(["xi-zq", matrix, "--modulus", "2"])
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert "coset size" in capsys.readouterr().err


def test_xi_mod_large_prime(files, capsys):
    matrix = files("a.mat", "1 2\n1 -1\n")
    target = files("t.vec", "1\n")
    argv = ["xi", matrix, "--ring", "zq", "--modulus", str(2**61 - 1)]
    rc, data = run_json(capsys, argv + ["--target", target])
    assert rc == 0
    assert data["value"] == "1"


def test_modulus_past_the_primality_bound_is_an_input_error(files, capsys):
    matrix = files("a.mat", "1 2\n1 -1\n")
    target = files("t.vec", "1\n")
    argv = ["xi", matrix, "--ring", "zq", "--modulus", str(2**89 - 1)]
    rc = main(argv + ["--target", target])
    assert rc == 2
    assert "bound" in capsys.readouterr().err


def test_xi_out_flag_writes_file(files, capsys, tmp_path):
    matrix = files("a.mat", "1 2\n1 2\n")
    target = files("t.vec", "1\n")
    out = tmp_path / "result.json"
    rc = main(["xi", matrix, "--target", target, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["value"] == "1/2"


# ---------------------------------------------------------------------------
# build-complex
# ---------------------------------------------------------------------------


def test_build_complex_from_graph(files, tmp_path, capsys):
    graph = files("g.graph", "3 2\n1 2\n2 3\n")
    out_dir = tmp_path / "out"
    rc = main(["build-complex", "--graph", graph, "--out-dir", str(out_dir)])
    assert rc == 0
    d0 = parse_matrix((out_dir / "d0.mat").read_text())
    assert d0 == IntMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
    d1 = parse_matrix((out_dir / "d1.mat").read_text())
    assert d1.rows == 0 and d1.cols == 2
    labels = json.loads((out_dir / "labels.json").read_text())
    assert labels["vertices"] == ["v1", "v2", "v3"]
    assert labels["faces"] == []


def test_build_complex_self_zero_is_an_input_error(files, tmp_path, capsys):
    # self 0 would read as the null edge and write a zero row.
    graph = files("g.graph", "2 1\nself 0\n")
    rc = main(["build-complex", "--graph", graph, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "line 2: self vertex 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_build_complex_without_vertices_is_read_back(files, tmp_path, capsys):
    # One null edge and no vertices: d0 is 1x0, written as a blank row.
    graph = files("g.graph", "0 1\n0 0\n")
    out_dir = tmp_path / "out"
    assert main(["build-complex", "--graph", graph, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    d0 = out_dir / "d0.mat"
    assert parse_matrix(d0.read_text()) == IntMatrix.zeros(1, 0)
    rc, data = run_json(capsys, ["span-check", str(d0)])
    assert rc == 0 and data["spanned"] is True


def test_build_complex_from_presentation(files, tmp_path, capsys):
    pres = files("p.pres", "gens: a b; rel: a b a^-1 b^-1\n")
    out_dir = tmp_path / "out"
    rc = main(["build-complex", "--presentation", pres, "--out-dir", str(out_dir)])
    assert rc == 0
    d1 = parse_matrix((out_dir / "d1.mat").read_text())
    assert d1 == IntMatrix.from_rows([[0, 0]])
    labels = json.loads((out_dir / "labels.json").read_text())
    assert labels["edges"] == ["a", "b"]
    assert labels["faces"] == ["r1"]


def test_build_complex_bad_presentation_is_an_input_error(files, capsys):
    pres = files("p.pres", "gens: a; rel: a c\n")
    rc = main(["build-complex", "--presentation", pres, "--out-dir", "."])
    assert rc == 2
    assert "c" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_equality_json_report(capsys):
    rc = main(["verify", "equality", "--seed", "5", "--count", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["campaign"] == "equality"
    assert report["ok"] is True
    assert "pass" in captured.err


def test_verify_cw_ignores_count(capsys):
    rc = main(["verify", "cw"])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["totals"]["skipped"] == 2


def test_verify_modq_primes_flag(capsys):
    rc = main(["verify", "modq", "--count", "1", "--primes", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert all(e["instance"].get("q", 2) == 2 for e in report["entries"])


def test_verify_presentations_n_range_flag(capsys):
    rc = main(["verify", "presentations", "--n-range", "3:4"])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    kinds = {e["instance"]["kind"] for e in report["entries"]}
    assert kinds == {"braid n=3", "steinberg n=3"}


def test_verify_presentations_from_two_strands(capsys):
    rc = main(["verify", "presentations", "--n-range", "2:4"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["totals"] == {"pass": 2, "fail": 0, "skipped": 2}


def test_verify_presentations_below_two_strands_is_an_input_error(capsys):
    rc = main(["verify", "presentations", "--n-range", "1:3"])
    assert rc == 2
    assert "needs n >= 2" in capsys.readouterr().err


def test_verify_presentations_empty_n_range_is_an_input_error(capsys):
    rc = main(["verify", "presentations", "--n-range", "5:3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--n-range must have a < b, got '5:3'" in captured.err


@pytest.mark.parametrize("primes", ["", " "])
def test_verify_modq_blank_primes_is_an_input_error(primes, capsys):
    rc = main(["verify", "modq", "--count", "1", "--primes", primes])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--primes must be comma-separated integers" in captured.err


@pytest.mark.parametrize("primes", ["2,2", "2,3,02"])
def test_verify_modq_repeated_prime_is_an_input_error(primes, capsys):
    # A repeated prime would run and report every check of it twice.
    rc = main(["verify", "modq", "--count", "1", "--primes", primes])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--primes repeats the prime 2" in captured.err


@pytest.mark.parametrize("campaign", ["modq", "lemma-oracle"])
def test_verify_negative_count_is_an_input_error(campaign, capsys):
    rc = main(["verify", campaign, "--count", "-3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--count must be at least 0, got -3" in captured.err


def test_verify_lemma_oracle_runs(capsys):
    rc = main(["verify", "lemma-oracle", "--count", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["totals"]["fail"] == 0


def test_verify_csv_out_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(
        ["verify", "equality", "--count", "1", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("campaign,index,verdict")
    assert len(lines) >= 5


def test_verify_failing_campaign_exits_one(monkeypatch, capsys):
    def fake_campaign(seed, count):
        report = CampaignReport("equality", seed, {"count": count})
        report.add({"kind": "forced"}, "fail", "forced failure", {})
        return report

    monkeypatch.setattr("expansion_lab.cli.campaign_equality", fake_campaign)
    rc = main(["verify", "equality", "--count", "1"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False


def test_verify_skips_alone_do_not_fail_the_run(monkeypatch, capsys):
    def fake_campaign(seed, count):
        report = CampaignReport("equality", seed, {"count": count})
        report.add({"kind": "capped"}, "skipped", "cap hit", {})
        return report

    monkeypatch.setattr("expansion_lab.cli.campaign_equality", fake_campaign)
    rc = main(["verify", "equality", "--count", "1"])
    assert rc == 0


# ---------------------------------------------------------------------------
# Error paths.
# ---------------------------------------------------------------------------


def test_missing_file_is_an_input_error(capsys):
    rc = main(["xi-global", "/nonexistent/matrix.mat"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_malformed_matrix_is_an_input_error(files, capsys):
    matrix = files("bad.mat", "2 2\n1 x\n0 1\n")
    rc = main(["span-check", matrix])
    assert rc == 2


def test_zero_target_is_a_solver_error(files, capsys):
    matrix = files("a.mat", "1 2\n1 2\n")
    target = files("t.vec", "0\n")
    rc = main(["xi", matrix, "--target", target])
    assert rc == 2
    assert "zero target" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "modq", "--count", "1", "--primes", "2,x"],
        ["verify", "presentations", "--n-range", "3"],
    ],
)
def test_malformed_campaign_flag_is_an_input_error(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")


def test_simplex_pivot_cap_is_a_solver_error(files, capsys, monkeypatch):
    # the kernel rows of [1 2 3] overlap, so the simplex runs and pivots
    monkeypatch.setattr("expansion_lab.simplex._MAX_PIVOTS", 0)
    matrix = files("a.mat", "1 3\n1 2 3\n")
    target = files("t.vec", "6\n")
    rc = main(["xi", matrix, "--target", target])
    assert rc == 2
    assert "pivot limit" in capsys.readouterr().err


def test_branch_and_bound_node_cap_is_a_solver_error(files, capsys, monkeypatch):
    monkeypatch.setattr("expansion_lab.expansion._MAX_NODES", 0)
    matrix = files("a.mat", "1 2\n1 2\n")
    target = files("t.vec", "1\n")
    rc = main(["xi", matrix, "--ring", "z", "--target", target])
    assert rc == 2
    assert "node limit" in capsys.readouterr().err


def test_non_prime_modulus_is_an_input_error(files, capsys):
    matrix = files("a.mat", "1 2\n1 1\n")
    target = files("t.vec", "1\n")
    rc = main(["xi", matrix, "--ring", "zq", "--modulus", "4", "--target", target])
    assert rc == 2
    assert "prime" in capsys.readouterr().err


def test_parser_is_built_once_per_process(files, tmp_path, capsys, monkeypatch):
    # main keeps the parser of its first call; an argparse error between
    # two calls changes neither the later output nor its exit code.
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        matrix = files("g.mat", "2 2\n1 0\n0 1\n")
        graph = files("path.graph", "3 2\n1 2\n2 3\n")
        first = run_json(capsys, ["span-check", matrix])
        for bad in (
            ["xi", matrix],  # --target is required
            ["build-complex", "--graph", graph, "--presentation", graph],
        ):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            assert "error:" in capsys.readouterr().err
            assert run_json(capsys, ["span-check", matrix]) == first
        # the mutually exclusive group accepts one source after the clash
        assert main(["build-complex", "--graph", graph, "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "d1.mat").read_text(encoding="utf-8") == "0 2\n"
        assert built == [1]
    finally:
        cli._parser.cache_clear()
