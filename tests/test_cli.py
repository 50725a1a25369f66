import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mimlab.cli import main
from mimlab.generators import fixtures, skew_grid
from mimlab.graph import parse_edge_list, read_edge_list, write_edge_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_fixture_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "fixture", "c4")
        assert code == 0
        assert parse_edge_list(out) == fixtures()["c4"]

    def test_skew_grid_to_file(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        code, _, _ = run_cli(
            capsys, "gen", "skew-grid", "--p", "3", "--q", "2", "--r", "2",
            "-o", str(path),
        )
        assert code == 0
        g = read_edge_list(path)
        expected, _ = skew_grid(3, 2, 2)
        assert g.n == expected.n and set(g.edges()) == set(expected.edges())
        assert "c meta family skew-grid" in path.read_text()

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "skew", "--q", "0")
        assert code == 2
        assert "error" in err

    # SHA-256 of the edge list each family writes, comment lines included.
    @pytest.mark.parametrize("argv, digest", [
        (["skew", "--q", "3"],
         "2fbf9d0447948527c9fc0cde40db26a330ed94816fe7bf97e255b7293a753136"),
        (["skew-path", "--p", "3", "--q", "2"],
         "76293054550bc5e77759ee7e3905f28ec4857aac4e1a7b6ba675287032e4ac08"),
        (["skew-grid", "--p", "2", "--q", "2", "--r", "2"],
         "7ceb9a21b0e653bc0ad8708bceeb79b3ad18a388afed1fc520e2c7465ab7bdaf"),
        (["cliquethread", "--r", "3"],
         "24c50835f5738ee9732224fe346ee79cd54d52e6c3b23e808ff239f4195eb0ad"),
        (["grid", "--p", "2", "--r", "3"],
         "580b812317886973f631ea9fd77305cf5a8ccb120107dafbd20d31fcaff876fe"),
        (["corona", "--k", "3"],
         "28f7c15cb2633abb298613f52e5dec5d0ae0214170253443f5cd384e09777055"),
        (["pmatch", "--k", "2"],
         "09d6c2856550060f53e39f5ba5deac6418d59a7170e52b130a1ae5601b2f1d97"),
        (["fixture", "c4"],
         "515a99234d177f677d3f38568c74977fab94564b6dbd0154165301055c60c0b8"),
        (["fixture", "k2"],
         "fe8934d24d337752f0bbc2b45df0efaf3d139678e347eb49ef8d07f953ded381"),
        (["fixture", "tworows"],
         "c8af3a714a58898e2183b50087d729bf0aed3957cc0a1b7afa40340b2a4b07e5"),
    ])
    def test_every_family_output_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "gen", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWidth:
    def test_exact(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        code, out, _ = run_cli(
            capsys, "width", "--variant", "lu", "--input", str(path)
        )
        assert code == 0
        assert "value: 1" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        code, out, _ = run_cli(
            capsys, "--json", "width", "--variant", "lmim", "--input", str(path)
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == 1
        assert sorted(payload["ordering"]) == [1, 2, 3, 4]

    def test_heuristic(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        code, out, _ = run_cli(
            capsys, "width", "--variant", "lu", "--input", str(path),
            "--heuristic",
        )
        assert code == 0
        assert "mode: heuristic" in out

    def test_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        # With no flag and no env the exact search runs under
        # DEFAULT_EXACT_BUDGET; clique_thread(3) tests 243 prefix sets.
        from mimlab.generators import clique_thread

        monkeypatch.setattr("mimlab.width.DEFAULT_EXACT_BUDGET", 100)
        monkeypatch.delenv("MIMLAB_BUDGET", raising=False)
        path = tmp_path / "ct3.edges"
        write_edge_list(clique_thread(3), path)
        code, _, err = run_cli(
            capsys, "width", "--variant", "lu", "--input", str(path)
        )
        assert code == 3
        assert "budget" in err

    def test_exact_beyond_24_vertices(self, tmp_path, capsys, monkeypatch):
        from mimlab.generators import clique_thread

        monkeypatch.delenv("MIMLAB_BUDGET", raising=False)
        path = tmp_path / "ct5.edges"
        write_edge_list(clique_thread(5), path)  # 25 vertices
        code, out, _ = run_cli(
            capsys, "width", "--variant", "lu", "--input", str(path)
        )
        assert code == 0
        assert "value: 1" in out

    # clique_thread(3) tests 243 prefix sets in the exact search.
    @pytest.mark.parametrize("flag, env", [
        (("--budget", "1"), None),
        ((), "1"),
        (("--budget", "242"), "10000"),
    ])
    def test_exact_budget_exit_3(self, tmp_path, capsys, monkeypatch, flag,
                                 env):
        from mimlab.generators import clique_thread

        path = tmp_path / "ct3.edges"
        write_edge_list(clique_thread(3), path)
        if env is not None:
            monkeypatch.setenv("MIMLAB_BUDGET", env)
        code, _, err = run_cli(
            capsys, "width", "--variant", "lu", "--input", str(path), *flag
        )
        assert code == 3
        assert "exact width search: work budget of" in err

    def test_exact_within_budget(self, tmp_path, capsys, monkeypatch):
        from mimlab.generators import clique_thread

        path = tmp_path / "ct3.edges"
        write_edge_list(clique_thread(3), path)
        monkeypatch.setenv("MIMLAB_BUDGET", "243")
        code, out, _ = run_cli(
            capsys, "width", "--variant", "lu", "--input", str(path)
        )
        assert code == 0
        assert "value: 1" in out


class TestTraces:
    def test_text(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        code, out, _ = run_cli(
            capsys, "traces", "--input", str(path), "--side", "1,2"
        )
        assert code == 0
        assert "trace family (3 members)" in out
        assert "not applicable" in out  # complement {x3,x4} is not independent

    def test_json(self, tmp_path, capsys):
        from mimlab.generators import skew

        path = tmp_path / "skew.edges"
        write_edge_list(skew(3), path)
        code, out, _ = run_cli(
            capsys, "--json", "traces", "--input", str(path),
            "--side", "1,2,3",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["trace_count"] == 4
        assert payload["matching_size"] == 1
        assert payload["bound_check"]["within_binomial"]

    @pytest.mark.parametrize("side, applies", [("1,2,3", True),
                                               ("1,2", False)])
    def test_one_family_and_one_matching_search(self, tmp_path, capsys,
                                                monkeypatch, side, applies):
        import importlib

        import mimlab.cli as cli
        from mimlab.generators import skew

        # the package's `traces` function hides the module's name
        traces_module = importlib.import_module("mimlab.traces")

        path = tmp_path / "skew.edges"
        write_edge_list(skew(3), path)
        calls = {"trace_masks": 0, "max_induced_cut_matching": 0}
        for name in calls:
            real = getattr(cli, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (cli, traces_module):
                monkeypatch.setattr(module, name, counted)
        code, out, _ = run_cli(
            capsys, "traces", "--input", str(path), "--side", side
        )
        assert code == 0
        assert calls == {"trace_masks": 1, "max_induced_cut_matching": 1}
        assert ("bound check: count=4 binomial=4 power=36 ok=True" in out) \
            == applies

    def test_budget_exit_3(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        code, _, err = run_cli(
            capsys, "traces", "--input", str(path), "--side", "1,2",
            "--budget", "1",
        )
        assert code == 3
        assert "budget" in err

    def test_non_integer_side_names_the_token(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        code, _, err = run_cli(
            capsys, "traces", "--input", str(path), "--side", "1,a"
        )
        assert code == 2
        assert "vertex 'a' is not an integer" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_nonpositive_budget_exit_2(self, tmp_path, capsys, budget):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        with pytest.raises(SystemExit) as exc:
            main(["traces", "--input", str(path), "--side", "1,2",
                  f"--budget={budget}"])
        assert exc.value.code == 2
        assert "--budget: must be a positive integer" in \
            capsys.readouterr().err

    def test_invalid_env_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        monkeypatch.setenv("MIMLAB_BUDGET", "abc")
        code, _, err = run_cli(
            capsys, "traces", "--input", str(path), "--side", "1,2"
        )
        assert code == 2
        assert "MIMLAB_BUDGET must be a positive integer, got 'abc'" in err


class TestObdd:
    def test_build_with_order(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        code, out, _ = run_cli(
            capsys, "obdd", "--input", str(path), "--order", "3,1,2,4"
        )
        assert code == 0
        assert "equivalence check: pass" in out
        assert "accepting assignments: 7" in out

    def test_minimize_and_exports(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        dot = tmp_path / "z.dot"
        dimacs = tmp_path / "z.cnf"
        code, out, _ = run_cli(
            capsys, "obdd", "--input", str(path), "--minimize", "dp",
            "--dot", str(dot), "--dimacs", str(dimacs),
        )
        assert code == 0
        assert "minimal quasi-reduced size: 7" in out
        assert dot.read_text().startswith("digraph")
        assert dimacs.read_text().startswith("p cnf 4 4")

    def test_minimize_exact_matches_dp(self, tmp_path, capsys):
        path = tmp_path / "c4.edges"
        write_edge_list(fixtures()["c4"], path)
        _, out_dp, _ = run_cli(capsys, "obdd", "--input", str(path),
                               "--minimize", "dp")
        _, out_enum, _ = run_cli(capsys, "obdd", "--input", str(path),
                                 "--minimize", "exact")
        pick = lambda out: [l for l in out.splitlines() if "minimal" in l]
        assert pick(out_dp) == pick(out_enum)

    @pytest.mark.parametrize("flag, env", [
        (("--budget", "1"), None),
        ((), "1"),
    ])
    def test_minimize_dp_budget_exit_3(self, tmp_path, capsys, monkeypatch,
                                       flag, env):
        from mimlab.generators import clique_thread

        path = tmp_path / "ct3.edges"
        write_edge_list(clique_thread(3), path)
        if env is not None:
            monkeypatch.setenv("MIMLAB_BUDGET", env)
        code, out, err = run_cli(capsys, "obdd", "--input", str(path),
                                 "--minimize", "dp", *flag)
        assert code == 3
        assert "OBDD minimization DP: work budget of" in err
        assert "minimal" not in out

    def test_over_the_variable_limit_exit_3(self, tmp_path, capsys):
        path = tmp_path / "sg.edges"
        write_edge_list(skew_grid(4, 2, 2)[0], path)
        code, _, err = run_cli(capsys, "obdd", "--input", str(path))
        assert code == 3
        assert "exhaustive equivalence check on 28 variables: " \
            "variable limit of 20 exceeded" in err

    def test_minimize_dp_unbudgeted(self, tmp_path, capsys, monkeypatch):
        from mimlab.generators import clique_thread

        path = tmp_path / "ct3.edges"
        write_edge_list(clique_thread(3), path)
        monkeypatch.delenv("MIMLAB_BUDGET", raising=False)
        code, out, _ = run_cli(capsys, "obdd", "--input", str(path),
                               "--minimize", "dp")
        assert code == 0
        assert "minimal quasi-reduced size: 29" in out
        assert "minimal reduced size: 26" in out


class TestVerify:
    def test_small_run_exit_0(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "corona,vc",
            "--csv", str(csv_path), "--json-out", str(json_path),
        )
        assert code == 0
        assert "rows=" in out
        assert csv_path.exists() and json_path.exists()

    def test_unknown_param_exit_2(self, capsys, monkeypatch):
        import mimlab.cli
        from mimlab.harness import ExperimentSpec

        def spec_with_typo(**kw):
            params = dict(kw.pop("params"), corona_k=(3,))
            return ExperimentSpec(params=params, **kw)

        monkeypatch.setattr(mimlab.cli, "ExperimentSpec", spec_with_typo)
        code, _, err = run_cli(capsys, "verify", "--checks", "corona")
        assert code == 2
        assert "unknown verify parameter 'corona_k'" in err

    def test_unknown_check_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "bogus")
        assert code == 2
        assert "unknown check" in err

    # Each of these used to check nothing and exit 0 with rows=0.
    @pytest.mark.parametrize("flag", ["--pair-n", "--corpus-n"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_corpus_size_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--checks", "shrink", f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"{flag}: must be a positive integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--pair-n", "pair_max_n"),
                                           ("--corpus-n", "corpus_max_n")])
    def test_corpus_over_the_cap_exit_2(self, capsys, monkeypatch, flag, key):
        # refused before any corpus is built
        import mimlab.cli

        def no_verify(spec):
            raise AssertionError("verify ran")

        monkeypatch.setattr(mimlab.cli, "verify", no_verify)
        code, out, err = run_cli(capsys, "verify", "--checks", "trace-bound",
                                 flag, "9")
        assert code == 2
        assert f"{key}=9: exhaustive corpus capped at n=8" in err
        assert "rows=" not in out

    def test_negative_random_count_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--checks", "obdd-sandwich",
                  "--random-count=-1"])
        assert exc.value.code == 2
        assert "--random-count: must be a non-negative integer" in \
            capsys.readouterr().err

    def test_no_checks_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", ",")
        assert code == 2
        assert "no check requested" in err
        assert "rows=" not in out

    def test_trace_suites_export_pinned(self, tmp_path, capsys):
        # The suites built on the trace and matching kernels, small enough
        # to run on every test pass; any change to a row changes the digest.
        json_path = tmp_path / "rows.json"
        code, _, _ = run_cli(
            capsys, "verify", "--checks", "trace-bound,shrink,vc,corona",
            "--pair-n", "5", "--seed", "0", "--json-out", str(json_path),
        )
        assert code == 0
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == \
            "07dad0f0e61f57c60e49a542bfe0666ee92e86f2194887d2509262c027b1ad0a"

    @pytest.mark.parametrize("checks", [
        ["corona"],
        ["subfunction-traces", "--corpus-n", "3"],
        ["trace-bound,shrink", "--pair-n", "3"],
    ])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_budget_skips_rows_and_strict_exits_3(self, capsys, monkeypatch,
                                                  checks, source):
        # --budget, else MIMLAB_BUDGET, reaches every engine of the suites:
        # a budget of 1 skips every row, which --strict turns into exit 3.
        if source == "env":
            monkeypatch.setenv("MIMLAB_BUDGET", "1")
            budget = []
        else:
            budget = ["--budget", "1"]
        argv = ["verify", "--checks", *checks, *budget]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = int(out.split("rows=")[1].split()[0])
        assert rows and f"failed=0 skipped={rows}" in out
        assert "budget of 1 exceeded" in out
        code, _, _ = run_cli(capsys, *argv, "--strict")
        assert code == 3

    def test_budget_keeps_every_row_it_does_not_skip(self, tmp_path, capsys):
        # A budget that the rest-cut pass's cut enumeration or walk exceeds
        # on some graphs only: every other row is the unbudgeted one.
        paths = [tmp_path / "free.json", tmp_path / "budget.json"]
        for path, budget in zip(paths, ([], ["--budget", "20"])):
            run_cli(capsys, "verify", "--checks", "trace-bound,shrink",
                    "--pair-n", "4", "--json-out", str(path), *budget)
        free, capped = (json.loads(p.read_text()) for p in paths)
        skipped = [d for d in capped if d["skipped"]]
        details = {d["detail"] for d in skipped}
        assert details == {
            "independent set enumeration: work budget of 20 exceeded",
            "trace family transition: work budget of 20 exceeded"}
        assert len(skipped) < len(capped) == len(free)
        kept = {(d["check"], d["instance"]) for d in capped
                if not d["skipped"]}
        assert [d for d in capped if not d["skipped"]] == \
            [d for d in free if (d["check"], d["instance"]) in kept]

    def test_no_instance_exit_2(self, capsys):
        # the connected corpus starts at n = 2
        code, out, err = run_cli(capsys, "verify", "--checks",
                                 "subfunction-traces", "--corpus-n", "1")
        assert code == 2
        assert "select no instance" in err
        assert "rows=" not in out


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "mimlab", "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: mimlab" in proc.stdout


class TestExport:
    def test_json_to_csv(self, tmp_path, capsys):
        json_path = tmp_path / "rows.json"
        csv_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--checks", "corona",
            "--json-out", str(json_path),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "export", "--rows", str(json_path),
            "--format", "csv", "--out", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + three corona rows

    def test_csv_matches_direct_export(self, tmp_path, capsys):
        json_path = tmp_path / "rows.json"
        direct_csv = tmp_path / "direct.csv"
        via_export = tmp_path / "via.csv"
        run_cli(capsys, "verify", "--checks", "corona",
                "--json-out", str(json_path), "--csv", str(direct_csv))
        run_cli(capsys, "export", "--rows", str(json_path),
                "--format", "csv", "--out", str(via_export))
        assert direct_csv.read_bytes() == via_export.read_bytes()

    @pytest.mark.parametrize("timing", [[], ["--timing"]])
    def test_round_trip_reproduces_both_exports(self, tmp_path, capsys,
                                                timing):
        rows_json = tmp_path / "a.json"
        rows_csv = tmp_path / "a.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--checks", "corona,vc,separation",
            "--json-out", str(rows_json), "--csv", str(rows_csv), *timing,
        )
        assert code == 0
        for fmt, original in (("json", rows_json), ("csv", rows_csv)):
            again = tmp_path / f"again.{fmt}"
            code, _, _ = run_cli(
                capsys, "export", "--rows", str(rows_json),
                "--format", fmt, "--out", str(again), *timing,
            )
            assert code == 0
            assert again.read_bytes() == original.read_bytes()
        assert ('"wall_ms"' in rows_json.read_text()) == bool(timing)

    @pytest.mark.parametrize("rows, message", [
        ({"a": 1}, "expected a JSON list of rows, got dict"),
        ([1], "row 0 is not a JSON object: 1"),
        ([{"check": "x", "bogus": 1}], "row 0 has unknown key 'bogus'"),
        ([{"check": "x", "instance": "y"}, {"check": "x"}],
         "row 1 has no 'instance'"),
        ([{"check": "x", "instance": "y", "passed": "maybe"}],
         "row 0 has 'passed' = \"maybe\", not bool or null"),
        ([{"check": "x", "instance": "y", "n": [1]}],
         "row 0 has 'n' = [1], not int"),
        ([{"check": "x", "instance": "y", "seed": True}],
         "row 0 has 'seed' = true, not int"),
        ([{"check": "x", "instance": "y", "wall_ms": "slow"}],
         "row 0 has 'wall_ms' = \"slow\", not float"),
    ])
    def test_malformed_rows_exit_2(self, tmp_path, capsys, rows, message):
        rows_json = tmp_path / "rows.json"
        rows_json.write_text(json.dumps(rows))
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "export", "--rows", str(rows_json),
                               "--format", "csv", "--out", str(out))
        assert code == 2
        assert err == f"error: {rows_json}: {message}\n"
        assert not out.exists()

    def test_integer_wall_ms_is_a_number(self, tmp_path, capsys):
        rows_json = tmp_path / "rows.json"
        rows_json.write_text(json.dumps(
            [{"check": "x", "instance": "y", "wall_ms": 3, "lu": None}]))
        out = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, "export", "--rows", str(rows_json),
                             "--format", "json", "--out", str(out),
                             "--timing")
        assert code == 0
        assert json.loads(out.read_text())[0]["wall_ms"] == 3
