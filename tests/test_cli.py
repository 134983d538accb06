import json

import pytest

from ekrlab import cli, search
from ekrlab.cli import main, parse_profiles
from ekrlab.families import Profile


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(x) for x in obj]
    return obj


class TestProfileParsing:
    def test_pairs_and_semicolons(self):
        assert parse_profiles("2,2;1,3") == [Profile(2, 2), Profile(1, 3)]

    def test_bare_integer_is_one_part(self):
        assert parse_profiles("2") == [Profile(2, 0)]

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_profiles("1,2,3")
        with pytest.raises(ValueError):
            parse_profiles("")


class TestBoundsCommand:
    def test_two_part_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n1", "4", "--n2", "4",
                               "--profiles", "2,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["bounds"]["frankl"] == 18
        assert data["bounds"]["nontrivial"] == 18
        assert data["bounds"]["two_sided"] == 18
        assert data["bounds"]["star_proven"] is False

    def test_proven_regime(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n1", "9", "--n2", "9",
                               "--profiles", "1,1", "--format", "json")
        data = json.loads(out)
        assert data["bounds"]["star"] == 9
        assert data["bounds"]["star_proven"] is True

    def test_one_part_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n1", "5", "--profiles", "2",
                               "--format", "json")
        data = json.loads(out)
        assert data["bounds"]["ekr"] == 4
        assert data["bounds"]["hm"] == 3
        assert data["bounds"]["cross"] == 8

    def test_precondition_rendered_na_with_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n1", "3", "--n2", "4",
                               "--profiles", "2,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert str(data["bounds"]["nontrivial"]).startswith("n/a:")

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n1", "4", "--n2", "4",
                               "--profiles", "2,0")
        assert code == 2
        assert "error" in err

    def test_out_directory_is_a_usage_error(self, capsys, tmp_path):
        # once wrote nothing and exited 0
        code, out, err = run_cli(capsys, "bounds", "--n1", "4", "--n2", "4", "--profiles", "2,2",
                                 "--format", "json", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert f"--out {tmp_path} is a directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_prints_nothing(self, capsys, tmp_path):
        # once printed the whole table, then exited 2 on opening the file
        target = tmp_path / "missingdir" / "x.json"
        code, out, err = run_cli(capsys, "bounds", "--n1", "4", "--n2", "4", "--profiles", "2,2",
                                 "--out", str(target))
        assert code == 2 and out == ""
        assert "No such file or directory" in err
        assert not target.parent.exists()

    def test_unknown_bound_name_exit_2(self, capsys):
        # an unknown --which once printed an empty table with exit 0
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n1", "4", "--n2", "4", "--profiles", "2,2", "--which", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("n2,name", [
        ("4", "star"), ("4", "star_proven"), ("0", "ekr"), ("0", "hm"), ("0", "cross"),
        ("4", "frankl"), ("4", "nontrivial"), ("4", "two_sided"),
    ])
    def test_every_choice_names_a_row(self, capsys, n2, name):
        code, out, _ = run_cli(capsys, "bounds", "--n1", "4", "--n2", n2,
                               "--profiles", "2" if n2 == "0" else "2,2",
                               "--which", name, "--format", "json")
        assert code == 0 and list(json.loads(out)["bounds"]) == [name]


class TestSearchCommand:
    def test_search_json(self, capsys):
        code, out, _ = run_cli(capsys, "search-max", "--n1", "4", "--n2", "4",
                               "--profiles", "2,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["max_size"] == 18 and data["proven_optimal"] is True

    def test_search_nontrivial(self, capsys):
        code, out, _ = run_cli(capsys, "search-max", "--n1", "5", "--profiles", "2",
                               "--constraint", "nontrivial", "--format", "json")
        assert json.loads(out)["max_size"] == 3

    def test_budget_path(self, capsys):
        code, out, _ = run_cli(capsys, "search-max", "--n1", "4", "--n2", "4",
                               "--profiles", "2,2", "--node-limit", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["proven_optimal"] is False
        assert data["max_size"] >= 1

    @pytest.mark.parametrize("flag,value", [("--time-limit-ms", "0"), ("--time-limit-ms", "-5"),
                                            ("--node-limit", "0"), ("--node-limit", "-1")])
    def test_budget_must_be_positive(self, capsys, flag, value):
        # zero is not "no budget": it is rejected like a negative value
        code, out, err = run_cli(capsys, "search-max", "--n1", "4", "--n2", "4",
                                 "--profiles", "2,2", flag, value)
        assert code == 2
        assert out == "" and "must be positive" in err

    def test_time_limit_error_names_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "search-max", "--n1", "4", "--n2", "4",
                               "--profiles", "2,2", "--time-limit-ms", "0")
        assert code == 2 and "--time-limit-ms must be positive" in err

    def test_vertex_cap_before_enumeration(self, capsys):
        # C(40,20) = 137846528820 sets: refused from their count, not after building them
        code, out, err = run_cli(capsys, "search-max", "--n1", "40", "--profiles", "20")
        assert code == 2 and out == ""
        assert "137846528820 candidate sets exceed the vertex cap" in err

    def test_clique_deeper_than_the_recursion_limit(self, capsys):
        code, out, err = run_cli(capsys, "search-max", "--n1", "13", "--profiles", "7",
                                 "--format", "json")
        assert code == 0, err
        data = json.loads(out)
        assert data["max_size"] == 1716 and data["proven_optimal"] is True

    def test_deterministic_output_excluding_elapsed(self, capsys):
        args = ("search-max", "--n1", "4", "--n2", "4", "--profiles", "2,2",
                "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert strip_elapsed(json.loads(out1)) == strip_elapsed(json.loads(out2))


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemma", "1", "--n", "7", "--k", "3")
        assert code == 0
        assert "pass" in out

    def test_sampled_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemma", "7", "--n1", "5", "--n2", "5",
                               "--b", "1", "--shapes", "1,1", "--mode", "sampled")
        assert code == 2

    def test_sampled_with_seed(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemma", "7", "--n1", "5", "--n2", "5",
                               "--b", "1", "--shapes", "1,1", "--mode", "sampled",
                               "--seed", "1", "--trials", "50", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["instances"] == 50 and data["counterexamples"] == []

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_sampled_needs_a_trial(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify-lemma", "9", "--n1", "10", "--n2", "10",
                                 "--b", "1", "--shapes", "1,1", "--mode", "sampled",
                                 "--seed", "1", "--trials", trials)
        assert code == 2 and out == "" and "trials >= 1" in err

    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify-lemma", "2", "--n", "10", "--k", "2",
                               "--b", "2", "--format", "json", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out  # the file holds the JSON report as printed
        data = json.loads(out_path.read_text())
        assert data["instances"] == 252

    @pytest.mark.parametrize("mode", [["--mode", "sampled", "--seed", "1"], []])
    def test_small_space_has_no_instance(self, capsys, mode):
        # 64 unit rectangles cannot hold a family of 9b^2 = 81; sampled mode crashed here
        code, out, _ = run_cli(capsys, "verify-lemma", "3", "--n1", "8", "--n2", "8", "--k", "1",
                               "--l", "1", "--b", "3", *mode, "--format", "json")
        assert code == 0
        assert json.loads(out)["instances"] == 0

    def test_repeated_shape_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify-lemma", "7", "--n1", "5", "--n2", "5",
                                 "--b", "1", "--shapes", "1,1;1,1")
        assert code == 2 and out == "" and "shape (1,1) is listed twice" in err

    @pytest.mark.parametrize("argv,missing", [
        (["3"], "n1"),
        (["7", "--n1", "5", "--n2", "5", "--b", "1"], "shapes"),
    ])
    def test_missing_parameter_exit_2(self, capsys, argv, missing):
        code, _, err = run_cli(capsys, "verify-lemma", *argv)
        assert code == 2
        assert f"missing parameter {missing!r}" in err


class TestDoubleCountCommand:
    def test_random_families(self, capsys):
        code, out, _ = run_cli(capsys, "double-count", "--n1", "3", "--n2", "3",
                               "--profiles", "1,1;2,1", "--random", "20", "--seed", "42")
        assert code == 0
        assert out.startswith("20/20")

    def test_family_file(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"n1": 3, "n2": 3, "sets": [[0, 3], [0, 4], [1, 3]]}))
        code, out, _ = run_cli(capsys, "double-count", "--family", str(fam))
        assert code == 0
        assert "exact=True" in out

    def test_needs_seed_for_random(self, capsys):
        code, _, err = run_cli(capsys, "double-count", "--n1", "3", "--n2", "3",
                               "--profiles", "1,1", "--random", "5")
        assert code == 2

    def test_random_needs_universe_and_profiles(self, capsys):
        code, _, err = run_cli(capsys, "double-count", "--random", "5", "--seed", "1")
        assert code == 2
        assert "--n1" in err and "--profiles" in err
        code, _, err = run_cli(capsys, "double-count", "--n1", "3", "--random", "5",
                               "--seed", "1")
        assert code == 2
        assert "--profiles" in err

    def test_part_size_cap_before_enumeration(self, capsys, monkeypatch):
        # C(22,11) = 705432 candidate sets were built just to print the cap error
        def unbounded(*args):
            raise AssertionError("candidate sets enumerated past the cap")

        monkeypatch.setattr(cli, "candidate_sets", unbounded)
        code, out, err = run_cli(capsys, "double-count", "--n1", "22", "--profiles", "11",
                                 "--random", "1", "--seed", "1")
        assert code == 2 and out == ""
        assert "double counting limited to parts of size <= 6" in err

    @pytest.mark.parametrize("extra", [[], ["--random", "0"], ["--random", "-3"]])
    def test_no_random_families_is_a_usage_error(self, capsys, extra):
        code, out, err = run_cli(capsys, "double-count", "--n1", "3", "--n2", "3",
                                 "--profiles", "1,1", "--seed", "1", *extra)
        assert code == 2
        assert "--random must be at least 1" in err
        assert "families satisfy" not in out


class TestCheckFamilyCommand:
    def test_report(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"n1": 2, "n2": 2, "sets": [[0, 2], [0, 3]]}))
        code, out, _ = run_cli(capsys, "check-family", "--file", str(fam), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["intersecting"] is True
        assert data["trivially_intersecting"] is True
        assert data["trivial_witness"] == 0
        assert data["two_sided"] is False

    def test_duplicate_file_rejected(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"n1": 2, "n2": 2, "sets": [[0, 2], [0, 2]]}))
        code, _, err = run_cli(capsys, "check-family", "--file", str(fam))
        assert code == 2
        assert "duplicate" in err

    @pytest.mark.parametrize("data", [
        {"n1": 2, "n2": 2},
        {"n1": 2, "n2": 2, "sets": 5},
        {"n1": 2, "n2": 2, "sets": [[0, "2"]]},
        [[0, 2], [0, 3]],
        {"n1": 2, "n2": 2, "sets": [[0, 0]]},
    ], ids=["no-sets", "sets-not-a-list", "non-integer-element", "top-level-list",
            "repeated-element"])
    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path, data):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-family", "--file", str(fam))
        assert code == 2 and err.startswith("error:") and not out


class TestEnumerateCommand:
    def test_lists_sets(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n1", "2", "--n2", "2",
                               "--profiles", "1,1", "--format", "json")
        data = json.loads(out)
        assert data["count"] == 4
        assert data["sets"] == [[0, 2], [0, 3], [1, 2], [1, 3]]

    def test_vertex_cap_before_enumeration(self, capsys, monkeypatch):
        # C(40,20) = 137846528820 sets: refused from their count, not after listing them
        def unbounded(*args):
            raise AssertionError("candidate sets enumerated past the cap")

        monkeypatch.setattr(search, "candidate_sets", unbounded)
        code, out, err = run_cli(capsys, "enumerate", "--n1", "40", "--profiles", "20")
        assert code == 2 and out == ""
        assert "137846528820 candidate sets exceed the vertex cap" in err


class TestHuntCommand:
    def test_hunt_and_resume(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [[2, 2, 1, 1], [4, 4, 2, 2]]}))
        out_dir = str(tmp_path / "reports")
        code, out, _ = run_cli(capsys, "hunt", "--conjecture", "1",
                               "--grid", str(grid), "--out", out_dir)
        assert code == 0
        jsonl = tmp_path / "reports" / "hunt-conjecture1.jsonl"
        assert len(jsonl.read_text().splitlines()) == 2
        assert (tmp_path / "reports" / "hunt-conjecture1.csv").exists()
        code, out, _ = run_cli(capsys, "hunt", "--conjecture", "1",
                               "--grid", str(grid), "--out", out_dir, "--resume")
        assert code == 0
        assert len(jsonl.read_text().splitlines()) == 2

    def test_counterexample_exit_one(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [[5, 5, 2, 2]]}))
        code, out, _ = run_cli(capsys, "hunt", "--conjecture", "1",
                               "--grid", str(grid), "--out", str(tmp_path))
        assert code == 1
        assert "counterexample" in out

    @pytest.mark.parametrize("budget", [{"node_limit": 0}, {"time_limit_ms": 0},
                                        {"time_limit_ms": -5}])
    def test_grid_budget_must_be_positive(self, capsys, tmp_path, budget):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [[2, 2, 1, 1]], **budget}))
        code, _, err = run_cli(capsys, "hunt", "--conjecture", "1",
                               "--grid", str(grid), "--out", str(tmp_path / "reports"))
        assert code == 2 and "must be positive" in err
        assert not (tmp_path / "reports").exists()

    def test_grid_time_limit_error_names_the_key(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [[2, 2, 1, 1]], "time_limit_ms": 0}))
        code, _, err = run_cli(capsys, "hunt", "--conjecture", "1",
                               "--grid", str(grid), "--out", str(tmp_path / "reports"))
        assert code == 2 and "time_limit_ms must be positive" in err

    @pytest.mark.parametrize("data", [
        {"cells": [[4, 4, 2]]},
        {"cells": [[4, 4, "2", 2]]},
        {"n1_range": [2, 3]},
        {"cells": [[4, 4, 2, 2]], "node_limit": "5"},
        {"cells": [[4, 4, 2, 2]], "time_limit_ms": "5"},
        [1, 2],
        {"cells": [[4, 4, 2, 2]], "nodelimit": 5},
        {"cells": [[4, 4, 2, 2]], "n1_range": [2, 3]},
        {"cells": [[4, 4, 0, 1]]},
        {"cells": [[4, 4, -1, 2]]},
        {"n1_range": [2, 3], "n2_range": [2, 3], "k_range": [0, 1], "l_range": [1, 1]},
        {"cells": [[4, 4, 2, 2], [4, 4, 2, 2]]},
    ], ids=["short-cell", "string-in-cell", "missing-ranges", "string-node-limit",
            "string-time-limit", "top-level-list", "unknown-key", "cells-and-ranges",
            "zero-k", "negative-k", "zero-k-range", "repeated-cell"])
    def test_malformed_grid_is_a_usage_error(self, capsys, tmp_path, data):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "hunt", "--conjecture", "1",
                               "--grid", str(grid), "--out", str(tmp_path / "reports"))
        assert code == 2 and err.startswith("error:")
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, capsys, tmp_path, threads):
        # once ran serially and exited 0, then exited 2 leaving an empty --out directory
        code, _, err = run_cli(capsys, "hunt", "--conjecture", "1", "--threads", threads,
                               "--out", str(tmp_path / "reports"))
        assert code == 2 and "--threads must be at least 1" in err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("record", ['{"conjecture": 1, "n1": 2}', "[1, 2]"],
                             ids=["missing-key", "array"])
    def test_resume_on_a_wrong_shape_record_exit_2(self, capsys, tmp_path, record):
        # once ended in an internal error (KeyError / AttributeError), exit 1
        (tmp_path / "hunt-conjecture1.jsonl").write_text(record + "\n")
        code, _, err = run_cli(capsys, "hunt", "--conjecture", "1", "--resume",
                               "--out", str(tmp_path))
        assert code == 2 and err.startswith("error: a hunt record")

    def test_bad_conjecture_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "hunt", "--conjecture", "3",
                               "--out", str(tmp_path))
        assert code == 2
