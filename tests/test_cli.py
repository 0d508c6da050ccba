import json

import pytest

from ilplab import cli
from ilplab.cli import EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from ilplab.instances import instance_from_doc
from ilplab.measures import CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_instance_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, stdout, _ = run(capsys, "gen", "sensitivity", "--delta", "2", "--d", "4", "--out", str(out))
        assert code == EXIT_OK
        assert "4x4" in stdout
        inst = instance_from_doc(json.loads(out.read_text()))
        assert inst.family == "sensitivity" and inst.delta == 2 and inst.d == 4

    def test_stdout_when_no_out(self, capsys):
        code, stdout, stderr = run(capsys, "gen", "proximity", "--delta", "2", "--d", "1")
        assert code == EXIT_OK
        assert "15x21" in stderr
        doc = json.loads(stdout)
        assert doc["family"] == "proximity"

    def test_binpack_doc_carries_sizes_and_objective(self, tmp_path, capsys):
        out = tmp_path / "bp.json"
        code, _, _ = run(capsys, "gen", "binpack-sens", "--delta", "2", "--d", "2", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["sizes"] == ["3/10", "7/20"]
        assert doc["epsilon"] == "1/20"
        assert doc["c1_indices"] == [0, 1]
        assert doc["c"][:2] == ["0", "0"] and set(doc["c"][2:]) == {"1"}

    def test_invalid_params_exit_usage(self, capsys):
        code, _, _ = run(capsys, "gen", "sensitivity", "--delta", "2", "--d", "3")
        assert code == EXIT_USAGE

    def test_unknown_family_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "mystery", "--delta", "2", "--d", "2"])
        assert exc.value.code == EXIT_USAGE


@pytest.fixture
def sens_file(tmp_path, capsys):
    out = tmp_path / "s24.json"
    assert main(["gen", "sensitivity", "--delta", "2", "--d", "4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    return str(out)


@pytest.fixture
def prox_file(tmp_path, capsys):
    out = tmp_path / "p23.json"
    assert main(["gen", "proximity", "--delta", "2", "--d", "3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    return str(out)


class TestVerify:
    def test_matchings(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--check", "matchings")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["passed"] and doc["report"]["matchings"] == 6
        assert set(doc["report"]["row_sums"]) == {2}
        assert set(doc["report"]["pairwise_shared_edges"]) == {1}

    def test_polytopish_on_staircase(self, sens_file, capsys):
        code, stdout, _ = run(capsys, "verify", "--check", "polytopish", "--in", sens_file)
        assert code == EXIT_OK
        assert json.loads(stdout)["report"]["verdict"] == "polytopish"

    def test_polytopish_budget_exit(self, sens_file, capsys):
        code, _, stderr = run(capsys, "verify", "--check", "polytopish", "--in", sens_file, "--budget", "2")
        assert code == EXIT_BUDGET

    def test_claims_sensitivity(self, sens_file, capsys):
        code, stdout, _ = run(capsys, "verify", "--check", "claims", "--in", sens_file)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["report"]["optima_counts"] == [1, 1]
        assert doc["report"]["matches_forward_substitution"]

    def test_claims_proximity(self, prox_file, capsys):
        code, stdout, _ = run(capsys, "verify", "--check", "claims", "--in", prox_file)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["report"]["optima_count"] == 7
        assert doc["report"]["certificate_feasible"]
        assert (doc["report"]["p"], doc["report"]["q"]) == (2, 5)

    def test_missing_input_exit_usage(self, capsys):
        code, _, _ = run(capsys, "verify", "--check", "polytopish")
        assert code == EXIT_USAGE


class TestMeasure:
    def test_sens_json(self, sens_file, capsys):
        code, stdout, _ = run(capsys, "measure", "sens", "--in", sens_file)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["measured"] == {"l1": "15", "linf": "8"}
        assert doc["cook_upper"] == "96"

    def test_sens_csv(self, sens_file, capsys):
        code, stdout, _ = run(capsys, "measure", "sens", "--in", sens_file, "--csv", "--norm", "linf")
        assert code == EXIT_OK
        cells = stdout.strip().split(",")
        assert cells[:6] == ["sensitivity", "2", "4", "linf", "8", "8"]
        assert cells[-1] == "ok"

    def test_prox_l1(self, prox_file, capsys):
        code, stdout, _ = run(capsys, "measure", "prox", "--in", prox_file, "--csv", "--norm", "l1")
        assert code == EXIT_OK
        cells = stdout.strip().split(",")
        assert cells[:6] == ["proximity", "2", "3", "l1", "73", "52"]

    def test_sens_without_alt_rhs_is_usage_error(self, prox_file, capsys):
        code, _, _ = run(capsys, "measure", "sens", "--in", prox_file)
        assert code == EXIT_USAGE

    def test_node_budget_exit(self, prox_file, capsys):
        code, _, _ = run(capsys, "measure", "prox", "--in", prox_file, "--node-budget", "5")
        assert code == EXIT_BUDGET

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "measure", "sens", "--in", "no-such-file.json")
        assert code == EXIT_USAGE


class TestMalformedInstance:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        return str(path)

    def test_float_matrix_entries_are_usage_error(self, sens_file, tmp_path, capsys):
        with open(sens_file) as fh:
            doc = json.load(fh)
        doc["matrix"] = [[float(x) for x in row] for row in doc["matrix"]]
        path = self.write(tmp_path, json.dumps(doc))
        code, _, stderr = run(capsys, "measure", "sens", "--in", path)
        assert code == EXIT_USAGE
        assert "usage error" in stderr and "'matrix'" in stderr

    def test_non_object_document_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "measure", "sens", "--in", self.write(tmp_path, "[1, 2]"))
        assert code == EXIT_USAGE
        assert "usage error" in stderr and "JSON object" in stderr

    def test_bounds_refuse_non_integral_matrix(self, sens_file, tmp_path, capsys):
        with open(sens_file) as fh:
            doc = json.load(fh)
        doc["family"] = "custom"
        doc["matrix"][0][0] = "1/2"
        code, _, stderr = run(capsys, "bounds", "--in", self.write(tmp_path, json.dumps(doc)))
        assert code == EXIT_USAGE
        assert "integral" in stderr


class TestSweep:
    def test_grid_rows_in_order(self, capsys):
        code, stdout, _ = run(capsys, "sweep", "sensitivity", "--delta", "1:2", "--d", "2,4")
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[1], r[2]) for r in rows] == [("1", "2"), ("1", "4"), ("2", "2"), ("2", "4")]
        assert all(r[4] == str(int(r[1]) ** (int(r[2]) - 1)) for r in rows)

    @pytest.mark.parametrize(
        "axis, text, other", [("--delta", "", "--d"), ("--delta", "3:2", "--d"), ("--d", ",", "--delta")]
    )
    def test_empty_grid_is_a_usage_error(self, tmp_path, capsys, axis, text, other):
        # an empty grid would measure nothing and pass vacuously
        out = tmp_path / "sweep.csv"
        code, stdout, stderr = run(capsys, "sweep", "sensitivity", axis, text, other, "2", "--out", str(out))
        assert code == EXIT_USAGE and stdout == ""
        assert axis in stderr and "no values" in stderr
        assert not out.exists()

    def test_cell_failure_recorded_not_fatal(self, capsys):
        # delta=1 cannot be embedded into a bin-packing system
        code, stdout, stderr = run(capsys, "sweep", "binpack-sens", "--delta", "1:2", "--d", "2")
        assert code == EXIT_CHECK_FAILED
        lines = stdout.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].endswith("error:EmbeddingError")
        assert lines[2].endswith("ok")
        assert "cell delta=1 d=2: check failed:" in stderr

    def test_budget_failure_exits_with_budget_code(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "sensitivity", "--delta", "1:2", "--d", "2", "--node-budget", "1"
        )
        assert code == EXIT_BUDGET
        rows = stdout.strip().splitlines()[1:]
        assert len(rows) == 2 and all(r.endswith("error:BudgetExceededError") for r in rows)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_first_failing_cell_sets_the_exit_code(self, capsys, jobs):
        # delta=1 fails to embed (1) before delta=2 runs out of nodes (2)
        args = ("sweep", "binpack-sens", "--delta", "1:2", "--d", "2", "--node-budget", "1")
        code, stdout, _ = run(capsys, *args, "--jobs", jobs)
        assert code == EXIT_CHECK_FAILED
        rows = stdout.strip().splitlines()[1:]
        assert rows[0].endswith("error:EmbeddingError")
        assert rows[1].endswith("error:BudgetExceededError")

    def test_jobs_below_one_is_a_usage_error(self, capsys):
        code, stdout, _ = run(capsys, "sweep", "sensitivity", "--delta", "2", "--d", "2", "--jobs", "0")
        assert code == EXIT_USAGE and stdout == ""

    def test_worker_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli._sweep_workers(64, 100) == 4
        assert cli._sweep_workers(64, 3) == 3
        assert cli._sweep_workers(2, 100) == 2
        assert cli._sweep_workers(8, 0) == 0
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._sweep_workers(64, 100) == 1

    def test_worker_pool_matches_sequential(self, capsys):
        args = ("sweep", "sensitivity", "--delta", "1:2", "--d", "2,4")
        _, sequential, _ = run(capsys, *args)
        _, pooled, _ = run(capsys, *args, "--jobs", "2")
        strip = lambda text: [
            row.split(",")[:8] for row in text.strip().splitlines()
        ]
        assert strip(sequential) == strip(pooled)


class TestFuzzAndBounds:
    def test_fuzz_clean(self, capsys):
        code, stdout, _ = run(capsys, "fuzz", "--seed", "7", "--trials", "25")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["trials"] == 25 and doc["violations"] == []

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_fuzz_without_trials_is_a_usage_error(self, capsys, trials):
        # zero trials would report no violations for checking nothing
        code, stdout, stderr = run(capsys, "fuzz", "--seed", "7", "--trials", trials)
        assert code == EXIT_USAGE and stdout == ""
        assert "at least 1 trial" in stderr

    def test_bounds(self, sens_file, capsys):
        code, stdout, _ = run(capsys, "bounds", "--in", sens_file)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["subdet"] == "8" and doc["sens_upper"] == "96" and doc["prox_upper"] == "32"

    def test_bounds_budget_exit(self, prox_file, capsys):
        code, _, _ = run(capsys, "bounds", "--in", prox_file, "--no-hadamard-fallback")
        assert code == EXIT_BUDGET


class TestDeterminism:
    def test_identical_output_across_runs(self, sens_file, capsys):
        # everything except the wall-clock column must be bit-identical
        _, first, _ = run(capsys, "measure", "sens", "--in", sens_file, "--csv")
        _, second, _ = run(capsys, "measure", "sens", "--in", sens_file, "--csv")
        strip = lambda row: row.strip().split(",")[:8] + row.strip().split(",")[9:]
        assert strip(first) == strip(second)
