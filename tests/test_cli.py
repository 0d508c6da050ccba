import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ilplab.cli
import ilplab.measures
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

    def test_a_thousand_sizes_fail_the_embedding_not_the_stack(self, capsys):
        # delta = 1 gives 1,000 item sizes in (1/2, 1], so the configuration
        # walk is 1,000 items deep; the embedding check then refuses the cell
        code, stdout, stderr = run(capsys, "gen", "binpack-sens", "--delta", "1", "--d", "1000")
        assert (code, stdout) == (EXIT_CHECK_FAILED, "")
        assert stderr.startswith("check failed: column 0 overfills the bin: load ")
        assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "argv, name",
    [
        (("gen", "sensitivity", "--delta", "2", "--d", "4"), "x.json"),
        (("sweep", "sensitivity", "--delta", "2", "--d", "2"), "x.csv"),
    ],
    ids=["gen", "sweep"],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, name):
    out = tmp_path / "missing" / name
    code, _, stderr = run(capsys, *argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert stderr.startswith("usage error: cannot write")
    assert "Traceback" not in stderr and not out.exists()


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

    def test_prox_on_custom_instance_is_usage_error(self, sens_file, tmp_path, capsys):
        with open(sens_file) as fh:
            doc = json.load(fh)
        doc["family"] = "custom"
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "measure", "prox", "--in", str(path))
        assert code == EXIT_USAGE and stdout == ""
        assert stderr == (
            "usage error: family 'custom' has no canonical proximity certificate: the CLI "
            "measures proximity on the proximity families only, and API callers pass z\n"
        )

    def custom(self, sens_file, tmp_path, **fields):
        with open(sens_file) as fh:
            doc = json.load(fh)
        doc.update(family="custom", **fields)
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_sens_on_negative_entries(self, sens_file, tmp_path, capsys):
        # the all-ones row bounds every variable, whatever the signs in the other
        path = self.custom(
            sens_file, tmp_path, matrix=[[1, -1, 1, 0], [1, 1, 1, 1]], b=[1, 4], b_prime=[0, 4], c=[1, -1, 0, 2]
        )
        code, stdout, _ = run(capsys, "measure", "sens", "--in", path)
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["witness"]["linf"] == [["0", "1", "2", "1"], ["0", "2", "2", "0"]]
        assert Fraction(doc["measured"]["linf"]) == 1 <= Fraction(doc["cook_upper"])
        assert Fraction(doc["measured"]["l1"]) == 2 <= Fraction(doc["cook_upper"])

    def test_sens_on_an_unbounded_search_is_usage_error(self, sens_file, tmp_path, capsys):
        path = self.custom(sens_file, tmp_path, matrix=[[1, 1, -1]], b=[1], b_prime=[2], c=[1, 0, -1])
        code, stdout, stderr = run(capsys, "measure", "sens", "--in", path)
        assert code == EXIT_USAGE and stdout == ""
        assert stderr.startswith("usage error: x_0 ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr


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

    def test_deeply_nested_document_is_usage_error(self, tmp_path, capsys):
        # json.load gives up on this nesting with a RecursionError
        depth = 100_000
        code, _, stderr = run(capsys, "measure", "sens", "--in", self.write(tmp_path, "[" * depth + "]" * depth))
        assert code == EXIT_USAGE
        assert stderr.startswith("usage error: cannot read instance") and stderr.count("\n") == 1

    def test_non_object_document_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "measure", "sens", "--in", self.write(tmp_path, "[1, 2]"))
        assert code == EXIT_USAGE
        assert "usage error" in stderr and "JSON object" in stderr

    @pytest.mark.parametrize(
        "key, command",
        zip(
            ["matrix", "b", "b_prime", "c", "sizes", "epsilon"],
            [("measure", "sens"), ("bounds",), ("verify", "--check", "polytopish")] * 2,
        ),
    )
    def test_zero_denominator_is_usage_error(self, sens_file, tmp_path, capsys, key, command):
        with open(sens_file) as fh:
            doc = json.load(fh)
        if key == "matrix":
            doc["matrix"][0][0] = "1/0"
        elif key == "epsilon":
            doc["epsilon"] = "1/0"
        else:
            doc[key] = ["1/0"] + (doc.get(key) or [])[1:]
        code, _, stderr = run(capsys, *command, "--in", self.write(tmp_path, json.dumps(doc)))
        assert code == EXIT_USAGE
        assert "zero denominator" in stderr and repr(key) in stderr

    @pytest.mark.parametrize("length", [1, 5])
    def test_b_prime_length_must_match_rows(self, sens_file, tmp_path, capsys, length):
        with open(sens_file) as fh:
            doc = json.load(fh)
        doc["family"] = "custom"
        doc["b_prime"] = ["1"] * length  # the matrix has 4 rows
        code, _, stderr = run(capsys, "bounds", "--in", self.write(tmp_path, json.dumps(doc)))
        assert code == EXIT_USAGE
        assert "'b_prime'" in stderr

    @pytest.mark.parametrize(
        "command", [("measure", "sens"), ("bounds",), ("verify", "--check", "polytopish")],
        ids=["measure-sens", "bounds", "verify-polytopish"],
    )
    @pytest.mark.parametrize("key", ["matrix", "b", "b_prime", "c"])
    def test_rational_ilp_data_is_refused_before_any_work(self, sens_file, tmp_path, capsys, monkeypatch, key, command):
        # A, b, b' and c are integral: one "1/2" is refused while the document
        # is read, before an enumeration, a subdeterminant search or a hull walk
        def never(*args, **kwargs):
            raise AssertionError("work started on a refused document")

        for module, name in [
            (ilplab.cli, "enumerate_integral_optima"),
            (ilplab.cli, "integer_points_in_hull"),
            (ilplab.measures, "enumerate_integral_optima"),
            (ilplab.measures, "max_subdet_all"),
        ]:
            monkeypatch.setattr(module, name, never)
        doc = json.loads(Path(sens_file).read_text())
        doc["family"] = "custom"
        if key == "matrix":
            doc["matrix"][0][0] = "1/2"
        else:
            doc[key] = ["1/2", *doc[key][1:]]
        code, stdout, stderr = run(capsys, *command, "--in", self.write(tmp_path, json.dumps(doc)))
        assert code == EXIT_USAGE and stdout == ""
        assert stderr.startswith("usage error: cannot read instance")
        assert f"{key!r} holds 1/2, not an integer" in stderr


class TestFamilyLabels:
    """A document labelled with a family must be that family's generated instance, field for field.

    Every command that reads a document refuses one that is not, as a usage
    error, whatever it would go on to do with it.
    """

    @pytest.mark.parametrize(
        "cli_name, delta, d, relabel, command",
        [
            ("sensitivity", 2, 4, {"d": -1}, ("measure", "sens")),
            ("binpack-sens", 2, 2, {"d": -1}, ("verify", "--check", "claims")),
            ("proximity", 2, 3, {"delta": 3}, ("verify", "--check", "claims")),
            ("sensitivity", 2, 4, {"family": "binpack_sens"}, ("measure", "sens")),
            # delta = 1 has no bin-packing embedding: the generator's refusal is the loader's
            ("binpack-sens", 2, 2, {"delta": 1}, ("measure", "sens")),
            ("binpack-sens", 2, 2, {"delta": 1}, ("verify", "--check", "claims")),
            ("binpack-sens", 2, 2, {"delta": 1}, ("bounds",)),
            ("sensitivity", 2, 4, {"d": 6}, ("bounds",)),
            ("proximity", 2, 3, {"delta": 3}, ("verify", "--check", "polytopish")),
            ("sensitivity", 2, 4, {"family": "proximity"}, ("verify", "--check", "polytopish")),
            # the right labels over a tampered field other than the matrix
            ("sensitivity", 2, 4, {"b_prime": ["1", "2", "4", "8"]}, ("measure", "sens")),
            ("binpack-sens", 2, 2, {"sizes": ["3/10", "1/3"]}, ("measure", "sens")),
            ("binpack-sens", 2, 2, {"c1_indices": [1, 0]}, ("bounds",)),
            ("binpack-prox", 2, 3, {"c1_indices": None}, ("verify", "--check", "claims")),
            ("binpack-sens", 2, 2, {"notes": ""}, ("bounds",)),
            # a tiny document labelled with a large cell is refused by its shape, before generating
            ("sensitivity", 2, 2, {"family": "binpack_sens", "delta": 5, "d": 16}, ("measure", "sens")),
            # d rows, but fewer columns than the cell's configurations must number
            ("sensitivity", 2, 16, {"family": "binpack_sens", "delta": 5}, ("measure", "sens")),
        ],
    )
    def test_relabelled_document_is_usage_error(self, tmp_path, capsys, cli_name, delta, d, relabel, command):
        path = tmp_path / "inst.json"
        assert main(["gen", cli_name, "--delta", str(delta), "--d", str(d), "--out", str(path)]) == EXIT_OK
        doc = json.loads(path.read_text())
        doc.update(relabel)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, stdout, stderr = run(capsys, *command, "--in", str(path))
        assert code == EXIT_USAGE and stdout == ""
        assert stderr.startswith("usage error:")


class TestRationalStrings:
    """A rational string must be in the form the program writes, ``-?[0-9]+(/[0-9]+)?``."""

    @pytest.mark.parametrize(
        "entry",
        ["0.5", "1_0", " 2/4 ", "2/4\n", "\u0661", "\u00b2", "1e200", "+1", "1/-2"],
        ids=["decimal", "underscore", "spaces", "newline", "arabic-digit", "superscript", "exponent", "plus", "sign-below"],
    )
    def test_other_forms_are_a_usage_error(self, sens_file, capsys, entry):
        doc = json.loads(Path(sens_file).read_text())
        doc.update(family="custom", matrix=[[entry, *doc["matrix"][0][1:]], *doc["matrix"][1:]])
        Path(sens_file).write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "bounds", "--in", sens_file)
        assert code == EXIT_USAGE and stdout == ""
        assert stderr.startswith("usage error:") and "'p/q' string for 'matrix'" in stderr

    def test_the_written_forms_are_read(self, sens_file, capsys):
        # an integral 'p/q' is read as its int in the ILP data; sizes stay rational
        doc = json.loads(Path(sens_file).read_text())
        doc.update(family="custom", b=["1", "-4/2", 4, "007"], sizes=["3/10", "1/3"])
        Path(sens_file).write_text(json.dumps(doc))
        inst = instance_from_doc(doc)
        assert inst.lp.b == (1, -2, 4, 7) and all(type(x) is int for x in inst.lp.b)
        assert inst.sizes == (Fraction(3, 10), Fraction(1, 3))
        assert run(capsys, "bounds", "--in", sens_file)[0] == EXIT_OK


class TestBudgets:
    """Every budget flag refuses a negative value as a usage error; 0 is a budget that runs out."""

    #: (command, flag, exit code at 0); the subdeterminant scan falls back when it runs out
    FLAGS = [
        (("measure", "sens"), "--node-budget", EXIT_BUDGET),
        (("measure", "sens"), "--subdet-budget", EXIT_OK),
        (("verify", "--check", "claims"), "--node-budget", EXIT_BUDGET),
        (("verify", "--check", "polytopish"), "--budget", EXIT_BUDGET),
        (("bounds",), "--subdet-budget", EXIT_OK),
        (("sweep",), "--node-budget", EXIT_BUDGET),
        (("sweep",), "--subdet-budget", EXIT_OK),
    ]

    def argv(self, command, sens_file):
        if command == ("sweep",):
            return ["sweep", "sensitivity", "--delta", "2", "--d", "4"]
        return [*command, "--in", sens_file]

    @pytest.mark.parametrize("command, flag", [f[:2] for f in FLAGS])
    @pytest.mark.parametrize("value", ["-1", "-5"])
    def test_negative_budget_is_a_usage_error(self, sens_file, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*self.argv(command, sens_file), flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and captured.out == ""
        assert f"usage error: argument {flag}: a budget is at least 0, got {value}" in captured.err

    @pytest.mark.parametrize("command, flag, code", FLAGS)
    def test_zero_budget_is_legal(self, sens_file, capsys, command, flag, code):
        assert run(capsys, *self.argv(command, sens_file), flag, "0")[0] == code


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

    def test_every_row_has_the_header_width(self, capsys):
        # delta=1 fails to embed, delta=2 is measured
        _, stdout, _ = run(capsys, "sweep", "binpack-sens", "--delta", "1:2", "--d", "2")
        lines = stdout.strip().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        assert {len(line.split(",")) for line in lines} == {len(CSV_HEADER.split(","))}

    def test_budget_failure_exits_with_budget_code(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "sensitivity", "--delta", "1:2", "--d", "2", "--node-budget", "1"
        )
        assert code == EXIT_BUDGET
        rows = stdout.strip().splitlines()[1:]
        assert len(rows) == 2 and all(r.endswith("error:BudgetExceededError") for r in rows)

    @pytest.mark.parametrize("later", [1, 2])
    def test_first_failing_cell_sets_the_exit_code(self, capsys, later):
        # delta=1 fails to embed (1) before every later delta runs out of nodes (2);
        # the first failure sets the code even when budget failures outnumber it
        args = ("sweep", "binpack-sens", "--delta", f"1:{1 + later}", "--d", "2", "--node-budget", "1")
        code, stdout, _ = run(capsys, *args)
        assert code == EXIT_CHECK_FAILED
        rows = stdout.strip().splitlines()[1:]
        assert len(rows) == 1 + later
        assert rows[0].endswith("error:EmbeddingError")
        assert all(row.endswith("error:BudgetExceededError") for row in rows[1:])


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


class TestDeterminism:
    def test_identical_output_across_runs(self, sens_file, capsys):
        # everything except the wall-clock column must be bit-identical
        _, first, _ = run(capsys, "measure", "sens", "--in", sens_file, "--csv")
        _, second, _ = run(capsys, "measure", "sens", "--in", sens_file, "--csv")
        strip = lambda row: row.strip().split(",")[:8] + row.strip().split(",")[9:]
        assert strip(first) == strip(second)


def test_start_up_loads_no_process_pool():
    # every command runs in its one process, so loading the CLI loads no pool machinery
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import ilplab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
