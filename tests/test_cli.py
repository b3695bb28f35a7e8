"""End-to-end tests for the command-line interface."""

import csv

import pytest

from repro.cli import main


@pytest.fixture
def cars_csv(tmp_path):
    path = tmp_path / "cars.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["price", "mileage", "hp"])
        writer.writerows([
            [11500, 50000, 150],
            [11500, 60000, 190],
            [12000, 50000, 190],
            [12000, 60000, 150],
        ])
    return str(path)


class TestQuery:
    def test_basic_query(self, cars_csv, capsys):
        code = main(["query", cars_csv, "--preferring",
                     "lowest(price) * lowest(mileage)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 of 4 tuples are maximal" in out
        assert "11500" in out

    def test_highest_direction(self, cars_csv, capsys):
        code = main(["query", cars_csv, "--preferring",
                     "(lowest(price) & highest(hp)) * lowest(mileage)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 of 4" in out

    def test_algorithm_choice_and_stats(self, cars_csv, capsys):
        code = main(["query", cars_csv, "--preferring", "lowest(price)",
                     "--algorithm", "bnl", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert "bnl" in captured.out
        assert "dominance tests" in captured.err

    def test_auto_plans_and_answers_as_osdc(self, cars_csv, capsys):
        clause = "lowest(price) & highest(hp)"
        outputs = []
        for algorithm in ("auto", "osdc"):
            assert main(["query", cars_csv, "--preferring", clause,
                         "--algorithm", algorithm]) == 0
            out = capsys.readouterr().out
            assert f"ms, {algorithm})" in out
            outputs.append(out.splitlines()[1:])
        assert outputs[0] == outputs[1]

    def test_serve_plans_by_default(self):
        from repro.cli import _build_parser
        parser = _build_parser()
        assert parser.parse_args(["serve"]).algorithm == "auto"
        assert parser.parse_args(
            ["serve", "--algorithm", "osdc"]).algorithm == "osdc"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--algorithm", "nope"])

    def test_unknown_column(self, cars_csv, capsys):
        code = main(["query", cars_csv, "--preferring", "lowest(nope)"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_empty_csv(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        code = main(["query", str(path), "--preferring", "lowest(a)"])
        assert code == 1

    def test_limit(self, cars_csv, capsys):
        code = main(["query", cars_csv, "--preferring",
                     "lowest(price) * lowest(mileage) * highest(hp)",
                     "--limit", "1"])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line and not line.startswith("#")]
        assert len(lines) == 2  # header + one row


class TestGenerate:
    @pytest.mark.parametrize("kind,columns", [
        ("gaussian", 4), ("independent", 4), ("correlated", 4),
        ("anticorrelated", 4), ("nba", 14), ("covertype", 10),
    ])
    def test_generate_kinds(self, kind, columns, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["generate", kind, "--rows", "50", "--dims", "4",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 51  # header + 50
        assert len(rows[0]) == columns

    def test_generate_to_stdout(self, capsys):
        code = main(["generate", "independent", "--rows", "3",
                     "--dims", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "A0,A1"

    def test_generated_csv_is_queryable(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["generate", "gaussian", "--rows", "200",
                     "--dims", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["query", str(out), "--preferring",
                     "lowest(A0) & (lowest(A1) * lowest(A2))"]) == 0
        assert "maximal" in capsys.readouterr().out


class TestSample:
    def test_sample_prints_expressions(self, capsys):
        code = main(["sample", "--dims", "5", "--count", "3",
                     "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all("roots=" in line for line in lines)

    def test_sample_deterministic(self, capsys):
        main(["sample", "--dims", "6", "--count", "2", "--seed", "9"])
        first = capsys.readouterr().out
        main(["sample", "--dims", "6", "--count", "2", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestBenchCommand:
    def test_bench_quick_workload(self, capsys):
        from repro.cli import main
        code = main(["bench", "--scale", "quick", "--workload",
                     "gaussian"])
        assert code == 0
        out = capsys.readouterr().out
        assert "osdc [ms]" in out and "bnl [ms]" in out
