import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polydissect
from polydissect import NumericalDegeneracy
from polydissect import cli
from polydissect import reference
from polydissect.cli import main
from polydissect.reference import reference_table

# SHA-256 of the `render --n N --faces` document
FIGURE_DIGESTS = {39: "9fb2bbefc907518408879d7c38981aa7461427d93ca7f5ece2f470df737a277a"}


class TestReferenceTable:
    def test_has_all_38_rows(self):
        rows = reference_table()
        assert len(rows) == 38
        assert [r.n for r in rows] == list(range(2, 40))

    def test_spot_values(self):
        rows = {r.n: r for r in reference_table()}
        assert (rows[2].N, rows[2].F, rows[2].E, rows[2].V) == (4, 1, 4, 4)
        assert (rows[6].N, rows[6].F, rows[6].E, rows[6].V) == (12, 145, 276, 132)
        assert (rows[25].N, rows[25].F, rows[25].E) == (50, 53500, 102150)
        assert rows[39].E == 656526 and rows[39].F == 338208

    def test_derived_columns_are_consistent(self):
        for r in reference_table():
            assert r.F == 1 + r.E - r.V
            assert r.F == r.N * r.per_ray + r.central
            assert r.central == (1 if r.n % 2 == 0 else 0)


class TestCount:
    def test_octagon_line(self, capsys):
        assert main(["count", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "960 edges 464 vertices 497 tiles" in out
        assert "31 tiles per ray, 1 central" in out

    def test_square_line(self, capsys):
        assert main(["count", "--n", "2"]) == 0
        assert "4 edges 4 vertices 1 tiles" in capsys.readouterr().out

    def test_n13_line(self, capsys):
        assert main(["count", "--n", "13"]) == 0
        assert "5980 edges 2679 vertices 3302 tiles" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["count", "--n", "4", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row == {"N": 8, "n": 4, "F": 25, "E": 48, "V": 24,
                       "per_ray": 3, "central": 1}

    @pytest.mark.parametrize("argv", [
        ["count", "--n", "1"],
        ["count", "--n", "65"],
        ["count", "--n", "4", "--fuzz", "0.5"],
        ["count"],
        ["bogus"],
        # the tolerance is the library's alone: even the default is refused
        ["count", "--n", "4", "--fuzz", "1e-10"],
        ["render", "--n", "4", "--out", os.devnull, "--fuzz", "1e-10"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_numeric_failure_exits_3(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalDegeneracy("forced")

        monkeypatch.setattr(cli, "counts", boom)
        assert main(["count", "--n", "4"]) == 3
        assert "forced" in capsys.readouterr().err

    def test_counts_beyond_the_reference_are_flagged(self, monkeypatch, capsys):
        from polydissect import CountSummary

        fake = CountSummary(n=45, V=1, E=90, F=90, per_ray=1, central=0)
        monkeypatch.setattr(cli, "counts", lambda *a, **k: fake)
        assert main(["count", "--n", "45"]) == 0
        assert "(unverified)" in capsys.readouterr().out


class TestTable:
    def test_csv_exact_rows(self, capsys):
        assert main(["table", "--max-n", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,n,F,E,V,per_ray,central"
        assert lines[1] == "4,2,1,4,4,0,1"
        assert lines[2] == "6,3,6,12,7,1,0"

    def test_csv_round_trip(self, capsys):
        assert main(["table", "--max-n", "7", "--format", "csv"]) == 0
        parsed = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        reference = {r.n: r for r in reference_table()}
        assert len(parsed) == 6
        for row in parsed:
            ref = reference[int(row["n"])]
            assert int(row["N"]) == ref.N
            assert int(row["F"]) == ref.F
            assert int(row["E"]) == ref.E
            assert int(row["V"]) == ref.V
            assert int(row["per_ray"]) == ref.per_ray
            assert int(row["central"]) == ref.central

    def test_json_round_trip(self, capsys):
        assert main(["table", "--max-n", "2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{"N": 4, "n": 2, "F": 1, "E": 4, "V": 4, "per_ray": 0, "central": 1}]

    def test_text_format(self, capsys):
        assert main(["table", "--max-n", "5", "--format", "text"]) == 0
        out = capsys.readouterr().out
        header, *rows = out.strip().splitlines()
        assert header.split() == ["N", "n", "F", "E", "V", "per_ray", "central"]
        assert rows[0].split() == ["4", "2", "1", "4", "4", "0", "1"]
        assert len(rows) == 4

    def test_max_n_is_bounded(self):
        with pytest.raises(SystemExit) as err:
            main(["table", "--max-n", "40", "--format", "text"])
        assert err.value.code == 2

    def test_jobs_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table", "--max-n", "3", "--format", "text", "--jobs", "2"])
        assert err.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestVerify:
    def test_table1_prefix_matches(self, capsys):
        assert main(["verify", "--max-n", "7"]) == 0
        out = capsys.readouterr().out
        assert "all 6 rows match" in out
        assert "MISMATCH" not in out

    def test_parallel_workers(self, capsys):
        assert main(["verify", "--max-n", "5", "--jobs", "2"]) == 0
        assert "all 4 rows match" in capsys.readouterr().out

    def test_mismatch_exits_5(self, monkeypatch, capsys):
        doctored = list(reference._REFERENCE_F_E)
        doctored[2] = (26, 48)  # n=4 now expects one extra tile
        monkeypatch.setattr(reference, "_REFERENCE_F_E", doctored)
        assert main(["verify", "--max-n", "5"]) == 5
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "expected" in out

    @pytest.mark.parametrize("max_n", [1, 40])
    def test_a_max_n_outside_the_reference_raises(self, max_n):
        with pytest.raises(ValueError, match="max_n must be in 2..39"):
            cli.verify(max_n)


class TestRender:
    def test_writes_svg_and_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "hexagon.svg"
        assert main(["render", "--n", "3", "--out", str(out)]) == 0
        assert "12 edges 7 vertices 6 tiles" in capsys.readouterr().out
        doc = out.read_text()
        assert doc.count("<line ") == 12

    def test_faces_flag(self, tmp_path):
        out = tmp_path / "octagon.svg"
        assert main(["render", "--n", "4", "--out", str(out), "--faces"]) == 0
        assert out.read_text().count("<polygon ") == 25

    def test_zoom_flag(self, tmp_path):
        out = tmp_path / "zoomed.svg"
        argv = ["render", "--n", "10", "--out", str(out), "--zoom", "0.55,-0.25,1.05,0.25"]
        assert main(argv) == 0
        assert 0 < out.read_text().count("<line ") < 2500

    def test_unwritable_path_exits_4(self, tmp_path, capsys):
        assert main(["render", "--n", "2", "--out", str(tmp_path)]) == 4
        assert "cannot write" in capsys.readouterr().err

    def test_malformed_zoom_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["render", "--n", "2", "--out", str(tmp_path / "x.svg"), "--zoom", "1,2,3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("option", [["--scale", "nan"], ["--scale", "inf"],
                                        ["--zoom=-inf,-0.5,inf,0.5"]])
    def test_non_finite_options_exit_2_and_write_nothing(self, tmp_path, option):
        out = tmp_path / "x.svg"
        with pytest.raises(SystemExit) as err:
            main(["render", "--n", "3", "--out", str(out)] + option)
        assert err.value.code == 2
        assert not out.exists()

    def test_a_canvas_beyond_exact_six_decimals_exits_2(self, tmp_path):
        out = tmp_path / "x.svg"
        with pytest.raises(SystemExit) as err:
            main(["render", "--n", "3", "--out", str(out), "--scale", "1e10"])
        assert err.value.code == 2
        assert not out.exists()

    # the benchmark's figure sizes, and the largest published row, whose bytes are pinned
    @pytest.mark.parametrize("n", [20, 24, pytest.param(39, marks=pytest.mark.slow)])
    def test_a_published_figure_matches_its_row(self, n, tmp_path, capsys):
        out = tmp_path / f"n{n}.svg"
        assert main(["render", "--n", str(n), "--out", str(out), "--faces"]) == 0
        row = {r.n: r for r in reference_table()}[n]
        assert f"{row.E} edges {row.V} vertices {row.F} tiles" in capsys.readouterr().out
        doc = out.read_text()
        assert doc.count("<polygon ") == row.F
        assert doc.count("<line ") == row.E
        if n in FIGURE_DIGESTS:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_DIGESTS[n]

    def test_offdisk_zoom_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["render", "--n", "2", "--out", str(tmp_path / "x.svg"),
                  "--zoom", "4,4,5,5"])
        assert err.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["verify", "--max-n", "40"], "--max-n must be in 2..39"),
    (["verify", "--max-n", "5", "--jobs", "0"], "--jobs must be at least 1"),
    (["render", "--n", "65"], "--n must be in 2..64"),
    (["render", "--n", "3", "--zoom", "a,b,c,d"], "--zoom expects four numbers"),
])
def test_a_usage_error_exits_2_and_writes_nothing(argv, message, tmp_path, capsys):
    if argv[0] == "render":
        argv = [*argv, "--out", str(tmp_path / "x.svg")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _count_parsers(monkeypatch) -> list:
    """Wrap ``ArgumentParser.__init__``; the list gets one item per parser built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


class TestRepeatedCalls:
    """``main`` builds its parser once per process, and calls share nothing."""

    def test_later_calls_build_no_parser(self, tmp_path, capsys, monkeypatch):
        assert main(["count", "--n", "3"]) == 0
        built = _count_parsers(monkeypatch)
        assert main(["count", "--n", "5"]) == 0
        assert main(["verify", "--max-n", "3", "--jobs", "2"]) == 0
        assert main(["render", "--n", "4", "--out", str(tmp_path / "x.svg")]) == 0
        assert built == []

    def test_a_flag_does_not_carry_into_the_next_call(self, tmp_path, capsys):
        out = tmp_path / "octagon.svg"
        assert main(["render", "--n", "4", "--out", str(out), "--faces"]) == 0
        assert out.read_text().count("<polygon ") == 25
        assert main(["render", "--n", "4", "--out", str(out)]) == 0
        assert "<polygon" not in out.read_text()

    def test_a_usage_error_does_not_break_the_next_call(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count", "--n", "1"])
        assert err.value.code == 2
        assert "--n must be in 2..64" in capsys.readouterr().err
        assert main(["count", "--n", "8"]) == 0
        assert "960 edges 464 vertices 497 tiles" in capsys.readouterr().out

    def test_verify_with_and_without_jobs(self, capsys):
        assert main(["verify", "--max-n", "4", "--jobs", "3"]) == 0
        assert main(["verify", "--max-n", "4"]) == 0
        assert capsys.readouterr().out.count("all 3 rows match") == 2

    def test_importing_the_cli_builds_no_parser(self):
        # the benchmark's setup_s times a fresh import, and a parser built
        # there would move it; the second count shows the counter works
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(parser, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(parser, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import polydissect.cli\n"
            "print(len(built))\n"
            "polydissect.cli._build_parser()\n"
            "print(len(built))\n")
        src = str(Path(polydissect.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        at_import, after_build = map(int, done.stdout.split())
        assert at_import == 0
        assert after_build > 0
