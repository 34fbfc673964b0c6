import argparse
import ast
import gc
import hashlib
import importlib
import inspect
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from xml.dom import minidom

import pytest

import cubicbundle
from cubicbundle import cli, dump
from cubicbundle.cli import main
from cubicbundle.dump import point_rows
from cubicbundle.enumeration import CLASS_LABELS, CountSeries
from test_picard import LATTICE_SURFACES

# a prime above 10^15, too large to factor by trial division within a test's time
BIG_PRIME = 1000000000000037

# SHA-256 of `count --bounds 1,2,4,8 --emit-points` (CSV and .points) and of
# `enumerate --bound 8`, recorded before the dumps were streamed
COUNT_8_CSV_SHA256 = "2f197215ecd3cb5479ea9a1f62c82be286aee1c54fd15063c786af766d50d21f"
COUNT_8_POINTS_SHA256 = "8b72c66af71c01bc8f4357af10b73dee4fb65d3b9599843b450e7253680007e3"
ENUMERATE_8_SHA256 = "ee34843c7e5d5d8d4e0e442b0eb343abca5a5ed9fc682ce6cb93f775cbd15377"

# SHA-256 of `enumerate --bound 27` and of the .points file of
# `count --bounds 27 --emit-points --workers 2`: the first dumps whose
# streams hold base points of height 3
ENUMERATE_27_SHA256 = "e27184773420fc7d8f730e10d22b4d5fad9658838474acf5c951e3cb0b7f5929"
COUNT_27_POINTS_SHA256 = "a8f639d58003c59355c6c6105fc82f430d1e0eda4dd4ea772bfb3550732c9826"

# the first point (x, y) of each of the 22 distinct flag fields of
# `enumerate --bound 8`, in dump order, then a point over the signed Fermat
# base point 1:1:-1:1; and SHA-256 of the stdout of `classify x y` over them,
# run after one another, recorded while the fiber profile was read through a
# point object
CLASSIFY_POINTS = [
    ("0:0:0:1", "0:0:1:0"), ("0:0:1:-1", "0:0:1:1"), ("0:1:-2:-1", "0:1:0:1"),
    ("0:1:-2:-1", "0:1:1:-1"), ("0:1:-1:-2", "0:1:1:0"), ("1:-2:-2:-2", "0:0:1:-1"),
    ("1:-2:-2:-2", "0:1:-1:0"), ("1:-2:-2:-2", "0:1:0:-1"), ("1:-2:-2:-1", "0:1:-1:0"),
    ("1:-2:-2:-1", "1:0:1:-1"), ("1:-2:-1:-2", "0:1:0:-1"), ("1:-2:-1:-2", "1:0:-1:1"),
    ("1:-2:-1:-1", "0:1:-1:-1"), ("1:-1:-2:-2", "0:0:1:-1"), ("1:-1:-2:-2", "1:-1:0:1"),
    ("1:-1:-1:-1", "0:0:1:-1"), ("1:-1:-1:-1", "0:1:-1:0"), ("1:-1:-1:-1", "0:1:0:-1"),
    ("1:-1:-1:-1", "1:-1:1:1"), ("1:-1:-1:-1", "1:1:-1:1"), ("1:-1:-1:-1", "1:1:1:-1"),
    ("1:-1:-1:-1", "3:-5:-4:6"), ("1:1:-1:1", "1:0:1:0"),
]
CLASSIFY_SHA256 = "8121c05c1280ae25cf68ad0cae7824d1a9014e37b4fa7cd8b8a71df34df7677f"

# SHA-256 of the stdout of `fiber-rank` over one surface of each of the 28
# relation lattices (test_picard.LATTICE_SURFACES), run after one another,
# and of `lines` over the trivial lattice, a rank-2 one and the full one,
# recorded while the ranks came from the Galois orbits at run time
FIBER_RANK_LATTICES_SHA256 = "bd80c6e20401ed5b1015573a85e6b3ade4d2d23fd7126f20f5735b8fb7222524"
LINES_SHA256 = {
    (1, 5, 3, 2): "7be1523194eb4db3b1ccd6c4d616f23ef41e642306b90777e343e442f17ad545",
    (1, 2, 4, 1): "80c872da873e275f1a25eeed04c98b534eabaaff6e20acf1bc0bf0361fc57361",
    (1, 1, 1, 1): "7fcf3271dd19f1c552ded67de68005e103b9e2eff9363cc8a6ee1e363af2ea5b",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tally_rows(rows, grid):
    """CSV columns on the grid from dump rows x|y|height|flags alone."""
    columns = {}
    for row in rows:
        _, _, height, flags = row.split("|")
        flags = flags.split(",")
        labels = ["ALL", "IN_Z" if "Z" in flags else "NOT_IN_Z"]
        if any(flag.startswith("V") for flag in flags):
            labels.append("IN_SOME_V")
        elif "Z" in flags:
            labels.append("LIFTABLE_ONLY")
        if "SING" in flags:
            labels.append("SINGULAR_FIBER")
        for label in labels:
            counts = columns.setdefault(label, [0] * len(grid))
            for idx, b in enumerate(grid):
                counts[idx] += int(height) <= b
    return columns


class TestCount:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code, stdout, _ = run(capsys, "count", "--bounds", "1,2,4,8", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "B,ALL,IN_Z,NOT_IN_Z,IN_SOME_V,LIFTABLE_ONLY,SINGULAR_FIBER"
        assert len(lines) == 5
        assert lines[1].startswith("1,440,")
        assert "ALL" in stdout  # summary table printed

    def test_byte_identical_across_workers(self, tmp_path, capsys):
        blobs = []
        for workers in (1, 2, 4):
            out = tmp_path / f"counts_{workers}.csv"
            code, _, _ = run(
                capsys, "count", "--bounds", "1,2,4,8", "--out", str(out),
                "--workers", str(workers),
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_emit_points(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code, _, _ = run(capsys, "count", "--bounds", "1", "--out", str(out), "--emit-points")
        assert code == 0
        rows = (tmp_path / "counts.csv.points").read_text().strip().split("\n")
        assert len(rows) == 440
        assert all(len(r.split("|")) == 4 for r in rows)

    def test_emit_points_without_out_writes_points_points(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(capsys, "count", "--bounds", "1", "--emit-points")
        assert code == 0
        assert stdout.startswith("B,ALL,")  # the CSV itself went to stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["points.points"]
        rows = (tmp_path / "points.points").read_text().strip().split("\n")
        assert len(rows) == 440
        with pytest.raises(SystemExit):
            main(["count", "--help"])
        assert "points.points" in capsys.readouterr().out

    def test_invalid_bounds_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "count", "--bounds", "4,2", "--out", str(tmp_path / "x.csv"))
        assert code == 64
        code, _, err = run(capsys, "count", "--bounds", "abc", "--out", str(tmp_path / "x.csv"))
        assert code == 64
        code, _, err = run(
            capsys, "count", "--bounds", "1", "--workers", "0", "--out", str(tmp_path / "x.csv")
        )
        assert code == 64

    def test_stdout_csv_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code, _, _ = run(capsys, "count", "--bounds", "1,2", "--out", str(out))
        assert code == 0
        code, stdout, err = run(capsys, "count", "--bounds", "1,2")
        assert code == 0
        assert stdout.encode() == out.read_bytes()
        assert "ALL" in err  # the summary table went to stderr
        piped = tmp_path / "piped.csv"
        piped.write_text(stdout)
        code, _, _ = run(capsys, "plot", str(piped), str(tmp_path / "piped.svg"))
        assert code == 0

    def test_summary_table_lines_up_wide_counts(self, monkeypatch, capsys):
        # the rows of B = 512, 1024 and 2048, whose counts reach 12 digits
        rows = [
            (512, 7190321080, 7190266904, 54176, 7189804376, 462528, 7182145904),
            (1024, 57338870112, 57338733344, 136768, 57337068512, 1664832, 57306521192),
            (2048, 458058235776, 458057911520, 324256, 458051782688, 6128832, 457929741032),
        ]
        bounds, *columns = map(list, zip(*rows))
        series = CountSeries(tuple(bounds), dict(zip(CLASS_LABELS, columns)))
        monkeypatch.setattr(cli, "count_series", lambda bounds, workers: series)
        code, stdout, err = run(capsys, "count", "--bounds", "512,1024,2048")
        assert code == 0
        assert stdout == series.csv_text()
        table = err.splitlines()
        assert len(table) == 4 and len(set(map(len, table))) == 1

    def test_unwritable_output(self, capsys):
        code, _, err = run(capsys, "count", "--bounds", "1", "--out", "/nonexistent-dir/x.csv")
        assert code == 2

    def test_unwritable_points_file(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        (tmp_path / "c.csv.points").mkdir()
        code, stdout, err = run(capsys, "count", "--bounds", "1", "--emit-points", "--out", str(out))
        assert code == 2
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err
        assert stdout == ""  # no summary table after a failed write
        assert out.read_text().startswith("B,ALL,")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_dump_bytes_pinned(self, tmp_path, capsys, workers):
        out = tmp_path / "counts.csv"
        code, _, _ = run(
            capsys, "count", "--bounds", "1,2,4,8", "--emit-points", "--out", str(out),
            "--workers", workers,
        )
        assert code == 0
        assert sha256(out) == COUNT_8_CSV_SHA256
        assert sha256(tmp_path / "counts.csv.points") == COUNT_8_POINTS_SHA256

    def test_height_3_dump_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code, _, _ = run(
            capsys, "count", "--bounds", "27", "--emit-points", "--out", str(out), "--workers", "2",
        )
        assert code == 0
        assert sha256(tmp_path / "counts.csv.points") == COUNT_27_POINTS_SHA256

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_csv_is_the_tally_of_its_own_points(self, tmp_path, capsys, workers):
        grid = [1, 2, 4, 8, 16]
        out = tmp_path / "counts.csv"
        code, _, _ = run(
            capsys, "count", "--bounds", ",".join(map(str, grid)), "--emit-points",
            "--out", str(out), "--workers", workers,
        )
        assert code == 0
        header, *lines = out.read_text().splitlines()
        labels = header.split(",")[1:]
        csv_columns = {
            label: [int(line.split(",")[idx]) for line in lines]
            for idx, label in enumerate(labels, start=1)
        }
        rows = (tmp_path / "counts.csv.points").read_text().splitlines()
        tallied = tally_rows(rows, grid)
        assert csv_columns == {label: tallied.get(label, [0] * len(grid)) for label in labels}


class TestEnumerate:
    def test_dump_format(self, tmp_path, capsys):
        out = tmp_path / "points.txt"
        code, _, _ = run(capsys, "enumerate", "--bound", "1", "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 440
        x_part, y_part, height, flags = rows[0].split("|")
        assert len(x_part.split(":")) == 4
        assert len(y_part.split(":")) == 4
        assert height == "1"
        assert flags

    def test_dump_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "points.txt"
        code, _, _ = run(capsys, "enumerate", "--bound", "8", "--out", str(out))
        assert code == 0
        assert sha256(out) == ENUMERATE_8_SHA256

    def test_height_3_dump_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "points.txt"
        code, _, _ = run(capsys, "enumerate", "--bound", "27", "--out", str(out))
        assert code == 0
        assert sha256(out) == ENUMERATE_27_SHA256

    def test_one_box_fiber_comes_in_blocks_that_join_to_the_pinned_bytes(self):
        units = list(point_rows(27))
        # the plane over 0:0:0:1, one str per value 0..27 of its first parameter
        assert sum(unit.startswith("0:0:0:1|") for unit in units) == 28
        assert all(unit.endswith("\n") for unit in units)
        assert hashlib.sha256("".join(units).encode()).hexdigest() == ENUMERATE_27_SHA256

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "points.txt"
        code, _, _ = run(capsys, "enumerate", "--bound", "2", "--out", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "enumerate", "--bound", "2")
        assert code == 0
        assert stdout.encode() == out.read_bytes()

    def test_unwritable_output(self, capsys):
        code, stdout, err = run(capsys, "enumerate", "--bound", "1", "--out", "/nonexistent-dir/x")
        assert code == 2
        assert stdout == ""
        # the final path, not the temporary file that open failed on
        assert err == "error: cannot write /nonexistent-dir/x: No such file or directory\n"


class TestClassify:
    def test_pair_locus_point(self, capsys):
        code, stdout, _ = run(capsys, "classify", "1:1:1:1", "1:-1:1:-1")
        assert code == 0
        assert "in_V1: true" in stdout
        assert "in_Z: true" in stdout
        assert "fiber_rank: 4" in stdout

    def test_not_on_bundle(self, capsys):
        code, _, err = run(capsys, "classify", "1:1:1:1", "1:1:1:1")
        assert code == 65
        assert "not on the bundle" in err
        assert err == "error: (1:1:1:1, 1:1:1:1) is not on the bundle\n"

    def test_singular_fiber(self, capsys):
        code, stdout, _ = run(capsys, "classify", "0:1:1:1", "9:1:-1:0")
        assert code == 0
        assert "singular_fiber: true" in stdout
        assert "fiber_rank: -" in stdout

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "classify", "1:1:1", "1:-1:1:-1")
        assert code == 65

    def test_stdout_pinned(self, tmp_path, capsys):
        out = tmp_path / "points.txt"
        assert run(capsys, "enumerate", "--bound", "8", "--out", str(out))[0] == 0
        firsts = {}
        for row in out.read_text().splitlines():
            x, y, _, flags = row.split("|")
            firsts.setdefault(flags, (x, y))
        assert list(firsts.values()) == CLASSIFY_POINTS[:-1]
        stdout = ""
        for x, y in CLASSIFY_POINTS:
            code, text, _ = run(capsys, "classify", x, y)
            assert code == 0
            stdout += text
        assert hashlib.sha256(stdout.encode()).hexdigest() == CLASSIFY_SHA256

    def test_large_prime_coordinates_finish(self, capsys):
        start = time.perf_counter()
        code, stdout, _ = run(capsys, "classify", f"1:-1:{BIG_PRIME}:-{BIG_PRIME}", "1:1:1:1")
        assert code == 0
        assert time.perf_counter() - start < 5
        assert "in_V1: true" in stdout


class TestFiberRank:
    def test_generic_rank_one(self, capsys):
        code, stdout, _ = run(capsys, "fiber-rank", "1", "2", "3", "5")
        assert code == 0
        assert "rank_over_Q: 1" in stdout
        assert "segre_rank_one: true" in stdout
        assert "agreement: true" in stdout

    def test_fermat_rank_four(self, capsys):
        code, stdout, _ = run(capsys, "fiber-rank", "1", "1", "1", "1")
        assert code == 0
        assert "rank_over_Q: 4" in stdout

    def test_large_prime_coefficient_finishes(self, capsys):
        start = time.perf_counter()
        code, stdout, _ = run(capsys, "fiber-rank", "1", "1", "1", str(BIG_PRIME))
        assert code == 0
        assert time.perf_counter() - start < 5
        assert "agreement: true" in stdout

    def test_zero_coefficient_domain_error(self, capsys):
        code, _, err = run(capsys, "fiber-rank", "1", "0", "1", "1")
        assert code == 65

    def test_every_lattice_output_pinned(self, capsys):
        stdout = ""
        for s in LATTICE_SURFACES:
            code, out, _ = run(capsys, "fiber-rank", *map(str, s.coefficients))
            assert code == 0
            stdout += out
        assert hashlib.sha256(stdout.encode()).hexdigest() == FIBER_RANK_LATTICES_SHA256


class TestLines:
    def test_row_sums_and_orbits(self, capsys):
        code, stdout, _ = run(capsys, "lines", "1", "1", "1", "1")
        assert code == 0
        line_rows = [l for l in stdout.splitlines() if l.startswith("line ")]
        assert len(line_rows) == 27
        assert all(row.endswith("meets 10") for row in line_rows)
        sizes_row = next(l for l in stdout.splitlines() if l.startswith("orbit_sizes"))
        sizes = eval(sizes_row.split(": ")[1])
        assert sum(sizes) == 27

    @pytest.mark.parametrize("coefficients", LINES_SHA256, ids=str)
    def test_output_pinned(self, capsys, coefficients):
        code, stdout, _ = run(capsys, "lines", *map(str, coefficients))
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == LINES_SHA256[coefficients]


class TestVerifyIntersections:
    def test_all_pass(self, capsys):
        code, stdout, _ = run(capsys, "verify-intersections")
        assert code == 0
        assert stdout.count("PASS") == 3
        assert "FAIL" not in stdout

    def test_seed_changes_nothing(self, capsys):
        code, stdout, _ = run(capsys, "verify-intersections", "--seed", "99")
        assert code == 0
        assert stdout.count("PASS") == 3


class TestRankSurvey:
    def test_deterministic_given_seed(self, capsys):
        code1, out1, _ = run(capsys, "rank-survey", "--samples", "25", "--seed", "7")
        code2, out2, _ = run(capsys, "rank-survey", "--samples", "25", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "segre_disagreements: 0" in out1

    def test_survey_output_pinned(self, capsys):
        code, stdout, _ = run(capsys, "rank-survey", "--samples", "200", "--seed", "7")
        assert code == 0
        assert stdout == (
            "samples: 200  seed: 7\n"
            "rank 1: 187\nrank 2: 9\nrank 3: 3\nrank 4: 1\n"
            "segre_disagreements: 0\n"
            "galois_order 2: 1\ngalois_order 6: 9\n"
            "galois_order 18: 73\ngalois_order 54: 117\n"
        )

    def test_rank_lines_present(self, capsys):
        _, stdout, _ = run(capsys, "rank-survey", "--samples", "10", "--seed", "3")
        assert any(line.startswith("rank 1:") for line in stdout.splitlines())

    def test_galois_order_histogram_follows_rank_lines(self, capsys):
        _, stdout, _ = run(capsys, "rank-survey", "--samples", "40", "--seed", "3")
        lines = stdout.splitlines()
        tail = lines[lines.index("segre_disagreements: 0") + 1:]
        assert tail and all(line.startswith("galois_order ") for line in tail)
        orders = {int(line.split()[1].rstrip(":")): int(line.split()[2]) for line in tail}
        assert sum(orders.values()) == 40
        assert all(order in (2, 6, 18, 54) for order in orders)


class TestPlot:
    def test_round_trip(self, tmp_path, capsys):
        csv = tmp_path / "counts.csv"
        svg = tmp_path / "counts.svg"
        code, _, _ = run(capsys, "count", "--bounds", "1,2,4", "--out", str(csv))
        assert code == 0
        code, _, _ = run(capsys, "plot", str(csv), str(svg))
        assert code == 0
        body = svg.read_text()
        assert body.startswith("<svg")
        assert body.rstrip().endswith("</svg>")
        assert "polyline" in body
        assert "IN_Z" in body

    def test_missing_csv(self, tmp_path, capsys):
        code, _, err = run(capsys, "plot", str(tmp_path / "absent.csv"), str(tmp_path / "x.svg"))
        assert code == 66

    def test_empty_body(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("B,ALL\n")
        code, _, err = run(capsys, "plot", str(csv), str(tmp_path / "x.svg"))
        assert code == 65
        assert "no rows" in err

    def test_header_labels_are_escaped(self, tmp_path, capsys):
        csv = tmp_path / "counts.csv"
        svg = tmp_path / "counts.svg"
        csv.write_text("B,A<B&C,ALL\n1,2,3\n2,5,9\n")
        code, _, _ = run(capsys, "plot", str(csv), str(svg))
        assert code == 0
        texts = minidom.parse(str(svg)).getElementsByTagName("text")
        assert "A<B&C" in [t.firstChild.data for t in texts]

    def test_non_utf8_csv(self, tmp_path, capsys):
        csv = tmp_path / "binary.csv"
        csv.write_bytes(b"\xff\xfeB,ALL\n1,2\n")
        code, _, err = run(capsys, "plot", str(csv), str(tmp_path / "x.svg"))
        assert code == 65
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "body", ["0,5", "-2,5", "1,5\n0,6"], ids=["zero", "negative", "zero-after-valid"]
    )
    def test_non_positive_bound(self, tmp_path, capsys, body):
        csv = tmp_path / "bad.csv"
        csv.write_text(f"B,ALL\n{body}\n")
        code, _, err = run(capsys, "plot", str(csv), str(tmp_path / "x.svg"))
        assert code == 65
        assert err.startswith("error:")
        assert not (tmp_path / "x.svg").exists()


ARGPARSE_ERRORS = [
    ["count"],
    ["enumerate", "--bound", "abc"],
    ["count", "--bounds", "1", "--workers", "x"],
    ["fiber-rank", "1", "2", "3"],
    ["no-such-command"],
]


@pytest.mark.parametrize("argv", ARGPARSE_ERRORS)
def test_argparse_errors_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    # argparse's own usage and error lines, only the exit code differs
    err = capsys.readouterr().err
    assert err.startswith("usage: cubicbundle")
    assert re.fullmatch(r"cubicbundle( [a-z-]+)?: error: .+", err.splitlines()[-1])


def parser_outcome(parse, argv, capsys):
    """The exit code, stdout and stderr of parse(argv), which exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([command, "--help"] for command in cli.COMMANDS),
    [],
    ["count", "--bounds", "1", "--bogus"],
    *ARGPARSE_ERRORS,
])
def test_one_command_parser_answers_as_the_full_one(argv, capsys):
    # main builds only the subparser that argv names, or all of them
    full = parser_outcome(cli._build_parser().parse_args, argv, capsys)
    assert parser_outcome(main, argv, capsys) == full
    assert full[1] or full[2].startswith("usage: cubicbundle")


def test_the_full_parser_has_every_command():
    [sub] = [action for action in cli._build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    assert tuple(sub.choices) == cli.COMMANDS


def test_import_loads_neither_sympy_nor_mpmath():
    code = (
        "import sys, cubicbundle, cubicbundle.cli; "
        "print(sorted(m for m in ('sympy', 'mpmath') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_package_imports_only_the_standard_library():
    imported = set()
    for path in Path(cubicbundle.__file__).parent.glob("*.py"):
        # ast.walk reaches the imports inside functions too
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"argparse", "fractions", "itertools"} <= imported
    assert sorted(imported - sys.stdlib_module_names) == []


@pytest.mark.filterwarnings("ignore:Support for .*tool.setuptools.* is still")
def test_project_version_is_the_package_version():
    # pyproject.toml declares the version dynamic and reads it from the package
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(Path(__file__).parents[1] / "pyproject.toml")
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == cubicbundle.__version__


def test_package_import_loads_no_submodule():
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('cubicbundle.'))\n"
        "import cubicbundle\n"
        "print(loaded())\n"
        "import cubicbundle.cli\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    cli_modules = ["arith", "classify", "cli", "enumeration", "geometry", "picard"]
    assert result.stdout.splitlines() == [
        "[]", str([f"cubicbundle.{name}" for name in cli_modules]),
    ]


def test_main_freezes_start_up_objects_while_the_command_runs(monkeypatch, capsys):
    frozen = []
    monkeypatch.setattr(cli, "cmd_lines", lambda args: frozen.append(gc.get_freeze_count()) or 0)
    assert main(["lines", "1", "1", "1", "1"]) == 0
    assert frozen[0] > 1000
    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["lines"])
    assert gc.get_freeze_count() == 0


#: what cli loads only on demand: the process pool's modules, random, and
#: the dump module, which only dumps compile
LAZY_MODULES = ("concurrent.futures", "multiprocessing", "logging", "random", "cubicbundle.dump")


def modules_loaded_by(code, tmp_path):
    """Which of LAZY_MODULES a fresh interpreter has loaded after running
    code; -S keeps out the site hooks, which may load any of them."""
    code = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2  # so that two workers may start a pool here\n"
        f"{code}\n"
        f"print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        timeout=60, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_cli_import_loads_no_pool_and_no_random(tmp_path):
    assert modules_loaded_by("import cubicbundle.cli", tmp_path) == []
    # the dump imports enumeration, never the other way round
    assert modules_loaded_by("import cubicbundle.enumeration", tmp_path) == []


def test_count_below_the_pool_cut_loads_no_pool(tmp_path):
    code = (
        "from cubicbundle.cli import main\n"
        "main(['count', '--bounds', '1,2,4,8,16', '--workers', '2', '--out', 'c.csv'])"
    )
    loaded = modules_loaded_by(code, tmp_path)
    assert "concurrent.futures" not in loaded
    # a command that dumps nothing leaves the dump module unloaded
    assert "cubicbundle.dump" not in loaded
    survey = "from cubicbundle.cli import main\nmain(['rank-survey', '--samples', '5'])"
    assert "cubicbundle.dump" not in modules_loaded_by(survey, tmp_path)


def test_dump_below_the_pool_cut_loads_no_pool(tmp_path):
    # below the cut the count runs in one process, and a dump always does
    code = (
        "from cubicbundle.cli import main\n"
        "main(['count', '--bounds', '4', '--emit-points', '--workers', '2', '--out', 'c.csv'])"
    )
    loaded = modules_loaded_by(code, tmp_path)
    assert "concurrent.futures" not in loaded
    # each dump loads the dump module
    assert "cubicbundle.dump" in loaded
    enumerate_ = "from cubicbundle.cli import main\nmain(['enumerate', '--bound', '2', '--out', 'p'])"
    assert "cubicbundle.dump" in modules_loaded_by(enumerate_, tmp_path)


def _defined_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return [node.id for target in targets if target is not None
            for node in ast.walk(target) if isinstance(node, ast.Name)]


def test_every_top_level_name_is_loaded_by_the_program():
    """Every function, class and assignment at the top of a package module
    is loaded, by name or as an attribute, by code in src/ or perfbench/,
    outside its tests; a name that only the tests or the docstrings read
    belongs in the tests.  Imports do not count as loads, so a re-export
    keeps nothing alive.  Dunder names such as __version__ are read by the
    interpreter and by tools, not by code, and are not checked."""
    root = Path(__file__).parents[1]
    modules = sorted((root / "src" / "cubicbundle").glob("*.py"))
    program = [*root.joinpath("src").rglob("*.py"), *root.joinpath("perfbench").glob("*.py")]
    loaded = set()
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unused = [
        f"{path.name}:{statement.lineno} {name}"
        for path in modules
        for statement in ast.parse(path.read_text(), str(path)).body
        for name in _defined_names(statement)
        if name not in loaded and not (name.startswith("__") and name.endswith("__"))
    ]
    assert len(modules) > 5 and len(program) > len(modules)
    assert unused == []


def _defined_functions(module):
    """The functions and methods, by their wrapped function, that module
    defines at top level and in its classes."""
    for obj in vars(module).values():
        members = vars(obj).values() if isinstance(obj, type) else [obj]
        for member in members:
            member = getattr(member, "__func__", getattr(member, "fget", member))
            if callable(member):
                member = inspect.unwrap(member)
            if inspect.isfunction(member) and member.__module__ == module.__name__:
                yield member


def test_every_annotation_resolves():
    """Every annotation of a package function or method names what its
    module binds at top level, so tools that evaluate annotations, such as
    typing.get_type_hints, can read it; a type that a function imports
    lazily is named in its docstring instead."""
    unresolved = []
    checked = 0
    for path in sorted(Path(cubicbundle.__file__).parent.glob("*.py")):
        if path.stem == "__main__":
            continue  # runs the CLI on import and defines nothing
        module = importlib.import_module(f"cubicbundle.{path.stem}")
        for fn in _defined_functions(module):
            checked += 1
            try:
                inspect.get_annotations(fn, eval_str=True)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{fn.__qualname__}: {exc}")
    assert checked > 90
    assert unresolved == []


def test_cli_import_leaves_intersection_and_typing_unloaded():
    # -S: no site hooks, which may load typing on their own
    # dataclasses loads inspect, ast and dis; fractions loads decimal
    code = (
        "import sys, cubicbundle.cli\n"
        "unloaded = {'cubicbundle.intersection', 'typing', 'dataclasses', 'inspect',"
        " 'fractions', 'decimal'}\n"
        "print(sorted(unloaded & set(sys.modules)))\n"
        "from cubicbundle.picard import DiagonalCubic, picard_rank\n"
        "print(picard_rank(DiagonalCubic((1, 2, 3, 5))).rank_over_Q, 'fractions' in sys.modules)\n"
        "import cubicbundle.intersection\n"
        "print(type(cubicbundle.intersection.H1).__name__, 'dataclasses' in sys.modules)\n"
        "print(hasattr(cubicbundle, 'H1'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n1 False\nDivisorClass False\nFalse\n"


def cli_process(*argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-m", "cubicbundle", *argv], env=env, stdout=stdout,
        stderr=subprocess.PIPE,
    )


def test_reader_closing_the_pipe_after_one_line_exits_2_quietly():
    # the 1.6 MB dump overfills the pipe, so the writer meets the closed end
    proc = cli_process("enumerate", "--bound", "8", stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"0:0:0:1|")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_csv_into_a_closed_pipe_exits_2_quietly():
    # the CSV is small enough to wait in the buffer until the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process("count", "--bounds", "1,2,4", stdout=write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert b"Traceback" not in err and b"Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv", [["enumerate", "--bound", "2"], ["fiber-rank", "1", "1", "1", "1"]]
)
def test_full_stdout_exits_2_with_one_error_line(argv, unbuffered):
    # buffered, the output waits for the final flush; unbuffered, the first
    # write meets the full device
    env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "cubicbundle", *argv], env=env, stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


#: the commands that dump points to a file, run with --out out
DUMPS = [["enumerate", "--bound", "8"], ["count", "--bounds", "8", "--emit-points"]]


def failed_dump(monkeypatch, tmp_path, capsys, argv, exc):
    """Run argv with --out out and point_rows raising exc after its first
    str, once into an empty tmp_path and once over an earlier dump file:
    (exit status, stdout, stderr) of each, and the dump file's path.  The
    dump leaves nothing at its final name, or the earlier file's bytes, and
    no other file but a count's CSV, which is whole before its dump starts."""
    def rows(*args, **kwargs):
        stream = point_rows(*args, **kwargs)
        yield next(stream)
        stream.close()
        raise exc

    monkeypatch.setattr(dump, "point_rows", rows)
    dump_file = tmp_path / ("out" if argv[0] == "enumerate" else "out.points")
    results = []
    for before in (None, b"an earlier dump\n"):
        if before is not None:
            dump_file.write_bytes(before)
        results.append(run(capsys, *argv, "--out", str(tmp_path / "out")))
        left = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        if argv[0] == "count":
            assert left.pop("out").startswith(b"B,ALL,")
        assert left == ({} if before is None else {dump_file.name: before})
    return results, dump_file


@pytest.mark.parametrize("argv", DUMPS)
def test_interrupt_exits_130_with_one_error_line(monkeypatch, tmp_path, capsys, argv):
    results, _ = failed_dump(monkeypatch, tmp_path, capsys, argv, KeyboardInterrupt)
    assert results == [(130, "", "error: interrupted\n")] * 2


@pytest.mark.parametrize("argv", DUMPS)
def test_failed_dump_exits_2_and_leaves_no_file(monkeypatch, tmp_path, capsys, argv):
    results, dump_file = failed_dump(monkeypatch, tmp_path, capsys, argv, OSError("device gone"))
    # the error names the final path, not the temporary file
    assert results == [(2, "", f"error: cannot write {dump_file}: device gone\n")] * 2


def test_dump_into_a_device_is_written_in_place(capsys):
    # no temporary file beside /dev/null, which is not replaced
    code, stdout, err = run(capsys, "enumerate", "--bound", "2", "--out", os.devnull)
    assert (code, stdout, err) == (0, "", "")


def test_dump_bytes_pinned_under_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
    out = tmp_path / "counts.csv"
    for argv, stdout in (
        (["enumerate", "--bound", "8"], tmp_path / "points.txt"),
        (["count", "--bounds", "1,2,4,8", "--emit-points", "--out", str(out)], tmp_path / "table"),
    ):
        with open(stdout, "w") as handle:
            subprocess.run([sys.executable, "-O", "-m", "cubicbundle", *argv], env=env,
                           stdout=handle, check=True, timeout=60)
    assert sha256(tmp_path / "points.txt") == ENUMERATE_8_SHA256
    assert sha256(out) == COUNT_8_CSV_SHA256
    assert sha256(tmp_path / "counts.csv.points") == COUNT_8_POINTS_SHA256
