import ast
import gc
import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from xml.dom import minidom

import pytest

import cubicbundle
from cubicbundle import cli
from cubicbundle.cli import main

# a prime above 10^15, too large to factor by trial division within a test's time
BIG_PRIME = 1000000000000037

# SHA-256 of `count --bounds 1,2,4,8 --emit-points` (CSV and .points) and of
# `enumerate --bound 8`, recorded before the dumps were streamed
COUNT_8_CSV_SHA256 = "2f197215ecd3cb5479ea9a1f62c82be286aee1c54fd15063c786af766d50d21f"
COUNT_8_POINTS_SHA256 = "8b72c66af71c01bc8f4357af10b73dee4fb65d3b9599843b450e7253680007e3"
ENUMERATE_8_SHA256 = "ee34843c7e5d5d8d4e0e442b0eb343abca5a5ed9fc682ce6cb93f775cbd15377"


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
        assert err.startswith("error:")


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

    def test_singular_fiber(self, capsys):
        code, stdout, _ = run(capsys, "classify", "0:1:1:1", "9:1:-1:0")
        assert code == 0
        assert "singular_fiber: true" in stdout
        assert "fiber_rank: -" in stdout

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "classify", "1:1:1", "1:-1:1:-1")
        assert code == 65

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


@pytest.mark.parametrize("argv", [
    ["count"],
    ["enumerate", "--bound", "abc"],
    ["count", "--bounds", "1", "--workers", "x"],
    ["fiber-rank", "1", "2", "3"],
    ["no-such-command"],
])
def test_argparse_errors_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    # argparse's own usage and error lines, only the exit code differs
    err = capsys.readouterr().err
    assert err.startswith("usage: cubicbundle")
    assert re.fullmatch(r"cubicbundle( [a-z-]+)?: error: .+", err.splitlines()[-1])


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


#: what cli loads only on demand: the process pool's modules, and random
LAZY_MODULES = ("concurrent.futures", "multiprocessing", "logging", "random")


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


def test_count_below_the_pool_cut_loads_no_pool(tmp_path):
    code = (
        "from cubicbundle.cli import main\n"
        "main(['count', '--bounds', '1,2,4,8,16', '--workers', '2', '--out', 'c.csv'])"
    )
    assert "concurrent.futures" not in modules_loaded_by(code, tmp_path)


def test_dump_on_two_workers_loads_the_pool(tmp_path):
    # the dumps keep their pool at every bound; enumerate runs on one worker
    code = (
        "from cubicbundle.cli import main\n"
        "main(['count', '--bounds', '4', '--emit-points', '--workers', '2', '--out', 'c.csv'])"
    )
    assert "concurrent.futures" in modules_loaded_by(code, tmp_path)


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
