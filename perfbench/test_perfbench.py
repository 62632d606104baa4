"""Tests of the benchmark itself: each checker accepts the program's real
output at a small shape and rejects a mutated copy of it."""

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkers
from splitpile import cli

HERE = Path(__file__).resolve().parent


def run_cli(*args: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def enum_csv() -> str:
    return run_cli("enumerate", "recurrent", "-n", "3", "-d", "2", "--format", "csv")[1]


@pytest.fixture(scope="module")
def verify_output() -> tuple:
    return run_cli("--jobs", "1", "verify", "all", "--max-n", "2", "--max-d", "1")


def test_burning_test_counts_sorted_recurrent():
    for n, d in [(1, 0), (2, 2), (3, 1), (3, 3)]:
        found = sum(
            checkers.is_recurrent(n, d, a, b)
            for a in itertools.combinations_with_replacement(range(n + d - 1, -1, -1), n)
            for b in itertools.combinations_with_replacement(range(n, -1, -1), d)
        )
        assert found == checkers.recurrent_count(n, d)


def test_enum_checker_accepts_program_output(enum_csv):
    assert checkers.check_enum_csv(enum_csv, 3, 2, random.Random(0)) == []


def test_enum_checker_rejects_dropped_row(enum_csv):
    lines = enum_csv.splitlines()
    mutated = "\n".join(lines[:5] + lines[6:])
    assert any("rows, expected" in p for p in checkers.check_enum_csv(mutated, 3, 2, random.Random(0)))


def test_enum_checker_rejects_non_recurrent_row(enum_csv):
    lines = enum_csv.splitlines()
    assert lines[-1] == '"2,1,0;3,3",9,"0 2 1 0 1 0 1 0",11'
    # one grain fewer on w2 still sorts last, but burning stalls after w1
    lines[-1] = '"2,1,0;3,2",8,"0 2 1 0 1 0 1 0",11'
    problems = checkers.check_enum_csv("\n".join(lines), 3, 2, random.Random(0))
    assert any("not recurrent" in p for p in problems)


def test_enum_checker_rejects_wrong_block_sizes(enum_csv):
    lines = enum_csv.splitlines()
    assert lines[1] == '"4,4,4;3,3",18,"3 2",5'
    lines[1] = '"4,4,4;3,3",18,"2 3",5'  # same wtopple, wrong blocks
    problems = checkers.check_enum_csv("\n".join(lines), 3, 2, random.Random(0), sample=10**6)
    assert any("simulation gives (3, 2)" in p for p in problems)


@pytest.fixture(scope="module")
def polys() -> dict:
    return {m: run_cli("poly", "-n", "3", "-d", "2", "--method", m)[1] for m in ("itc-sum", "egge")}


def test_poly_checker_accepts_program_output(polys):
    assert checkers.check_polys(polys, 3, 2) == []
    paper = run_cli("poly", "-n", "2", "-d", "2", "--method", "egge")[1]
    assert checkers.check_paper_poly(paper) == []


def test_poly_checker_rejects_changed_coefficient(polys):
    obj = json.loads(polys["egge"])
    obj["terms"][3]["c"] += 1
    mutated = dict(polys, egge=json.dumps(obj))
    problems = checkers.check_polys(mutated, 3, 2)
    assert any("differs from itc-sum" in p for p in problems)
    assert any("value at (1,1)" in p for p in problems)
    paper = run_cli("poly", "-n", "2", "-d", "2", "--method", "egge")[1]
    obj = json.loads(paper)
    obj["terms"][0]["c"] = 2
    assert checkers.check_paper_poly(json.dumps(obj)) != []


def test_verify_checker_accepts_program_output(verify_output):
    code, out, err = verify_output
    assert checkers.check_verify(out, err, code, 2, 1) == []


def test_verify_checker_rejects_missing_or_failed_report(verify_output):
    code, out, err = verify_output
    lines = out.splitlines()
    missing = checkers.check_verify("\n".join(lines[1:]), err, code, 2, 1)
    assert any("reports missing" in p for p in missing)
    report = json.loads(lines[0])
    report["status"] = "fail"
    failed = checkers.check_verify("\n".join([json.dumps(report)] + lines[1:]), err, 4, 2, 1)
    assert any("status 'fail'" in p for p in failed)
    assert any("exit status 4" in p for p in failed)


@pytest.fixture
def scratch():
    """A directory under the benchmark's ignored output directory."""
    path = HERE / "out" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def test_benchmark_refuses_a_directory_without_sources(scratch):
    bench = scratch / "perfbench"
    bench.mkdir()
    for name in ("run.py", "checkers.py", "tracer.py"):
        shutil.copy(HERE / name, bench / name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "qt-sums", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_reaches_names_copied_into_other_modules(scratch):
    # f_cti is called through cli's method dict and enumerates through the
    # name qtpoly imported from asm; patching asm and qtpoly alone misses both
    stats_path = scratch / "stats.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(stats_path), "--",
         "poly", "-n", "3", "-d", "2", "--method", "cti"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
    )
    assert proc.returncode == 0
    assert proc.stdout == run_cli("poly", "-n", "3", "-d", "2", "--method", "cti")[1]
    stats = json.loads(stats_path.read_text())
    assert stats["counts"]["qtpoly.brute.calls"] == 1
    assert stats["counts"]["asm.enumerate.shapes"] == 1
    assert stats["counts"]["asm.enumerate.items"] == checkers.recurrent_count(3, 2)
    assert stats["counts"]["toppling.sizes.calls"] == checkers.recurrent_count(3, 2)
    assert stats["bytes_out"] == len(proc.stdout)
    assert [name for name, *_ in stats["spans"]] == ["cli", "qtpoly.brute", "asm.enumerate"]
