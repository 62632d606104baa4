import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from splitpile import asm, cli
from splitpile.asm import (
    InternalError,
    SplitGraph,
    _burn_sorted,
    enumerate_sorted_recurrent,
    format_config,
    height,
)
from splitpile.cli import main
from splitpile.toppling import topple_cti, wtopple

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_recurrent_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "recurrent", "-n", "2", "-d", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 30
    assert lines[0] == "3,3;2,2"
    assert lines[-1] == "1,0;2,2"


def test_enumerate_recurrent_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "recurrent", "-n", "2", "-d", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "config,height,topple_cti,wtopple_cti"
    assert len(lines) == 31
    assert lines[1] == '"3,3;2,2",10,"2 2",4'


def test_enumerate_csv_matches_cti_simulation(capsys):
    # the CSV takes block sizes from the burning counter form; the full
    # parallel-toppling simulation must give the same rows
    for n, d in [(1, 0), (1, 3), (2, 0), (3, 2), (4, 0), (4, 3), (5, 1)]:
        g = SplitGraph(n, d)
        code, out, _ = run_cli(capsys, "enumerate", "recurrent", "-n", str(n), "-d", str(d), "--format", "csv")
        assert code == 0
        expected = ["config,height,topple_cti,wtopple_cti"]
        for c in enumerate_sorted_recurrent(g):
            trace = topple_cti(g, c)
            sizes = " ".join(str(x) for x in trace.sizes())
            expected.append(f'"{format_config(c)}",{height(c)},"{sizes}",{wtopple(trace)}')
        assert out.splitlines() == expected


def test_enumerate_text_is_format_config_per_row(capsys):
    for n, d in [(1, 0), (1, 2), (3, 0), (3, 2), (4, 3)]:
        code, out, _ = run_cli(capsys, "enumerate", "recurrent", "-n", str(n), "-d", str(d))
        assert code == 0
        assert out.splitlines() == [format_config(c) for c in enumerate_sorted_recurrent(SplitGraph(n, d))]


def test_enumerate_polyominoes_burns_nothing(capsys, monkeypatch):
    # the enumeration builds the 140 sorted recurrent configurations of
    # S(3,2) from their burn blocks, and the polyomino walk must not burn
    # an enumerated configuration again
    burns = []

    def counted_burn(*args, **kwargs):
        burns.append(args)
        return _burn_sorted(*args, **kwargs)

    monkeypatch.setattr(asm, "_burn_sorted", counted_burn)
    code, out, _ = run_cli(capsys, "enumerate", "polyominoes", "-n", "3", "-d", "2")
    assert code == 0
    assert len(out.splitlines()) == 140
    assert len(burns) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["recurrent"],
        ["recurrent", "--format", "csv"],
        ["recurrent", "--format", "json"],
        ["polyominoes"],
    ],
)
def test_enumerate_streams_without_filling_the_cache(monkeypatch, argv):
    # rows go out while the enumeration runs: the output grows between the
    # enumerator's first and last item, which a command that collected the
    # set before writing would not show
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written = []

    def watched(real):
        def items(graph):
            for item in real(graph):
                written.append(out.tell())
                yield item

        return items

    for name in ("enumerate_sorted_recurrent", "iter_sorted_recurrent_groups"):
        monkeypatch.setattr(cli, name, watched(getattr(cli, name)))
    assert main(["enumerate", argv[0], "-n", "3", "-d", "2", *argv[1:]]) == 0
    assert written and written[-1] > written[0]


def _limit_memory():
    # a command that materializes the set fails fast instead of filling RAM
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _child_env() -> dict:
    # stdout stays buffered, as in a shell pipeline, so that a closed pipe
    # also meets the flush at interpreter exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def _read_then_close(argv, count):
    """Run the CLI in a child under the memory limit, read ``count`` lines,
    close the pipe; returns the lines, the exit code and stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "splitpile.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_limit_memory,
        env=_child_env(),
    )
    watchdog = threading.Timer(30, proc.kill)
    watchdog.start()
    try:
        lines = [proc.stdout.readline() for _ in range(count)]
        proc.stdout.close()
        code = proc.wait(timeout=30)
        err = proc.stderr.read().decode()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stderr.close()
    return lines, code, err


def test_enumerate_streams_first_rows_and_survives_closed_pipe():
    # S(8,5) has 29,099,070 rows; reading the first 2,000 and closing the
    # pipe must end the command cleanly
    lines, code, err = _read_then_close(
        ["enumerate", "recurrent", "-n", "8", "-d", "5", "--format", "csv"], 2000
    )
    assert lines[0] == b"config,height,topple_cti,wtopple_cti\n"
    assert lines[1] == b'"12,12,12,12,12,12,12,12;8,8,8,8,8",136,"8 5",13\n'
    assert all(line.endswith(b"\n") for line in lines)
    assert code == 0
    assert err == ""


def test_enumerate_quasistable_streams_and_survives_closed_pipe():
    # S(8,5) has 261,891,630 sorted quasi-stable configurations, far more
    # than a list of them fits in the address-space limit
    lines, code, err = _read_then_close(["enumerate", "quasistable", "-n", "8", "-d", "5"], 2)
    assert lines == [b"13,13,13,13,13,13,13,13;8,8,8,8,8\n", b"13,13,13,13,13,13,13,13;8,8,8,8,7\n"]
    assert code == 0
    assert err == ""


def test_enumerate_survives_pipe_closed_before_output():
    # the 30 rows of S(2,2) fit in stdout's buffer, so the broken pipe
    # shows only when the buffer is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "splitpile.cli", "enumerate", "recurrent", "-n", "2", "-d", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_enumerate_words_and_sequences(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "words", "-n", "1", "-d", "0")
    assert code == 0 and out.strip() == "UD"
    code, out, _ = run_cli(capsys, "enumerate", "itc-sequences", "-n", "2", "-d", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    code, out, _ = run_cli(capsys, "enumerate", "quasistable", "-n", "2", "-d", "2", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 90


@pytest.mark.parametrize("kind", ["words", "polyominoes", "itc-sequences", "quasistable"])
def test_enumerate_csv_is_for_recurrent_only(capsys, kind):
    # only recurrent has CSV rows; the others printed their text rows
    code, out, err = run_cli(capsys, "enumerate", kind, "-n", "2", "-d", "1", "--format", "csv")
    assert code == 3
    assert out == ""
    assert err == f"error: --format csv is for enumerate recurrent only, not {kind}\n"


def test_enumerate_json_roundtrips_through_stats(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "recurrent", "-n", "2", "-d", "2", "--format", "json")
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        config = ",".join(map(str, obj["clique"])) + ";" + ",".join(map(str, obj["independent"]))
        code2, out2, _ = run_cli(capsys, "stats", config, "-n", "2", "-d", "2")
        assert code2 == 0
        assert json.loads(out2)["config"] == config


def test_stats_config(capsys):
    code, out, _ = run_cli(capsys, "stats", "7,6,5,2,1;5,4,4", "-n", "5", "-d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["wtopple_itc"] == 14
    assert payload["level"] == 9
    assert payload["topple_cti"] == [1, 3, 2, 0, 2, 0]
    assert payload["word"] == "UHUDUHHDUDUDD"
    assert payload["mirror_word"] == "UUDUDUHHDUDHD"
    assert payload["area"] == 9
    assert payload["bounce"] == 6


def test_stats_word(capsys):
    code, out, _ = run_cli(capsys, "stats", "--word", "UUDUDUHHDUDHD")
    assert code == 0
    payload = json.loads(out)
    assert payload["area"] == 9
    assert payload["bounce"] == 6
    assert payload["config_phi"] == "7,7,6,5,2;3,3,1"


def test_stats_word_without_up_steps(capsys):
    code, out, _ = run_cli(capsys, "stats", "--word", "HH")
    assert code == 0
    payload = json.loads(out)
    assert payload["area"] == 0 and payload["bounce"] == 0
    assert payload["peaks"] == [] and "config_phi" not in payload


def test_stats_trivial_config(capsys):
    code, out, _ = run_cli(capsys, "stats", "0", "-n", "1", "-d", "0")
    assert code == 0
    assert json.loads(out)["level"] == 0


def test_stats_rejects_non_recurrent(capsys):
    code, _, err = run_cli(capsys, "stats", "2,2;1,1", "-n", "2", "-d", "2")
    assert code == 3
    assert "not recurrent" in err


def test_stats_rejects_unsorted_config(capsys):
    code, out, err = run_cli(capsys, "stats", "2,3;2,2", "-n", "2", "-d", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: 2,3;2,2 is not sorted")


def test_stats_rejects_shape_mismatch(capsys):
    code, _, _ = run_cli(capsys, "stats", "1,0;2,2", "-n", "3", "-d", "2")
    assert code == 3


@pytest.mark.parametrize("text", ["3,,3;2,2", ",3,3;2,2", "3,3;2,,2"])
def test_stats_rejects_empty_entries(capsys, text):
    code, out, err = run_cli(capsys, "stats", text, "-n", "2", "-d", "2")
    assert code == 3
    assert out == ""
    assert err == f"error: bad configuration text {text!r}\n"


def test_stats_refuses_a_word_and_a_config(capsys):
    # the word's statistics were printed and the configuration ignored
    code, out, err = run_cli(capsys, "stats", "3,3;2,2", "-n", "2", "-d", "2", "--word", "UHD")
    assert code == 3
    assert out == ""
    assert err == "error: stats takes --word or a config, not both\n"


@pytest.mark.parametrize("shape", [["-n", "5", "-d", "3"], ["-n", "5"], ["-d", "3"]])
def test_stats_word_refuses_a_shape(capsys, shape):
    # the statistics of the word's own S(1,1) were printed and the shape ignored
    code, out, err = run_cli(capsys, "stats", "--word", "UHD", *shape)
    assert code == 3
    assert out == ""
    assert err == "error: stats --word takes no -n or -d\n"


def test_poly_latex(capsys):
    code, out, _ = run_cli(capsys, "poly", "-n", "2", "-d", "2", "--method", "cti", "--format", "latex")
    assert code == 0
    assert out.strip().startswith("q^5 + t^5 + q^4t")


def test_poly_all_agree(capsys):
    code, out, _ = run_cli(capsys, "poly", "-n", "2", "-d", "2", "--method", "all")
    assert code == 0
    assert out.splitlines()[0] == "5 methods agree"
    code, out, _ = run_cli(capsys, "poly", "-n", "1", "-d", "0")
    assert code == 0
    assert json.loads(out.splitlines()[1]) == {"terms": [{"q": 0, "t": 0, "c": 1}]}


def test_poly_all_latex_states_the_agreement_first(capsys):
    code, out, _ = run_cli(capsys, "poly", "-n", "2", "-d", "2", "--method", "all", "--format", "latex")
    assert code == 0
    header, poly, *rest = out.splitlines()
    assert header == "% 5 methods agree"
    assert poly.startswith("q^5 + t^5 + q^4t") and not rest


def test_verify_small(capsys):
    code, out, err = run_cli(capsys, "verify", "cycle-lemma", "--max-n", "2", "--max-d", "2")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["status"] == "pass" for r in reports)
    assert "checks passed" in err


def test_verify_output_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "bijections", "--max-n", "2", "--max-d", "1")
    _, out2, _ = run_cli(capsys, "verify", "bijections", "--max-n", "2", "--max-d", "1")
    assert out1 == out2
    assert "seconds" not in out1
    _, timed, _ = run_cli(capsys, "verify", "bijections", "--max-n", "1", "--max-d", "0", "--timings")
    assert all("seconds" in json.loads(line) for line in timed.strip().splitlines())


class _FlushRecorder(io.StringIO):
    """Standard output that keeps what it held at its last flush."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()
        super().flush()


def test_verify_flushes_each_report_before_the_next_check(monkeypatch):
    out = _FlushRecorder()
    seen = []

    def check(n, d):
        seen.append(out.flushed)

    from splitpile import verify as vf

    monkeypatch.setattr(vf, "_CHECK_FUNCS", dict.fromkeys(vf._CHECK_FUNCS, check))
    monkeypatch.setattr(sys, "stdout", out)
    code = main(["--jobs", "1", "verify", "cycle-lemma", "--max-n", "1", "--max-d", "0"])
    lines = out.getvalue().splitlines(keepends=True)
    assert code == 0
    assert [json.loads(line)["check"] for line in lines] == [
        "operator_laws", "weight_laws", "class_partition",
    ]
    assert seen == ["", lines[0], lines[0] + lines[1]]


def _kill_group(pid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def test_verify_pool_stops_when_the_reader_leaves():
    # the reader closes the pipe after the first report: the command must
    # cancel the checks not yet started and end cleanly, and stderr reaches
    # its end only once no worker of the pool holds it open
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "splitpile.cli", "--jobs", "2", "verify", "all",
         "--max-n", "3", "--max-d", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        start_new_session=True,
    )
    watchdog = threading.Timer(60, _kill_group, (proc.pid,))
    watchdog.start()
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no worker outlives the command
    finally:
        watchdog.cancel()
        _kill_group(proc.pid)
        proc.wait()
        proc.stderr.close()
    assert first == b'{"check":"phi_roundtrip","params":{"n":1,"d":0},"status":"pass"}\n'
    assert code == 0
    assert err == b""
    assert time.monotonic() - start < 60


def test_verify_rejects_empty_shape_range(capsys):
    code, out, err = run_cli(capsys, "verify", "theorems", "--max-n", "0")
    assert code == 3
    assert out == "" and "checks passed" not in err


def test_verify_all_rejects_negative_max_n(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--max-n", "-3")
    assert code == 3
    assert out == "" and "checks passed" not in err


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_verify_rejects_fewer_than_one_job(capsys, jobs):
    code, out, err = run_cli(capsys, "--jobs", jobs, "verify", "theorems", "--max-n", "1", "--max-d", "0")
    assert code == 3
    assert out == ""
    assert err == f"error: need --jobs >= 1, got {jobs}\n"


def test_poly_mismatch_certificate(capsys, monkeypatch):
    # force a disagreement to exercise the certificate path and exit code
    from splitpile import cli as cli_mod
    from splitpile.qtpoly import QtPolynomial

    broken = dict(cli_mod._METHODS)
    broken["egge"] = lambda n, d: QtPolynomial.monomial(99, 99)
    monkeypatch.setattr(cli_mod, "_METHODS", broken)
    code, out, _ = run_cli(capsys, "poly", "-n", "1", "-d", "1", "--method", "all")
    assert code == 4
    certificate = json.loads(out)
    assert certificate["status"] == "mismatch"
    assert "egge" in certificate["differences"]


@pytest.mark.parametrize(
    "shifted, expected",
    [(("cti",), 10), (("egge",), 4), (("cti", "egge"), 4)],
    ids=["cti", "egge", "both"],
)
def test_poly_mismatch_exit_code_names_the_conjecture(capsys, monkeypatch, shifted, expected):
    # f_cti is the conjectural method: a disagreement of it alone is a
    # conjecture counterexample, one of a proved method is a mismatch
    from splitpile.qtpoly import QtPolynomial

    broken = dict(cli._METHODS)
    for name in shifted:
        broken[name] = lambda n, d, real=broken[name]: real(n, d) + QtPolynomial.monomial(0, 0)
    monkeypatch.setattr(cli, "_METHODS", broken)
    code, out, _ = run_cli(capsys, "poly", "-n", "2", "-d", "2", "--method", "all")
    assert code == expected
    certificate = json.loads(out)
    assert certificate["status"] == "mismatch"
    assert sorted(certificate["differences"]) == sorted(shifted)


def test_verify_conjecture_counterexample_exit_code(capsys, monkeypatch):
    from splitpile import verify as vf

    broken = dict(vf._CHECK_FUNCS)
    broken["qt_cti_equals_itc"] = lambda n, d: {"difference": {"terms": []}}
    monkeypatch.setattr(vf, "_CHECK_FUNCS", broken)
    code, out, _ = run_cli(capsys, "verify", "conjectures", "--max-n", "1", "--max-d", "0")
    assert code == 10
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert any(r["status"] == "fail" and "counterexample" in r for r in reports)


def test_verify_failed_theorem_check_exit_code(capsys, monkeypatch):
    from splitpile import verify as vf

    broken = dict(vf._CHECK_FUNCS)
    broken["weight_laws"] = lambda n, d: {"config": "0", "law": "decrement"}
    monkeypatch.setattr(vf, "_CHECK_FUNCS", broken)
    code, out, err = run_cli(capsys, "--jobs", "1", "verify", "cycle-lemma", "--max-n", "1", "--max-d", "0")
    assert code == 4
    statuses = [json.loads(line)["status"] for line in out.strip().splitlines()]
    assert statuses == ["pass", "fail", "pass"]
    assert err == "2/3 checks passed\n"


def _raise_internal(*_args):
    raise InternalError("invariant broken on purpose")


def test_verify_internal_error_becomes_error_report(capsys, monkeypatch):
    from splitpile import verify as vf

    broken = dict(vf._CHECK_FUNCS)
    broken["qt_cti_equals_itc"] = _raise_internal
    monkeypatch.setattr(vf, "_CHECK_FUNCS", broken)
    code, out, err = run_cli(capsys, "--jobs", "1", "verify", "conjectures", "--max-n", "2", "--max-d", "0")
    assert code == 5
    reports = [json.loads(line) for line in out.strip().splitlines()]
    errors = [r for r in reports if r["status"] == "error"]
    assert [r["params"] for r in errors] == [{"n": 1, "d": 0}, {"n": 2, "d": 0}]
    assert all(r["check"] == "qt_cti_equals_itc" for r in errors)
    assert all(r["counterexample"] == {"internal_error": "invariant broken on purpose"} for r in errors)
    others = [r for r in reports if r["status"] != "error"]
    assert len(others) == 4 and all(r["status"] == "pass" for r in others)
    assert err == "4/6 checks passed\n"


def test_verify_internal_error_outranks_counterexample(capsys, monkeypatch):
    from splitpile import verify as vf

    broken = dict(vf._CHECK_FUNCS)
    broken["qt_cti_equals_itc"] = lambda n, d: {"difference": {"terms": []}}
    broken["qt_cti_equals_schroder"] = _raise_internal
    monkeypatch.setattr(vf, "_CHECK_FUNCS", broken)
    code, out, _ = run_cli(capsys, "--jobs", "1", "verify", "conjectures", "--max-n", "1", "--max-d", "0")
    assert code == 5
    statuses = [json.loads(line)["status"] for line in out.strip().splitlines()]
    assert statuses == ["fail", "error", "pass"]


def test_poly_internal_error_certificate(capsys, monkeypatch):
    from splitpile import cli as cli_mod

    broken = dict(cli_mod._METHODS)
    broken["egge"] = _raise_internal
    monkeypatch.setattr(cli_mod, "_METHODS", broken)
    for method in ("egge", "all"):
        code, out, err = run_cli(capsys, "poly", "-n", "2", "-d", "1", "--method", method)
        assert code == 5
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"status": "internal-error", "message": "invariant broken on purpose"}


def test_poly_rejects_n_zero_for_every_method(capsys):
    for method in ("cti", "itc", "schroder", "egge", "itc-sum", "all"):
        code, out, err = run_cli(capsys, "poly", "-n", "0", "-d", "2", "--method", method)
        assert code == 3, method
        assert out == "" and err.startswith("error:"), method


def test_render_word(tmp_path, capsys):
    out_file = tmp_path / "path.svg"
    code, _, _ = run_cli(capsys, "render", "--word", "UHUDUHHDUDUDD", "--out", str(out_file))
    assert code == 0
    doc = out_file.read_text()
    assert doc.startswith('<?xml version="1.0"')
    assert "circle" in doc  # peak dots


def test_render_config(tmp_path, capsys):
    out_file = tmp_path / "poly.svg"
    code, _, _ = run_cli(
        capsys, "render", "7,4,2,1;4,4,3,3,1", "-n", "4", "-d", "5",
        "--overlay", "cti", "--out", str(out_file),
    )
    assert code == 0
    assert "stroke-dasharray" in out_file.read_text()


def test_render_batch(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "render", "--batch-dir", str(tmp_path / "figs"), "-n", "2", "-d", "2"
    )
    assert code == 0
    files = sorted((tmp_path / "figs").glob("*.svg"))
    assert len(files) == 30
    assert "wrote 30 files" in err


def test_render_rejects_non_schroder_word(capsys):
    code, out, err = run_cli(capsys, "render", "--word", "UUX")
    assert code == 3
    assert out == "" and "not a Schroder word" in err


def test_render_rejects_unknown_word_overlay(capsys):
    code, out, err = run_cli(capsys, "render", "--word", "UHD", "--overlay", "peaks,cti")
    assert code == 3
    assert out == "" and "cti" in err


def test_render_rejects_unknown_polyomino_overlay(capsys):
    code, out, err = run_cli(
        capsys, "render", "7,4,2,1;4,4,3,3,1", "-n", "4", "-d", "5", "--overlay", "bounce"
    )
    assert code == 3
    assert out == "" and "bounce" in err


def test_render_requires_input(capsys):
    code, _, _ = run_cli(capsys, "render")
    assert code == 3


@pytest.mark.parametrize(
    "inputs",
    [
        ["3,3;2,2", "--word", "UHD"],
        ["--batch-dir", "figs", "--word", "UHD"],
        ["--batch-dir", "figs", "3,3;2,2"],
    ],
    ids=["config-and-word", "batch-and-word", "batch-and-config"],
)
def test_render_refuses_more_than_one_input(tmp_path, capsys, inputs):
    # the word won over the configuration, and the batch over both
    argv = [str(tmp_path / x) if x == "figs" else x for x in inputs]
    code, out, err = run_cli(capsys, "render", *argv, "-n", "2", "-d", "2")
    assert code == 3
    assert out == ""
    assert err == "error: render needs exactly one of --word, a config and --batch-dir\n"
    assert not (tmp_path / "figs").exists()


@pytest.mark.parametrize(
    "inputs, message",
    [
        (["--word", "UHD", "-n", "5", "-d", "3"], "render --word takes no -n or -d"),
        (["--batch-dir", "figs", "-n", "1", "-d", "1"], "render --batch-dir takes no --out"),
    ],
    ids=["word-and-shape", "batch-and-out"],
)
def test_render_refuses_dropped_options(tmp_path, capsys, inputs, message):
    # the word ignored -n and -d; the batch was written and --out never created
    argv = [str(tmp_path / x) if x == "figs" else x for x in inputs]
    out_file = tmp_path / "one.svg"
    code, out, err = run_cli(capsys, "render", *argv, "--out", str(out_file))
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "figs").exists() and not out_file.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "bogus-kind", "-n", "1", "-d", "0"])
    assert exc.value.code == 2
