"""The splitpile benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's commands run through the ``splitpile``
command line as child processes, in whole rounds, until ``S`` seconds have
passed; the end-to-end metrics are medians over the rounds.  With
``--trace 1`` every workload runs one round untraced and one round under
``perfbench/tracer.py``, which reports the per-layer metrics and the
tracing overhead.  Outputs are checked by ``perfbench/checkers.py`` after
the timed part.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checkers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# What the installed ``splitpile`` script runs, followed by a report of the
# process's peak resident memory.  The peak is read from VmHWM because the
# ru_maxrss that os.wait4 returns also counts the benchmark's own memory,
# which a child inherits up to its exec.
PEAK_MARKER = "perfbench-peak-kB"
ENTRY = (
    "import sys\n"
    "from splitpile.cli import main\n"
    "code = main()\n"
    "sys.stdout.flush()\n"
    "with open('/proc/self/status') as status:\n"
    "    peak = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
    f"sys.stderr.write('{PEAK_MARKER} ' + peak[0] + '\\n')\n"
    "sys.exit(code)\n"
)
SETUP = "import splitpile.cli"
SETUP_PER_ROUND = 3  # interpreter starts timed before each round
# Every command is killed once the run has lasted this long, so that a run
# ends within its 180 s limit even if the program hangs.
RUN_DEADLINE_S = 165.0

ENUM_N, ENUM_D = 6, 3
QT_N, QT_D = 7, 4
VERIFY_N, VERIFY_D = 4, 3


@dataclass
class Result:
    """One finished command."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    first_result_s: float | None
    cpu_s: float
    peak_rss_mb: float


@dataclass(frozen=True)
class Workload:
    commands: tuple  # splitpile argument lists, run in this order each round
    result_line: int  # index of the first output line that is a result
    items: int  # the workload's unit of work per round
    check: Callable[[list, random.Random], list]  # (one round's results, rng) -> problems
    preflight: tuple = ()  # (arguments, checker of the output), run once, untimed


WORKLOADS = {
    "enum-stream": Workload(
        commands=(["enumerate", "recurrent", "-n", str(ENUM_N), "-d", str(ENUM_D), "--format", "csv"],),
        result_line=1,  # after the CSV header
        items=checkers.recurrent_count(ENUM_N, ENUM_D),
        check=lambda rs, rng: checkers.check_enum_csv(rs[0].stdout, ENUM_N, ENUM_D, rng),
    ),
    "qt-sums": Workload(
        commands=tuple(
            ["poly", "-n", str(QT_N), "-d", str(QT_D), "--method", m] for m in ("itc-sum", "egge")
        ),
        result_line=0,
        items=checkers.itc_sequence_count(QT_N, QT_D) + checkers.composition_pair_count(QT_N, QT_D),
        check=lambda rs, rng: checkers.check_polys(
            {"itc-sum": rs[0].stdout, "egge": rs[1].stdout}, QT_N, QT_D
        ),
        preflight=tuple(
            (["poly", "-n", "2", "-d", "2", "--method", m], checkers.check_paper_poly)
            for m in ("itc-sum", "egge")
        ),
    ),
    "verify-all": Workload(
        commands=(["--jobs", "1", "verify", "all", "--max-n", str(VERIFY_N), "--max-d", str(VERIFY_D)],),
        result_line=0,
        items=len(checkers.verify_all_reports(VERIFY_N, VERIFY_D)),
        check=lambda rs, rng: checkers.check_verify(
            rs[0].stdout, rs[0].stderr, rs[0].code, VERIFY_N, VERIFY_D
        ),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "first_result_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "items_per_s": "1/s",
}

SLOW_CHECKS = (
    "class_partition",
    "operator_laws",
    "polyomino_statistics",
    "hexagon_multinomial",
    "abelian_stabilization",
)


def program_env() -> dict:
    """The environment every child runs in: the checkout's sources, a fixed
    hash seed, and no SANDPILE_LAB_JOBS, which would override ``--jobs``."""
    env = dict(os.environ)
    env.pop("SANDPILE_LAB_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Starts commands, times them and keeps the run inside its deadline."""

    def __init__(self) -> None:
        self.env = program_env()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def run(self, argv: list, result_line: int = 0) -> Result:
        """Run ``argv``; time to exit, time to the output line numbered
        ``result_line`` (0-based), CPU from ``os.wait4`` and the peak memory
        the child reports (``os.wait4``'s figure if it reports none)."""
        with tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            watchdog.start()
            try:
                chunks, newlines, first = [], 0, None
                fd = proc.stdout.fileno()
                while chunk := os.read(fd, 1 << 16):
                    if first is None:
                        newlines += chunk.count(b"\n")
                        if newlines > result_line:
                            first = time.perf_counter() - start
                    chunks.append(chunk)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        peak_kb = usage.ru_maxrss
        head, _, last = stderr.rstrip("\n").rpartition("\n")
        if last.startswith(PEAK_MARKER + " "):
            stderr, peak_kb = head + "\n" if head else "", int(last.split()[1])
        return Result(
            code=proc.returncode,
            stdout=b"".join(chunks).decode("utf-8", "replace"),
            stderr=stderr,
            wall_s=wall,
            first_result_s=first,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=peak_kb / 1024.0,
        )

    def program(self, args: list, result_line: int = 0) -> Result:
        return self.run([sys.executable, "-c", ENTRY, *args], result_line)

    def traced(self, args: list, stats_path: Path, result_line: int = 0) -> Result:
        tracer = str(HERE / "tracer.py")
        return self.run([sys.executable, tracer, str(stats_path), "--", *args], result_line)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_rounds(workload: Workload, rounds: list, rng: random.Random) -> list:
    """Check the first round in full and every other round against it,
    skipping commands that failed (they are counted in ``failed``)."""
    complete = [r for r in rounds if all(x.code == 0 for x in r)]
    if not complete:
        return []
    reference = complete[0]
    problems = workload.check(reference, rng)
    for number, round_results in enumerate(rounds, start=1):
        for ref, res in zip(reference, round_results):
            if res.code == 0 and digest(res.stdout) != digest(ref.stdout):
                problems.append(f"round {number}: output differs from the first round")
    return problems


def preflight(runner: Runner, workload: Workload) -> tuple:
    """Run the workload's untimed probes; returns (attempted, failed, problems)."""
    failed, problems = 0, []
    for args, check in workload.preflight:
        res = runner.program(args)
        if res.code != 0:
            failed += 1
        else:
            problems += [f"{' '.join(args)}: {p}" for p in check(res.stdout)]
    return len(workload.preflight), failed, problems


def round_first_result(round_results: list) -> float:
    """Launch of the round to its first result line."""
    elapsed = 0.0
    for res in round_results:
        if res.first_result_s is not None:
            return elapsed + res.first_result_s
        elapsed += res.wall_s
    return elapsed


def time_setup(runner: Runner) -> float:
    """Interpreter start plus ``import splitpile.cli``, launch to exit."""
    res = runner.run([sys.executable, "-c", SETUP])
    if res.code != 0:
        raise SystemExit(f"importing splitpile.cli failed:\n{res.stderr}")
    return res.wall_s


def timed_run(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    runner = Runner()
    time_setup(runner)  # writes the bytecode caches; not timed
    attempted, failed, problems = preflight(runner, workload)

    # Rounds start while the last one would still end inside the window;
    # set-up samples are spread over the run like the rounds are.
    setup, rounds = [], []
    start = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        setup += [time_setup(runner) for _ in range(SETUP_PER_ROUND)]
        rounds.append([runner.program(args, workload.result_line) for args in workload.commands])
        last = time.perf_counter() - began
    attempted += sum(len(r) for r in rounds)
    failed += sum(res.code != 0 for r in rounds for res in r)
    problems += check_rounds(workload, rounds, random.Random(seed))

    wall = statistics.median(sum(res.wall_s for res in r) for r in rounds)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(sum(res.cpu_s for res in r) for r in rounds),
        "first_result_s": statistics.median(round_first_result(r) for r in rounds),
        "peak_rss_mb": statistics.median(max(res.peak_rss_mb for res in r) for r in rounds),
        "setup_s": statistics.median(setup),
        "items_per_s": workload.items / wall,
    }
    print(f"{name}: {len(rounds)} rounds of {len(workload.commands)} command(s), "
          f"{workload.items} items per round, seed {seed}")
    return finish(problems, attempted, failed, values, END_TO_END_UNITS)


def traced_run(seed: int) -> dict:
    """One untraced and one traced round of every workload; the per-layer
    metrics sum over the traced processes."""
    runner = Runner()
    attempted = failed = 0
    problems: list = []
    totals = {"seconds": {}, "self_seconds": {}, "counts": {}, "bytes_out": 0}
    processes = []
    untraced_wall = traced_wall = 0.0
    for name, workload in WORKLOADS.items():
        tried, bad, found = preflight(runner, workload)
        attempted, failed, problems = attempted + tried, failed + bad, problems + found
        plain = [runner.program(args, workload.result_line) for args in workload.commands]
        traced = []
        for args in workload.commands:
            stats_path = OUT / f"stats-{os.getpid()}.json"
            res = runner.traced(args, stats_path, workload.result_line)
            traced.append(res)
            if res.code == 0:
                stats = json.loads(stats_path.read_text(encoding="utf-8"))
                stats_path.unlink()
                merge(totals, stats)
                processes.append({"workload": name, "argv": args, "wall_s": res.wall_s,
                                  "spans": stats["spans"]})
        attempted += 2 * len(workload.commands)
        failed += sum(res.code != 0 for res in plain + traced)
        problems += [f"{name}: {p}" for p in check_rounds(workload, [plain, traced], random.Random(seed))]
        plain_s = sum(res.wall_s for res in plain)
        traced_s = sum(res.wall_s for res in traced)
        untraced_wall += plain_s
        traced_wall += traced_s
        print(f"{name}: untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    (OUT / f"spans-{seed}.json").write_text(json.dumps({"seed": seed, "processes": processes}))
    print(f"tracing overhead {traced_wall - untraced_wall:.3f} s "
          f"({100 * (traced_wall / untraced_wall - 1):.1f} % of {untraced_wall:.3f} s untraced)")
    values, units = layer_metrics(totals, traced_wall - untraced_wall)
    return finish(problems, attempted, failed, values, units)


def merge(totals: dict, stats: dict) -> None:
    for part in ("seconds", "self_seconds", "counts"):
        for key, value in stats[part].items():
            totals[part][key] = totals[part].get(key, 0) + value
    totals["bytes_out"] += stats["bytes_out"]


def layer_metrics(totals: dict, overhead_s: float) -> tuple:
    sec = totals["seconds"].get
    cnt = totals["counts"].get
    configs = cnt("asm.enumerate.items", 0)
    seconds = {
        "asm.enumerate_s": sec("asm.enumerate", 0.0) - sec("asm.enumerate.hits", 0.0),
        "asm.stabilize_s": sec("asm.stabilize", 0.0),
        "toppling.trace_s": sec("toppling.trace", 0.0),
        "toppling.sizes_s": sec("toppling.sizes", 0.0),
        "toppling.sequences_s": sec("toppling.sequences", 0.0),
        "schroder.bounce_s": sec("schroder.bounce", 0.0),
        "schroder.area_s": sec("schroder.area", 0.0),
        "schroder.phi_inv_s": sec("schroder.phi_inv", 0.0),
        "polyomino.from_config_s": sec("polyomino.from_config", 0.0),
        "polyomino.area_s": sec("polyomino.area", 0.0),
        "polyomino.bounce_s": sec("polyomino.bounce", 0.0),
        "qtpoly.sum_s": sec("qtpoly.sum", 0.0),
        "qtpoly.mul_s": sec("qtpoly.mul", 0.0),
        "qtpoly.q_binomial_s": sec("qtpoly.q_binomial", 0.0),
        "qtpoly.brute_s": sec("qtpoly.brute", 0.0),
        "cycle_lemma.apply_s": sec("cycle_lemma.apply", 0.0),
        "cycle_lemma.class_s": sec("cycle_lemma.class", 0.0),
        "partitions.identity_s": sec("partitions.identity", 0.0),
        **{f"verify.check_s.{c}": sec(f"verify.check.{c}", 0.0) for c in SLOW_CHECKS},
        "cli.self_s": totals["self_seconds"].get("cli", 0.0),
        "trace.overhead_s": overhead_s,
    }
    counts = {
        "asm.configs": configs,
        "asm.enumerate_calls": cnt("asm.enumerate.calls", 0),
        "asm.enumerate_shapes": cnt("asm.enumerate.shapes", 0),
        "toppling.traces": cnt("toppling.trace.calls", 0),
        "toppling.sequences": cnt("toppling.sequences.items", 0),
        "schroder.words": cnt("schroder.words.items", 0),
        "qtpoly.mul_calls": cnt("qtpoly.mul.calls", 0),
        "qtpoly.q_binomial_calls": cnt("qtpoly.q_binomial.calls", 0),
        "qtpoly.q_binomial_distinct": cnt("qtpoly.q_binomial.distinct", 0),
        "qtpoly.terms": cnt("qtpoly.mul.terms", 0),
        "cycle_lemma.apply_calls": cnt("cycle_lemma.apply.calls", 0),
        "verify.tasks": cnt("verify.task.calls", 0),
    }
    values = {**seconds, **counts}
    values["asm.dhar_yield"] = configs / max(1, cnt("asm.enumerate.candidates", 0))
    values["cli.bytes_out"] = totals["bytes_out"]
    units = {name: "s" for name in seconds}
    units.update({name: "count" for name in counts})
    units["asm.dhar_yield"] = "ratio"
    units["cli.bytes_out"] = "B"
    return values, units


def finish(problems: list, attempted: int, failed: int, values: dict, units: dict) -> dict:
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "splitpile" / "cli.py").is_file():
        print(f"no splitpile sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
