"""Command-line front end.

Subcommands: enumerate, stats, poly, verify, render.  Exit codes:
0 success, 2 usage error, 3 domain precondition violated, 4 identity
mismatch, 5 internal error (an invariant failed: a bug, not bad input),
10 conjecture counterexample.  An internal error outside verify prints
a one-line JSON certificate {"status": "internal-error", "message": ...}
on stderr; inside verify the check's report has status "error", and
exit 5 takes precedence over 4 and 10.

verify writes one JSON line per check as the check finishes, in the
suite table's order for any --jobs; with --jobs N a line waits for the
checks listed before it.  The stderr summary and the exit code come
after the last report.  A PreconditionError raised inside a check
leaves the earlier reports on stdout and exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import cycle_lemma as cl
from . import polyomino as po
from . import qtpoly as qt
from . import schroder as sc
from . import svg
from . import toppling as tp
from . import verify as vf
from .asm import (
    InternalError,
    PreconditionError,
    SplitGraph,
    config_to_json,
    enumerate_sorted_recurrent,
    format_config,
    height,
    iter_sorted_recurrent_groups,
    level,
    parse_config,
    weakly_decreasing_tuples,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5
EXIT_CONJECTURE = 10


def _jobs(args) -> int:
    if args.jobs is None:
        return os.cpu_count() or 1
    if args.jobs < 1:
        raise PreconditionError(f"need --jobs >= 1, got {args.jobs}")
    return args.jobs


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    graph = SplitGraph(args.n, args.d)
    fmt = args.format
    if fmt == "csv" and args.kind != "recurrent":
        raise PreconditionError(f"--format csv is for enumerate recurrent only, not {args.kind}")
    out = sys.stdout

    def emit(text_form: str, json_form) -> None:
        if fmt == "json":
            out.write(json.dumps(json_form, separators=(",", ":")) + "\n")
        else:
            out.write(text_form + "\n")

    if args.kind == "recurrent":
        if fmt == "json":
            for c in enumerate_sorted_recurrent(graph):
                emit(format_config(c), config_to_json(graph, c))
        else:
            _write_recurrent_rows(graph, fmt == "csv", out)
    elif args.kind == "words":
        for w in sc.enumerate_schroder(args.n, args.d):
            emit(w, {"word": w})
    elif args.kind == "polyominoes":
        for c in enumerate_sorted_recurrent(graph):
            p = po._from_sorted_recurrent(graph, c)  # the enumerator has burnt c
            emit(f"{format_config(c)} upper={p.upper} lower={p.lower}", p.to_json())
    elif args.kind == "itc-sequences":
        for seq in tp.all_itc_sequences(args.n, args.d):
            text = f"[{list(seq.b)},{list(seq.a)}]".replace(" ", "")
            emit(text, {"b": list(seq.b), "a": list(seq.a)})
    elif args.kind == "quasistable":
        for c in cl.iter_quasistable_nonneg(graph):
            emit(format_config(c), config_to_json(graph, c))
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown kind {args.kind}")
    return EXIT_OK


def _write_recurrent_rows(graph: SplitGraph, csv: bool, out) -> None:
    """Text or CSV rows of ``enumerate recurrent``, one write per clique-part group.

    A row is a clique prefix, an independent suffix and, in CSV, a tail
    of block sizes and wtopple.  Each piece repeats across rows, so each
    is built once: the suffixes (text and grain sum) per shape, the
    prefix per group, and the tail per distinct block-size tuple.  The
    CTI block sizes are the burn blocks the enumeration builds each row
    from, not a simulation.
    """
    suffixes = {
        b: (";" + ",".join(map(str, b)) if b else "", sum(b))
        for b in weakly_decreasing_tuples(graph.d, graph.indep_degree - 1)
    }
    if not csv:
        for a, rows in iter_sorted_recurrent_groups(graph):
            prefix = ",".join(map(str, a))
            out.write("".join([prefix + suffixes[b][0] + "\n" for b, _ in rows]))
        return
    out.write("config,height,topple_cti,wtopple_cti\n")
    tails: dict[tuple[int, ...], str] = {}
    for a, rows in iter_sorted_recurrent_groups(graph):
        prefix, grains = '"' + ",".join(map(str, a)), sum(a)
        lines = []
        for b, sizes in rows:
            tail = tails.get(sizes)
            if tail is None:
                text = " ".join(map(str, sizes))
                tail = tails[sizes] = f'"{text}",{tp.wtopple_of_sizes(sizes)}\n'
            suffix, b_grains = suffixes[b]
            lines.append(f'{prefix}{suffix}",{grains + b_grains},{tail}')
        out.write("".join(lines))


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def _word_stats(word: str) -> dict:
    sc._require_schroder(word)
    n, d = word.count("U"), word.count("H")
    dyck = sc.collapse(word)
    dyck_value, dyck_peaks = sc.dyck_bounce(dyck)
    stats = {
        "word": word,
        "n": n,
        "d": d,
        "area": sc.area(word),
        "bounce": sc.schroder_bounce(word),
        "peaks": [list(p) for p in sc.schroder_peaks(word)],
        "collapse": dyck,
        "dyck_bounce": dyck_value,
        "dyck_peaks": [list(p) for p in dyck_peaks],
    }
    if n >= 1:
        stats["config_phi"] = format_config(sc.phi(word))
    return stats


def _config_stats(graph: SplitGraph, config) -> dict:
    cti = tp.cti_sizes(graph, config)  # checks that config is sorted recurrent
    itc = tp.itc_sizes(graph, config)
    word = sc.phi_inv(config)
    mirrored = sc.mirror(word)
    return {
        "config": format_config(config),
        "n": graph.n,
        "d": graph.d,
        "height": height(config),
        "level": level(graph, config),
        "topple_cti": list(cti),
        "wtopple_cti": tp.wtopple_of_sizes(cti),
        "topple_itc": list(itc),
        "wtopple_itc": tp.wtopple_of_sizes(itc),
        "word": word,
        "mirror_word": mirrored,
        "area": sc.area(mirrored),
        "bounce": sc.schroder_bounce(mirrored),
        "peaks": [list(p) for p in sc.schroder_peaks(mirrored)],
    }


def cmd_stats(args) -> int:
    if args.word is not None and args.config is not None:
        raise PreconditionError("stats takes --word or a config, not both")
    if args.word is not None:
        if args.n is not None or args.d is not None:
            raise PreconditionError("stats --word takes no -n or -d")
        payload = _word_stats(args.word)
    else:
        if args.config is None or args.n is None or args.d is None:
            raise PreconditionError("stats needs --word or a config with -n and -d")
        graph = SplitGraph(args.n, args.d)
        payload = _config_stats(graph, parse_config(args.config))
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

_METHODS = {
    "cti": qt.f_cti,
    "itc": qt.f_itc,
    "schroder": qt.qt_schroder,
    "egge": qt.egge_sum,
    "itc-sum": qt.itc_sum,
}


def cmd_poly(args) -> int:
    n, d = args.n, args.d
    if n < 1:
        raise PreconditionError(f"poly needs n >= 1, got {n}")
    if args.method != "all":
        poly = _METHODS[args.method](n, d)
        _print_poly(poly, args.format)
        return EXIT_OK
    values = {name: fn(n, d) for name, fn in _METHODS.items()}
    reference = values["itc"]
    mismatched = {name: p for name, p in values.items() if p != reference}
    if mismatched:
        certificate = {
            "status": "mismatch",
            "n": n,
            "d": d,
            "differences": {
                name: (p - reference).to_json() for name, p in mismatched.items()
            },
        }
        sys.stdout.write(json.dumps(certificate, indent=2) + "\n")
        # f_cti is the conjectural method; every other one is proved equal
        return EXIT_CONJECTURE if set(mismatched) == {"cti"} else EXIT_MISMATCH
    if args.format == "latex":
        sys.stdout.write(f"% {len(values)} methods agree\n")
        _print_poly(reference, "latex")
    else:
        sys.stdout.write(f"{len(values)} methods agree\n")
        _print_poly(reference, args.format)
    return EXIT_OK


def _print_poly(poly: qt.QtPolynomial, fmt: str) -> None:
    if fmt == "latex":
        sys.stdout.write(poly.to_latex() + "\n")
    else:
        sys.stdout.write(json.dumps(poly.to_json(), separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    reports = vf.run_suite(args.suite, args.max_n, args.max_d, jobs=_jobs(args))
    total, failed = 0, []
    # closed however the loop ends, so a reader that leaves early stops the pool
    with contextlib.closing(reports):
        for r in reports:
            obj = r.to_json()
            if not args.timings:
                obj.pop("seconds", None)  # keep output byte-deterministic
            sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
            sys.stdout.flush()
            total += 1
            if not r.ok:
                failed.append(r)
    sys.stderr.write(f"{total - len(failed)}/{total} checks passed\n")
    if not failed:
        return EXIT_OK
    if any(r.status == "error" for r in failed):
        return EXIT_INTERNAL
    if any(r.check in vf.CONJECTURE_CHECKS for r in failed):
        return EXIT_CONJECTURE
    return EXIT_MISMATCH


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def cmd_render(args) -> int:
    if sum(x is not None for x in (args.word, args.config, args.batch_dir)) != 1:
        raise PreconditionError("render needs exactly one of --word, a config and --batch-dir")
    if args.word is not None and (args.n is not None or args.d is not None):
        raise PreconditionError("render --word takes no -n or -d")
    if args.batch_dir is not None and args.out is not None:
        raise PreconditionError("render --batch-dir takes no --out")
    overlays = tuple(x for x in (args.overlay or "").split(",") if x)
    allowed = ("peaks", "bounce") if args.word is not None else ("cti", "itc")
    unknown = [x for x in overlays if x not in allowed]
    if unknown:
        raise PreconditionError(
            f"unknown overlay {','.join(unknown)}; choose from {','.join(allowed)}"
        )
    if args.batch_dir is not None:
        if args.n is None or args.d is None:
            raise PreconditionError("--batch-dir needs -n and -d")
        graph = SplitGraph(args.n, args.d)
        directory = Path(args.batch_dir)
        directory.mkdir(parents=True, exist_ok=True)
        written = 0
        for idx, c in enumerate(enumerate_sorted_recurrent(graph), start=1):
            name = format_config(c).replace(",", "_").replace(";", "__")
            doc = svg.render_polyomino(po._from_sorted_recurrent(graph, c), overlays=overlays)
            (directory / f"rec_{idx:03d}_{name}.svg").write_text(doc, encoding="utf-8")
            written += 1
        sys.stderr.write(f"wrote {written} files to {directory}\n")
        return EXIT_OK

    if args.word is not None:
        doc = svg.render_path(args.word, overlays=overlays or allowed)
    else:
        if args.n is None or args.d is None:
            raise PreconditionError("rendering a configuration needs -n and -d")
        graph = SplitGraph(args.n, args.d)
        config = parse_config(args.config)
        doc = svg.render_polyomino(po.from_config(graph, config), overlays=overlays)
    if args.out:
        Path(args.out).write_text(doc, encoding="utf-8")
    else:
        sys.stdout.write(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitpile",
        description="Sandpile combinatorics on complete split graphs.",
    )
    parser.add_argument("--jobs", type=int, default=None, help="worker count (default: CPU count)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream combinatorial objects in canonical order")
    p.add_argument("kind", choices=["recurrent", "words", "polyominoes", "itc-sequences", "quasistable"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="statistics of a configuration or word")
    p.add_argument("config", nargs="?", help='configuration "a1,..,an;b1,..,bd"')
    p.add_argument("--word", help="Schroder word over UHD")
    p.add_argument("-n", type=int)
    p.add_argument("-d", type=int)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("poly", help="q,t-polynomials, five ways")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--method", choices=[*_METHODS, "all"], default="all")
    p.add_argument("--format", choices=["json", "latex"], default="json")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(vf.SUITES))
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-d", type=int, default=3)
    p.add_argument("--timings", action="store_true", help="include per-check wall-clock seconds")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="SVG of a Schroder path or sawtooth polyomino")
    p.add_argument("config", nargs="?")
    p.add_argument("--word")
    p.add_argument("-n", type=int)
    p.add_argument("-d", type=int)
    p.add_argument("--overlay", help="comma list: peaks,bounce (word) or cti,itc (polyomino)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--batch-dir", help="render every sorted recurrent configuration of S(n,d)")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except InternalError as exc:
        certificate = {"status": "internal-error", "message": str(exc)}
        sys.stderr.write(json.dumps(certificate, separators=(",", ":")) + "\n")
        return EXIT_INTERNAL
    except BrokenPipeError:  # pragma: no cover - shell pipelines
        # the reader is gone: point stdout at devnull so that the flush of
        # what is still buffered at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
