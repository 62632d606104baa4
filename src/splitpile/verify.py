"""Named verification suites over parameter ranges, with counterexamples.

Each check covers one statement (a bijection, a theorem, a conjecture)
at one graph shape and yields a replayable report.  The CLI streams
these as JSON lines; the test suite calls them directly.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache, partial
from typing import Generator

from . import cycle_lemma as cl
from . import polyomino as po
from . import qtpoly as qt
from . import schroder as sc
from . import toppling as tp
from .asm import (
    SINK,
    Config,
    InternalError,
    PreconditionError,
    Record,
    SplitGraph,
    enumerate_sorted_recurrent,
    format_config,
    height,
    is_nonnegative,
    is_sorted_config,
    level,
    sorted_recurrent_count,
    stabilize,
    topple,
)
from .partitions import nabla_symmetry_check, partitions_of


class VerificationReport(Record):
    __slots__ = ("check", "params", "status", "counterexample", "seconds")
    check: str
    params: dict
    status: str  # "pass", "fail", or "error" (an InternalError in the check)
    counterexample: dict | None
    seconds: float

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "seconds": round(self.seconds, 3),
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# ---------------------------------------------------------------------------
# individual checks; each returns None or a counterexample payload
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rows(
    n: int, d: int
) -> tuple[tuple[Config, ...], tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """The rows ``(c, mirror(phi_inv(c)), itc_sizes(c))`` of the sorted
    recurrent configurations c of S(n, d), in the order of
    :func:`enumerate_sorted_recurrent`.  The checks below read each shape
    several times, so each configuration is converted and burnt here
    once; ``mirror`` is an involution, so the word also gives back
    ``phi_inv(c)``.  The rows are kept as their three columns, read with
    ``zip(*_rows(n, d))``, so that a row costs no tuple of its own, and
    equal size tuples are one tuple, as equal independent parts are."""
    graph = SplitGraph(n, d)
    configs = tuple(enumerate_sorted_recurrent(graph))
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    sizes = tuple(shared.setdefault(s, s) for s in (tp.itc_sizes(graph, c) for c in configs))
    return configs, tuple(sc.mirror(sc.phi_inv(c)) for c in configs), sizes


@lru_cache(maxsize=None)
def _polynomial(method, n: int, d: int) -> qt.QtPolynomial:
    """``method(n, d)`` for a method of :data:`qtpoly.METHODS`, computed
    once per shape for the checks that compare the same methods; keyed by
    the function object looked up at the call, so a replaced method is
    computed afresh."""
    return method(n, d)


def check_phi_roundtrip(n: int, d: int) -> dict | None:
    for c, word, _ in zip(*_rows(n, d)):
        w = sc.mirror(word)
        if sc.phi(w) != c:
            return {"config": format_config(c), "word": w}
    for w in sc.enumerate_schroder(n, d):
        if sc.phi_inv(sc.phi(w)) != w:
            return {"word": w}
    return None


def check_mirror_involution(n: int, d: int) -> dict | None:
    for w in sc.enumerate_schroder(n, d):
        m = sc.mirror(w)
        if not sc.is_schroder(m) or sc.mirror(m) != w:
            return {"word": w, "mirror": m}
        if m.count("U") != n or m.count("H") != d:
            return {"word": w, "mirror": m}
    return None


def check_sts_validity(n: int, d: int) -> dict | None:
    """Word validity and polyomino validity coincide over all words."""
    for w in sc.enumerate_words(n, d):
        if po.is_valid(po.sts(w)) != sc.is_schroder(w):
            return {"word": w}
    return None


def check_from_config_route(n: int, d: int) -> dict | None:
    graph = SplitGraph(n, d)
    for c, w, _ in zip(*_rows(n, d)):
        if po.from_config(graph, c) != po.sts(sc.mirror(w)):
            return {"config": format_config(c)}
    return None


def check_area_level(n: int, d: int) -> dict | None:
    graph = SplitGraph(n, d)
    for c, w, _ in zip(*_rows(n, d)):
        if sc.area(w) != level(graph, c):
            return {"config": format_config(c), "word": w}
    return None


def check_bounce_wtopple(n: int, d: int) -> dict | None:
    for c, w, sizes in zip(*_rows(n, d)):
        if sc.schroder_bounce(w) != tp.wtopple_of_sizes(sizes) - (n + d):
            return {"config": format_config(c), "word": w}
    return None


def check_peaks_coincide(n: int, d: int) -> dict | None:
    """Geometric peaks match the loop formula from the ITC sequence, and
    the direct band-walk bounce path passes through exactly those peaks."""
    for c, w, sizes in zip(*_rows(n, d)):
        seq = tp.itc_sequence_of_sizes(sizes)
        p, q = seq.a, seq.b
        k = seq.length
        loop_peaks = []
        for i in range(1, k + 1):
            tail = sum(p[i:]) + sum(q[i:])
            if p[i - 1] > 0:
                loop_peaks.append((tail, p[i - 1] + tail))
        expected = sorted(loop_peaks, reverse=True)
        got = sorted(sc.schroder_peaks(w), reverse=True)
        if got != expected:
            return {"config": format_config(c), "word": w, "got": got, "expected": expected}
        walk = set(sc.schroder_bounce_path(w))
        if not set(expected) <= walk:
            return {"config": format_config(c), "word": w, "missing_peaks": True}
    return None


def check_bounce_formulations(n: int, d: int) -> dict | None:
    for w in sc.enumerate_schroder(n, d):
        if sc.bounce_haglund(w) != sc.bounce_loehr(w):
            return {"word": w}
    return None


def check_polyomino_statistics(n: int, d: int) -> dict | None:
    graph = SplitGraph(n, d)
    offset = graph.nonsink_edges - (n + d)
    for c, _, sizes in zip(*_rows(n, d)):
        poly = po.from_config(graph, c)
        if height(c) != po.area(poly) + offset:
            return {"config": format_config(c), "area": po.area(poly)}
        if po.cti_bounce(poly).sizes != tp.cti_sizes(graph, c):
            return {"config": format_config(c), "which": "cti"}
        if po.itc_bounce(poly).sizes != sizes:
            return {"config": format_config(c), "which": "itc"}
    return None


def check_itc_sequence_sets(n: int, d: int) -> dict | None:
    image = {tp.itc_sequence_of_sizes(sizes) for sizes in _rows(n, d)[2]}
    described = set(tp.all_itc_sequences(n, d))
    if image != described:
        diff = described ^ image
        sample = next(iter(diff))
        return {"only_one_side": [list(sample.b), list(sample.a)]}
    return None


def check_counts(n: int, d: int) -> dict | None:
    enumerated = len(_rows(n, d)[0])
    if enumerated != sorted_recurrent_count(n, d):
        return {"enumerated": enumerated, "formula": sorted_recurrent_count(n, d)}
    return None


def check_identity_chain(n: int, d: int) -> dict | None:
    """Proved equalities: every method not conjectural equals ``itc``."""
    reference = _polynomial(qt.METHODS["itc"], n, d)
    for name, fn in qt.METHODS.items():
        if name == "itc" or name in qt.CONJECTURAL:
            continue
        other = _polynomial(fn, n, d)
        if other != reference:
            return {"method": name, "difference": (other - reference).to_json()}
    if reference.evaluate(1, 1) != sorted_recurrent_count(n, d):
        return {"method": "evaluation_at_1_1"}
    # the schroder method equals reference here, so its symmetry is checked on it
    if not qt.is_qt_symmetric(reference):
        return {"method": "qt_symmetry"}
    return None


def check_abelian(n: int, d: int) -> dict | None:
    graph = SplitGraph(n, d)
    rng = random.Random(hash((20240, n, d)))
    for _ in range(200):
        c = Config(
            tuple(rng.randint(0, 2 * (n + d)) for _ in range(n)),
            tuple(rng.randint(0, 2 * (n + d)) for _ in range(d)),
        )
        base = stabilize(graph, c)
        r1 = random.Random(rng.random())
        r2 = random.Random(rng.random())
        alt1 = stabilize(graph, c, pick=lambda u, r=r1: r.choice(u))
        alt2 = stabilize(graph, c, pick=lambda u, r=r2: r.choice(u))
        if not (base == alt1 == alt2):
            return {"config": format_config(c)}
    return None


def check_burning_returns(n: int, d: int) -> dict | None:
    """Toppling the sink then stabilizing a recurrent configuration
    returns it with every vertex toppling exactly once."""
    graph = SplitGraph(n, d)
    for c in _rows(n, d)[0]:
        trace = stabilize(graph, topple(graph, c, SINK))
        if trace.final != c or set(trace.odometer[:-1]) != {1}:
            return {"config": format_config(c)}
    return None


def check_cycle_lemma(n: int, d: int) -> dict | None:
    """One class at a time: n+1 distinct sorted quasi-stable non-negative
    (QSN) members, v among them and every member's representative.  A
    recurrent member is its own representative, so v is the only recurrent
    member.  That map is a function, so the classes are disjoint; they
    cover QSN iff their sizes add up to its streamed count and closed form."""
    graph = SplitGraph(n, d)
    counted = 0
    for v in _rows(n, d)[0]:
        members = cl.class_members(graph, v)
        if not (len(members) == len(set(members)) == n + 1 and v in members):
            return {"config": format_config(v)}
        for m in members:
            if not (is_sorted_config(m) and is_nonnegative(m) and cl.is_quasistable(graph, m)):
                return {"config": format_config(m), "window": True}
            if cl.recurrent_representative(graph, m) != v:
                return {"config": format_config(m), "representative": True}
        counted += n + 1
    streamed = sum(1 for _ in cl.iter_quasistable_nonneg(graph))
    formula = cl.count_quasistable_nonneg(n, d)
    if not counted == streamed == formula:
        return {"count": counted, "streamed": streamed, "formula": formula}
    return None


def check_operator_laws(n: int, d: int) -> dict | None:
    graph = SplitGraph(n, d)
    rng = random.Random(hash((77, n, d)))
    pairs = [(cl.TS, cl.TS_INV), (cl.TK, cl.TK_INV), (cl.TW, cl.TW_INV)]
    forms = [(cl.TS, "s"), (cl.TK, "K")]
    if d > 0:
        pairs.append((cl.TI, cl.TI_INV))
        forms.append((cl.TI, "I"))
    for _ in range(100):
        lo = rng.randint(-5, 5)
        a = tuple(sorted((rng.randint(lo, lo + n + d + 1) for _ in range(n)), reverse=True))
        lo2 = rng.randint(-5, 5)
        b = tuple(sorted((rng.randint(lo2, lo2 + n + 1) for _ in range(d)), reverse=True))
        u = Config(a, b)
        for op, component in forms:
            if cl.apply(graph, op, u) != cl._topple_max_then_sort(graph, u, component):
                return {"config": format_config(u), "op": op, "closed_form": True}
        for fwd, inv in pairs:
            if cl.apply(graph, inv, cl.apply(graph, fwd, u)) != u:
                return {"config": format_config(u), "op": fwd}
            if cl.apply(graph, fwd, cl.apply(graph, inv, u)) != u:
                return {"config": format_config(u), "op": inv}
        if not cl.identity_check(graph, u):
            return {"config": format_config(u), "op": "identity"}
        if cl.apply(graph, cl.TW, u) != cl.apply_word(
            graph, [cl.TK] * (n + 1) + [cl.TI] * d, u
        ):
            return {"config": format_config(u), "op": "TW_composite"}
    return None


def check_weight_laws(n: int, d: int) -> dict | None:
    graph = SplitGraph(n, d)
    rng = random.Random(hash((78, n, d)))
    for _ in range(100):
        lo = rng.randint(-2 * (n + d + 1), n + d)
        a = tuple(sorted((rng.randint(lo, lo + n + d + 1) for _ in range(n)), reverse=True))
        lo2 = rng.randint(-4, 4)
        b = tuple(sorted((rng.randint(lo2, lo2 + n + 1) for _ in range(d)), reverse=True))
        u = Config(a, b)
        wu = cl.apply(graph, cl.TW, u)
        if wu.independent != u.independent:
            return {"config": format_config(u), "law": "independent_part"}
        if cl.weight(graph, wu) != cl.weight(graph, u) - 1:
            return {"config": format_config(u), "law": "decrement"}
        clique_ok = all(x >= 0 for x in u.clique) and all(x <= n + d for x in u.clique)
        if (cl.weight(graph, u) == 0) != clique_ok:
            return {"config": format_config(u), "law": "zero_iff_window"}
    return None


def check_conjecture_cti(other: str, n: int, d: int) -> dict | None:
    """Conjecture: the methods ``cti`` and ``other`` agree."""
    a = _polynomial(qt.METHODS["cti"], n, d)
    b = _polynomial(qt.METHODS[other], n, d)
    if a != b:
        return {"difference": (a - b).to_json()}
    return None


def check_fiber_intervals(n: int, d: int) -> dict | None:
    """Every ITC fiber is the triangle-containment interval between the
    two extremal words.  The fibers are :func:`qtpoly.itc_fibers`, grouped
    here from the rows of :func:`_rows`: each row's word goes to the
    fiber of its ITC sizes."""
    fibers: dict[tp.ItcSequence, list[str]] = {}
    for _, w, sizes in zip(*_rows(n, d)):
        fibers.setdefault(tp.itc_sequence_of_sizes(sizes), []).append(w)
    described = set(tp.all_itc_sequences(n, d))
    if set(fibers) != described:
        return {"fibers": len(fibers), "described": len(described)}
    for seq, words in fibers.items():
        lo, hi = qt.extremal_words(seq)
        if lo not in words or hi not in words:
            return {"sequence": [list(seq.b), list(seq.a)], "extremal_missing": True}
        if sorted(qt.fiber_words(seq)) != sorted(words):
            return {"sequence": [list(seq.b), list(seq.a)], "construction_mismatch": True}
        if not all(sc.word_le(lo, w) and sc.word_le(w, hi) for w in words):
            return {"sequence": [list(seq.b), list(seq.a)], "bounds_violated": True}
    return None


def check_sequence_counts(n: int, d: int) -> dict | None:
    grouped = tp.enumerate_itc_sequences(n, d)
    for k, seqs in grouped.items():
        if len(seqs) != tp.count_itc(n, d, k):
            return {"k": k, "enumerated": len(seqs), "formula": tp.count_itc(n, d, k)}
    total = sum(len(s) for s in grouped.values())
    if total != tp.count_itc(n, d) or tp.count_itc(n, d) != tp.count_ehkk(n, d):
        return {"total": total}
    return None


def check_hexagon_lemma(limit: int = 4) -> dict | None:
    for a in range(limit + 1):
        for b in range(limit + 1):
            for c in range(limit + 1):
                if qt.hexagon_shuffle_gf(a, b, c) != qt.q_multinomial(a, b, c):
                    return {"abc": [a, b, c]}
    return None


def check_partition_identity(n: int) -> dict | None:
    from fractions import Fraction

    points = [
        (Fraction(2), Fraction(3), Fraction(5)),
        (Fraction(1, 2), Fraction(3), Fraction(-2)),
        (Fraction(-3), Fraction(5, 7), Fraction(1)),
        (Fraction(7), Fraction(2), Fraction(11)),
        (Fraction(2, 5), Fraction(9, 4), Fraction(3, 2)),
    ]
    report = nabla_symmetry_check(n, points)
    if not report.ok:
        bad = [i for i, (a, b) in enumerate(zip(report.lhs, report.rhs)) if a != b]
        return {"n": n, "bad_points": bad}
    return None


def check_cell_exchange(limit: int = 8) -> dict | None:
    for n in range(1, limit + 1):
        for mu in partitions_of(n):
            conj = mu.conjugate()
            if conj.conjugate() != mu:
                return {"mu": list(mu.parts)}
            for (i, j) in mu.cells():
                x2 = (j, i)
                if (
                    mu.arm((i, j)) != conj.leg(x2)
                    or mu.leg((i, j)) != conj.arm(x2)
                    or mu.coarm((i, j)) != conj.coleg(x2)
                    or mu.coleg((i, j)) != conj.coarm(x2)
                ):
                    return {"mu": list(mu.parts), "cell": [i, j]}
    return None


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

# One row per check, in report order: (suite, report name, check, params).
# A shape check's params are its cap (max_n, max_d), beyond which word
# enumeration gets too large, or None for the requested range.  A dict
# gives the check's fixed parameters; such a row is dropped when its "n"
# exceeds max_n.
_TABLE = (
    ("bijections", "phi_roundtrip", check_phi_roundtrip, None),
    ("bijections", "mirror_involution", check_mirror_involution, None),
    ("bijections", "word_polyomino_validity", check_sts_validity, (4, 3)),
    ("bijections", "config_polyomino_route", check_from_config_route, None),
    ("theorems", "area_equals_level", check_area_level, None),
    ("theorems", "bounce_equals_wtopple", check_bounce_wtopple, None),
    ("theorems", "peaks_coincide", check_peaks_coincide, None),
    ("theorems", "bounce_formulations_agree", check_bounce_formulations, None),
    ("theorems", "polyomino_statistics", check_polyomino_statistics, None),
    ("theorems", "itc_sequence_description", check_itc_sequence_sets, None),
    ("theorems", "recurrent_count", check_counts, None),
    ("theorems", "itc_identity_chain", check_identity_chain, None),
    ("theorems", "abelian_stabilization", check_abelian, (4, 3)),
    ("theorems", "burning_returns_start", check_burning_returns, None),
    ("cycle-lemma", "operator_laws", check_operator_laws, (4, 4)),
    ("cycle-lemma", "weight_laws", check_weight_laws, (4, 4)),
    ("cycle-lemma", "class_partition", check_cycle_lemma, (4, 3)),
    ("conjectures", "qt_cti_equals_itc", partial(check_conjecture_cti, "itc"), None),
    ("conjectures", "qt_cti_equals_schroder", partial(check_conjecture_cti, "schroder"), None),
    # a bijection preserving (height, wtopple) exists iff the two
    # bistatistic multisets coincide, which is exactly cti == itc
    ("conjectures", "bistatistic_bijection_exists", partial(check_conjecture_cti, "itc"), None),
    ("appendix", "fiber_intervals", check_fiber_intervals, (4, 3)),
    ("appendix", "sequence_counts", check_sequence_counts, None),
    ("appendix", "hexagon_multinomial", check_hexagon_lemma, {"limit": 4}),
    ("appendix", "cell_exchange", check_cell_exchange, {"limit": 8}),
    *(
        ("appendix", "partition_sum_identity", check_partition_identity, {"n": n})
        for n in range(1, 6)
    ),
)

SUITES = (*dict.fromkeys(suite for suite, *_ in _TABLE), "all")

_CHECK_FUNCS = {name: fn for _suite, name, fn, _params in _TABLE}

#: checks whose failure is a conjecture counterexample, not a bug
CONJECTURE_CHECKS = frozenset(name for suite, name, *_ in _TABLE if suite == "conjectures")


def list_tasks(suite: str, max_n: int, max_d: int) -> list[tuple[str, dict]]:
    """Picklable ``(check name, params)`` pairs, in deterministic order:
    the table's rows of ``suite``, or every row for ``"all"``.

    An empty shape range would give a suite that examines nothing, so it
    is refused.
    """
    if max_n < 1 or max_d < 0:
        raise PreconditionError(f"need max_n >= 1 and max_d >= 0, got ({max_n}, {max_d})")
    if suite not in SUITES:
        raise PreconditionError(f"unknown suite {suite!r}")
    tasks: list[tuple[str, dict]] = []
    for row_suite, name, _fn, params in _TABLE:
        if suite not in ("all", row_suite):
            continue
        if isinstance(params, dict):
            if params.get("n", 1) <= max_n:
                tasks.append((name, dict(params)))
            continue
        cap_n, cap_d = params or (max_n, max_d)
        for n in range(1, min(max_n, cap_n) + 1):
            for d in range(0, min(max_d, cap_d) + 1):
                tasks.append((name, {"n": n, "d": d}))
    return tasks


def run_task(task: tuple[str, dict]) -> VerificationReport:
    """Run one task; an InternalError inside the check becomes an
    ``error`` report instead of ending the run."""
    start = time.perf_counter()
    name, params = task
    try:
        # positional, in the order of params, which is each check's signature
        counterexample = _CHECK_FUNCS[name](*params.values())
        status = "pass" if counterexample is None else "fail"
    except InternalError as exc:
        status, counterexample = "error", {"internal_error": str(exc)}
    return VerificationReport(name, params, status, counterexample, time.perf_counter() - start)


def run_suite(
    suite: str, max_n: int, max_d: int, jobs: int = 1
) -> Generator[VerificationReport, None, None]:
    """A lazy iterator over the reports of :func:`list_tasks`, in its order
    for any ``jobs``; each report comes as soon as it and every report
    before it are done.  The arguments are checked at the call, so a bad
    suite or range raises :class:`PreconditionError` before any check runs.
    Closing the iterator early cancels the checks not yet started."""
    tasks = list_tasks(suite, max_n, max_d)
    return _run_tasks(tasks, min(jobs, len(tasks)))


def _run_tasks(
    tasks: list[tuple[str, dict]], jobs: int
) -> Generator[VerificationReport, None, None]:
    if jobs <= 1:
        yield from map(run_task, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(run_task, tasks)
