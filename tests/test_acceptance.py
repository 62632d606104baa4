"""Acceptance criteria, one test per criterion.

Every comparison is exact (integer or rational arithmetic throughout);
the only tolerances are the per-criterion wall-clock budgets, which are
asserted.  Each criterion prints a single [PASS]/[FAIL] line.
"""

import time
from fractions import Fraction

from splitpile.asm import (
    SplitGraph,
    enumerate_sorted_recurrent,
    format_config,
    height,
    is_recurrent,
    is_stable,
    level,
    parse_config,
    sorted_recurrent_count,
)
from splitpile import cycle_lemma as cl
from splitpile import polyomino as po
from splitpile import qtpoly as qt
from splitpile import schroder as sc
from splitpile import toppling as tp
from splitpile.partitions import nabla_symmetry_check
from splitpile.verify import (
    check_abelian,
    check_mirror_involution,
    check_operator_laws,
    check_phi_roundtrip,
    check_weight_laws,
)

from test_asm import TABLE_22
from test_qtpoly import POLY_22

RANGE_5_4 = [(n, d) for n in range(1, 6) for d in range(0, 5)]

_FIVE_WAY_CACHE: dict | None = None


def _five_way() -> dict:
    """All five polynomial computations over 1 <= n <= 5, 0 <= d <= 4."""
    global _FIVE_WAY_CACHE
    if _FIVE_WAY_CACHE is None:
        _FIVE_WAY_CACHE = {
            (n, d): {
                "cti": qt.f_cti(n, d),
                "itc": qt.f_itc(n, d),
                "schroder": qt.qt_schroder(n, d),
                "egge": qt.egge_sum(n, d),
                "itc_sum": qt.itc_sum(n, d),
            }
            for n, d in RANGE_5_4
        }
    return _FIVE_WAY_CACHE


def _criterion(num: int, label: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {num:2d}: {label} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {num:2d}: {label} ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_printed_polynomial():
    def body():
        assert qt.f_cti(2, 2) == POLY_22

    _criterion(1, "q,t-CTI polynomial of S(2,2) term for term", 1.0, body)


def test_criterion_02_table_of_thirty():
    def body():
        g = SplitGraph(2, 2)
        recs = tuple(enumerate_sorted_recurrent(g))
        assert len(recs) == 30
        assert {format_config(c) for c in recs} == set(TABLE_22)
        for c in recs:
            expected_height, expected_sizes, expected_wtopple = TABLE_22[format_config(c)]
            trace = tp.topple_cti(g, c)
            assert height(c) == expected_height
            assert trace.sizes() == expected_sizes
            assert tp.wtopple(trace) == expected_wtopple

    _criterion(2, "the 30 sorted recurrent configurations of S(2,2)", 1.0, body)


def test_criterion_03_worked_examples():
    def body():
        g53 = SplitGraph(5, 3)
        c53 = parse_config("7,6,5,2,1;5,4,4")

        cti = tp.topple_cti(g53, c53)
        assert cti.rounds == (((0,), (0, 1, 2)), ((1, 2), ()), ((3, 4), ()))

        itc = tp.topple_itc(g53, c53)
        assert itc.rounds == (((0,), (0, 1)), ((1, 2), (2, 3)), ((), (4,)))
        assert itc.sizes() == (1, 2, 2, 2, 0, 1)
        assert tp.wtopple(itc) == 14

        word = "UHUDUHHDUDUDD"
        assert sc.phi(word) == c53
        assert sc.area(word) == 9
        assert sc.schroder_bounce(word) == 8

        mirrored = sc.mirror(word)
        assert mirrored == "UUDUDUHHDUDHD"
        assert sc.schroder_bounce(mirrored) == 6
        assert level(g53, c53) == 9 == sc.area(mirrored)

        assert tp.itc_sizes(g53, parse_config("7,7,6,5,2;3,3,1")) == (0, 2, 2, 2, 1, 1)

        g54 = SplitGraph(5, 4)
        c54 = parse_config("7,6,6,5,4;5,5,4,3")
        assert sc.compress(g54, c54) == parse_config("4,4,4,3,3")
        assert tp.itc_sizes(g54, c54) == (2, 3, 2, 2)

        g45 = SplitGraph(4, 5)
        c45 = parse_config("7,4,2,1;4,4,3,3,1")
        poly_a = po.sts("HUHDHUHDUDUHD")
        assert po.from_config(g45, c45) == poly_a
        assert po.area(poly_a) == 12
        assert po.cti_bounce(poly_a).sizes == (0, 2, 1, 2, 1, 0, 1, 1, 1, 0)
        assert po.itc_bounce(poly_a).sizes == (2, 1, 2, 1, 0, 1, 1, 1)

        # companion example, pinned by its three printed statistics
        # (regression for the pin: test_polyomino.py searches SortedRec(4,5))
        c_b = parse_config("8,5,3,3;4,4,3,2,0")
        poly_b = po.from_config(g45, c_b)
        assert po.area(poly_b) == 15
        assert po.cti_bounce(poly_b).sizes == (1, 3, 1, 1, 2, 1)
        assert po.itc_bounce(poly_b).sizes == (2, 1, 1, 1, 1, 2, 1, 0)

    _criterion(3, "worked-example suite", 1.0, body)


def test_criterion_04_five_way_identity():
    def body():
        for (n, d), polys in _five_way().items():
            reference = polys["itc"]
            for name, value in polys.items():
                if value != reference:
                    diff = (value - reference).to_json()
                    raise AssertionError(
                        f"counterexample certificate: S({n},{d}) method {name} "
                        f"differs from itc by {diff}"
                    )
            assert reference.evaluate(1, 1) == sorted_recurrent_count(n, d)

    _criterion(4, "five-way polynomial identity, n <= 5, d <= 4", 300.0, body)


def test_criterion_05_qt_symmetry():
    def body():
        for (n, d), polys in _five_way().items():
            assert qt.is_qt_symmetric(polys["schroder"]), (n, d)

    _criterion(5, "q<->t symmetry of the Schroder polynomials", 10.0, body)


def test_criterion_06_sequence_description_and_counts():
    def body():
        for n, d in RANGE_5_4:
            g = SplitGraph(n, d)
            image = {
                tp.itc_sequence_of_sizes(tp.itc_sizes(g, c))
                for c in enumerate_sorted_recurrent(g)
            }
            grouped = tp.enumerate_itc_sequences(n, d)
            described = {s for seqs in grouped.values() for s in seqs}
            assert image == described, (n, d)
            for k in range(1, n + 2):
                assert len(grouped.get(k, [])) == tp.count_itc(n, d, k), (n, d, k)
            assert tp.count_itc(n, d) == tp.count_ehkk(n, d) == len(described)
        split = [tp.count_itc(2, 2, k) for k in (1, 2, 3)]
        assert split == [1, 5, 3] and sum(split) == 9

    _criterion(6, "ITC sequence description and counting lemmas", 60.0, body)


def test_criterion_07_word_validity_equivalence():
    def body():
        for n in range(1, 5):
            for d in range(0, 4):
                for w in sc.enumerate_words(n, d):
                    assert po.is_valid(po.sts(w)) == sc.is_schroder(w), w

    _criterion(7, "polyomino validity <=> word validity, exhaustive", 60.0, body)


def test_criterion_08_bounce_paths_match_toppling():
    def body():
        for n, d in RANGE_5_4:
            g = SplitGraph(n, d)
            offset = g.nonsink_edges - (n + d)
            for c in enumerate_sorted_recurrent(g):
                poly = po.from_config(g, c)
                assert height(c) == po.area(poly) + offset, c
                assert po.cti_bounce(poly).sizes == tp.cti_sizes(g, c), c
                assert po.itc_bounce(poly).sizes == tp.itc_sizes(g, c), c

    _criterion(8, "polyomino bounce paths match topplings, n <= 5, d <= 4", 60.0, body)


def test_criterion_09_cycle_lemma():
    def body():
        for n in range(1, 5):
            for d in range(0, 4):
                g = SplitGraph(n, d)
                qsn = list(cl.iter_quasistable_nonneg(g))
                assert len(qsn) == cl.count_quasistable_nonneg(n, d)
                owner = {}
                recs = tuple(enumerate_sorted_recurrent(g))
                for v in recs:
                    members = cl.class_members(g, v)
                    assert len(members) == n + 1
                    rec_members = [
                        m for m in members if is_stable(g, m) and is_recurrent(g, m)
                    ]
                    assert rec_members == [v]
                    for m in members:
                        assert m not in owner
                        owner[m] = v
                assert set(owner) == set(qsn)
                assert len(qsn) == (n + 1) * len(recs)
                assert len(recs) == sorted_recurrent_count(n, d)

    _criterion(9, "cycle lemma partition, n <= 4, d <= 3", 120.0, body)


def test_criterion_10_fibers_and_hexagons():
    def body():
        for n in range(1, 5):
            for d in range(0, 4):
                fibers = qt.itc_fibers(n, d)
                assert set(fibers) == set(tp.all_itc_sequences(n, d))
                for seq, words in fibers.items():
                    lo, hi = qt.extremal_words(seq)
                    assert lo in words and hi in words
                    assert sorted(qt.fiber_words(seq)) == sorted(words)
                    assert all(sc.word_le(lo, w) and sc.word_le(w, hi) for w in words)
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    assert qt.hexagon_shuffle_gf(a, b, c) == qt.q_multinomial(a, b, c)

    _criterion(10, "toppling fibers and hexagon shuffles", 60.0, body)


def test_criterion_11_partition_sum_identity():
    def body():
        points = [
            (Fraction(2), Fraction(3), Fraction(5)),
            (Fraction(1, 2), Fraction(3), Fraction(-2)),
            (Fraction(-3), Fraction(5, 7), Fraction(1)),
            (Fraction(7), Fraction(2), Fraction(11)),
            (Fraction(2, 5), Fraction(9, 4), Fraction(3, 2)),
        ]
        report = nabla_symmetry_check(1, points)
        assert report.ok
        assert report.lhs == [z + 1 for _, _, z in points]
        for n in range(2, 6):
            assert nabla_symmetry_check(n, points).ok, n

    _criterion(11, "partition-weight sum identity at rational points", 30.0, body)


def test_criterion_12_property_suites():
    def body():
        for n in range(1, 5):
            for d in range(0, 4):
                assert check_abelian(n, d) is None, (n, d)
                assert check_phi_roundtrip(n, d) is None, (n, d)
                assert check_mirror_involution(n, d) is None, (n, d)
                assert check_operator_laws(n, d) is None, (n, d)
                assert check_weight_laws(n, d) is None, (n, d)
        # both bounce computations, swept beyond the identity range
        for n, d in [(6, 0), (6, 1), (5, 5), (6, 5)]:
            for w in sc.enumerate_schroder(n, d):
                assert sc.bounce_haglund(w) == sc.bounce_loehr(w), w

    _criterion(12, "property suites (abelian, round-trips, bounce, operators)", 120.0, body)
