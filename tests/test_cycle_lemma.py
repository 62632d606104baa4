from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import splitpile.cycle_lemma as cycle_lemma
from splitpile.asm import (
    Config,
    InternalError,
    PreconditionError,
    SplitGraph,
    enumerate_sorted_recurrent,
    format_config,
    height,
    is_recurrent,
    is_stable,
    parse_config,
)
from splitpile.cycle_lemma import (
    TI,
    TI_INV,
    TK,
    TK_INV,
    TS,
    TS_INV,
    TW,
    TW_INV,
    apply,
    apply_word,
    class_members,
    count_quasistable_nonneg,
    identity_check,
    is_compact,
    is_quasistable,
    iter_quasistable_nonneg,
    recurrent_representative,
    sink_height,
    spread,
    weight,
    _shift,
)
from splitpile.qtpoly import QtPolynomial, f_itc, q_binomial

G22 = SplitGraph(2, 2)


@st.composite
def compact_configs(draw, n, d):
    lo = draw(st.integers(-5, 5))
    a = sorted(
        (draw(st.integers(lo, lo + n + d + 1)) for _ in range(n)), reverse=True
    )
    lo2 = draw(st.integers(-5, 5))
    b = sorted((draw(st.integers(lo2, lo2 + n + 1)) for _ in range(d)), reverse=True)
    return Config(tuple(a), tuple(b))


def test_predicates():
    c = parse_config("3,3;2,2")
    assert is_compact(G22, c)
    assert is_quasistable(G22, c)
    assert spread((7, 3)) == 4
    assert sink_height(c) == -10
    assert not is_compact(G22, Config((9, 0), (0, 0)))
    assert not is_quasistable(G22, Config((5, 0), (0, 0)))
    assert is_quasistable(G22, Config((4, 0), (2, 0)))


def test_apply_examples():
    c = parse_config("3,3;2,2")
    assert apply(G22, TS, c) == parse_config("4,4;3,3")
    assert apply(G22, TK, c) == Config((4, -1), (3, 3))
    assert apply(G22, TI, c) == Config((4, 4), (2, -1))
    assert apply(G22, TW, c) == Config((3, -2), (2, 2))


def test_apply_preconditions():
    with pytest.raises(PreconditionError):
        apply(G22, TK, Config((0, 3), (0, 0)))  # unsorted
    with pytest.raises(PreconditionError):
        apply(G22, TK, Config((9, 0), (0, 0)))  # not compact
    with pytest.raises(PreconditionError):
        apply(G22, "bogus", parse_config("3,3;2,2"))
    with pytest.raises(PreconditionError):
        apply(SplitGraph(2, 0), TI, Config((1, 1), ()))


def test_apply_word_validates_each_configuration_once(monkeypatch):
    calls = []
    real = cycle_lemma._sorted_compact

    def counted(graph, a, b):
        calls.append((a, b))
        return real(graph, a, b)

    monkeypatch.setattr(cycle_lemma, "_sorted_compact", counted)
    c = parse_config("3,3;2,2")
    for ops in ([], [TS], [TS, TK, TK, TI, TI], [TW, TW_INV, TK_INV, TI_INV]):
        calls.clear()
        apply_word(G22, ops, c)
        assert len(calls) == 1 + len(ops)


def test_apply_word_checks_input_and_results():
    with pytest.raises(PreconditionError):
        apply_word(G22, [], Config((0, 3), (0, 0)))  # unsorted, empty word
    with pytest.raises(PreconditionError):
        apply_word(G22, [TS], Config((9, 0), (0, 0)))  # not compact


def test_apply_word_flags_out_of_set_result_inside_chain(monkeypatch):
    # input check and first result pass; the second result is rejected
    verdicts = iter([True, True, False])
    monkeypatch.setattr(cycle_lemma, "_sorted_compact", lambda graph, a, b: next(verdicts))
    with pytest.raises(InternalError, match="TK left the sorted compact set"):
        apply_word(G22, [TS, TK, TI], parse_config("3,3;2,2"))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_operator_inverses(n, d, data):
    g = SplitGraph(n, d)
    u = data.draw(compact_configs(n, d))
    pairs = [(TS, TS_INV), (TK, TK_INV), (TW, TW_INV)]
    if d > 0:
        pairs.append((TI, TI_INV))
    for fwd, inv in pairs:
        assert apply(g, inv, apply(g, fwd, u)) == u
        assert apply(g, fwd, apply(g, inv, u)) == u


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_identity_and_commutation(n, d, data):
    g = SplitGraph(n, d)
    u = data.draw(compact_configs(n, d))
    assert identity_check(g, u)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_weight_operator_definition(n, d, data):
    g = SplitGraph(n, d)
    u = data.draw(compact_configs(n, d))
    assert apply(g, TW, u) == apply_word(g, [TK] * (n + 1) + [TI] * d, u)


def test_identity_check_examples():
    assert identity_check(G22, parse_config("3,3;2,2"))
    assert identity_check(G22, parse_config("0,0;0,0"))


def test_weight_examples():
    assert weight(G22, Config((3, 3), (2, 2))) == 0
    assert weight(G22, Config((7, 3), (0, 0))) == 1
    assert weight(G22, Config((-1, -3), (0, 0))) == -2


def test_weight_laws():
    g = G22
    # weight zero iff quasi-stable and non-negative, over an exhaustive
    # window of compact sorted clique parts
    for top in range(-5, 11):
        for low in range(top - 5, top + 1):
            u = Config((top, low), (1, 1))
            if not is_compact(g, u):
                continue
            window = 0 <= low and top <= 4
            assert (weight(g, u) == 0) == window
            wu = apply(g, TW, u)
            assert wu.independent == u.independent
            assert weight(g, wu) == weight(g, u) - 1


def test_quasistable_enumeration():
    qsn = list(iter_quasistable_nonneg(G22))
    assert len(qsn) == 90 == count_quasistable_nonneg(2, 2)
    assert count_quasistable_nonneg(1, 0) == 2
    g10 = SplitGraph(1, 0)
    assert list(iter_quasistable_nonneg(g10)) == [Config((1,), ()), Config((0,), ())]
    assert count_quasistable_nonneg(2, 2) == (2 + 1) * 30


def test_recurrent_representative_fixed_point():
    for c in enumerate_sorted_recurrent(G22):
        assert recurrent_representative(G22, c) == c


def test_recurrent_representative_of_zero():
    rep = recurrent_representative(G22, parse_config("0,0;0,0"))
    assert is_recurrent(G22, rep)
    # idempotent
    assert recurrent_representative(G22, rep) == rep


def test_recurrent_representative_of_unstable_inputs():
    # compact inputs above the stable window, one part at a time; a
    # recurrent-looking but unstable input must not be returned as is
    pinned = {
        "4,3;2,2": "3,2;1,1",
        "3,3;3,2": "2,2;2,1",
        "4,4;3,3": "3,3;2,2",
        "3,3;3,3": "2,2;2,2",
        "5,1;3,0": "3,2;1,1",
    }
    for text, rep in pinned.items():
        assert recurrent_representative(G22, parse_config(text)) == parse_config(rep)


def test_class_members_examples():
    v = parse_config("3,3;2,2")
    members = class_members(G22, v)
    assert len(members) == 3
    assert members[0] == v
    assert all(is_quasistable(G22, m) for m in members)
    for m in members:
        assert recurrent_representative(G22, m) == v
    with pytest.raises(PreconditionError):
        class_members(G22, parse_config("2,2;1,1"))


def test_cycle_lemma_partition():
    for n, d in [(1, 0), (1, 2), (2, 2), (3, 2), (4, 3)]:
        g = SplitGraph(n, d)
        qsn = list(iter_quasistable_nonneg(g))
        assert len(qsn) == count_quasistable_nonneg(n, d)
        owner = {}
        for v in enumerate_sorted_recurrent(g):
            members = class_members(g, v)
            assert len(members) == n + 1
            recurrent = [m for m in members if is_stable(g, m) and is_recurrent(g, m)]
            assert recurrent == [v]
            sinks = {sink_height(m) % (n + d + 1) for m in members}
            assert len(sinks) == n + 1
            for m in members:
                assert m not in owner
                owner[m] = v
        assert set(owner) == set(qsn)
        blocks = Counter(owner.values())
        assert set(blocks.values()) == {n + 1}


def test_class_report_shape():
    import json

    report = [
        [format_config(m) for m in class_members(G22, v)]
        for v in enumerate_sorted_recurrent(G22)
    ]
    assert len(report) == 30
    assert all(len(row) == 3 for row in report)
    assert report[0][0] == "3,3;2,2"
    # JSON array of arrays of configuration strings
    assert json.loads(json.dumps(report)) == report


def test_parse_accepts_negative_entries():
    assert parse_config("-1,-3;0,0") == Config((-1, -3), (0, 0))


def test_representative_identifies_classes():
    g = SplitGraph(2, 2)
    owner = {}
    for v in enumerate_sorted_recurrent(g):
        for m in class_members(g, v):
            owner[m] = v
    for m in iter_quasistable_nonneg(g):
        assert recurrent_representative(g, m) == owner[m]


def test_shift_permutes_quasistable_in_cycles_of_n_plus_1():
    for n in range(1, 5):
        for d in range(4):
            g = SplitGraph(n, d)
            qsn = set(iter_quasistable_nonneg(g))
            assert {_shift(g, u) for u in qsn} == qsn
            unseen = set(qsn)
            while unseen:
                cycle = [unseen.pop()]
                while (nxt := _shift(g, cycle[-1])) != cycle[0]:
                    cycle.append(nxt)
                unseen -= set(cycle)
                assert len(cycle) == n + 1
                recurrent = [u for u in cycle if is_stable(g, u) and is_recurrent(g, u)]
                assert len(recurrent) == 1


def test_shift_is_ts_then_ti_then_tw():
    for n in range(1, 5):
        for d in range(4):
            g = SplitGraph(n, d)
            for u in iter_quasistable_nonneg(g):
                w = apply(g, TS, u)
                while w.independent and w.independent[0] > n:
                    w = apply(g, TI, w)
                while w.clique[0] > n + d:
                    w = apply(g, TW, w)
                assert _shift(g, u) == w


def test_class_members_pinned_order():
    pinned = {
        (2, 2, "3,3;2,2"): ["3,3;2,2", "1,1;0,0", "2,2;1,1"],
        (5, 3, "7,6,5,2,1;5,4,4"): [
            "7,6,5,2,1;5,4,4",
            "8,7,4,3,0;5,5,0",
            "7,6,3,2,1;1,0,0",
            "8,7,4,3,2;2,1,1",
            "8,5,4,3,0;3,2,2",
            "6,5,4,1,0;4,3,3",
        ],
    }
    for (n, d, text), members in pinned.items():
        got = class_members(SplitGraph(n, d), parse_config(text))
        assert [format_config(m) for m in got] == members


def test_quasistable_heights_are_a_q_cycle_lemma():
    # sum over QSN(n, d) of q^height = [n+1]_q q^(C(n,2)+nd) f_itc(q, 1/q)
    # = [2n+d; n]_q [n+d; n]_q; at q = 1 this is the cycle lemma's count.
    # The mutant [n]_q for [n+1]_q must fail on every shape.
    shapes = [(n, d) for n in range(1, 7) for d in range(0, 5) if n + d <= 8]
    assert len(shapes) == 27
    for n, d in shapes:
        graph = SplitGraph(n, d)
        heights = QtPolynomial(Counter((height(c), 0) for c in iter_quasistable_nonneg(graph)))
        assert heights == q_binomial(2 * n + d, n) * q_binomial(n + d, n), (n, d)
        shift = n * (n - 1) // 2 + n * d
        folded = Counter()
        for (qe, te), c in f_itc(n, d).terms.items():
            folded[(qe - te + shift, 0)] += c
        at_inverse_q = QtPolynomial(folded)
        assert q_binomial(n + 1, 1) * at_inverse_q == heights, (n, d)
        assert q_binomial(n, 1) * at_inverse_q != heights, (n, d)
