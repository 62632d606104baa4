from collections import Counter

import pytest

from splitpile import asm
from splitpile.asm import (
    Config,
    PreconditionError,
    SplitGraph,
    _burn_sorted,
    enumerate_sorted_recurrent,
    is_recurrent,
    level,
    parse_config,
)
from splitpile.toppling import (
    CTI,
    ITC,
    ItcSequence,
    all_itc_sequences,
    canonical_config,
    compositions,
    count_ehkk,
    count_itc,
    cti_sizes,
    enumerate_itc_sequences,
    itc_sequence_of_sizes,
    itc_sizes,
    topple_cti,
    topple_itc,
    wtopple,
)
from test_asm import _burn_rounds

G22 = SplitGraph(2, 2)
G53 = SplitGraph(5, 3)
C53 = parse_config("7,6,5,2,1;5,4,4")


def test_cti_trace_worked_example():
    trace = topple_cti(G53, C53)
    assert trace.mode == CTI
    # P1={v1}, Q1={w1,w2,w3}, P2={v2,v3}, Q2={}, P3={v4,v5}, Q3={}
    assert trace.rounds == (
        ((0,), (0, 1, 2)),
        ((1, 2), ()),
        ((3, 4), ()),
    )
    assert trace.sizes() == (1, 3, 2, 0, 2, 0)
    assert wtopple(trace) == 14


def test_cti_trace_table_rows():
    assert topple_cti(G22, parse_config("3,3;2,2")).sizes() == (2, 2)
    t = topple_cti(G22, parse_config("2,1;2,0"))
    assert t.sizes() == (0, 1, 1, 0, 1, 1)
    assert wtopple(t) == 9


def test_itc_trace_worked_example():
    trace = topple_itc(G53, C53)
    assert trace.mode == ITC
    # Q1={w1}, P1={v1,v2}, Q2={w2,w3}, P2={v3,v4}, Q3={}, P3={v5}
    assert trace.rounds == (
        ((0,), (0, 1)),
        ((1, 2), (2, 3)),
        ((), (4,)),
    )
    assert trace.sizes() == (1, 2, 2, 2, 0, 1)
    assert wtopple(trace) == 14


def test_itc_trace_second_worked_example():
    c = parse_config("7,7,6,5,2;3,3,1")
    assert topple_itc(G53, c).sizes() == (0, 2, 2, 2, 1, 1)


def test_cti_itc_coincide_on_single_round():
    c = parse_config("3,3;2,2")
    assert topple_itc(G22, c).sizes() == (2, 2) == topple_cti(G22, c).sizes()


def test_trace_preconditions():
    for fn in (topple_cti, topple_itc, cti_sizes, itc_sizes):
        with pytest.raises(PreconditionError):
            fn(G22, parse_config("2,2;1,1"))  # not recurrent
        with pytest.raises(PreconditionError):
            fn(G22, Config((2, 3), (2, 2)))  # unsorted
        for bad in (
            Config((3, 3), (2,)),  # too few independent vertices
            parse_config("3,3;2,2,2"),  # too many independent vertices
            parse_config("3,3,3;2,2"),  # too many clique vertices
            parse_config("9,9;9,9"),  # unstable
        ):
            with pytest.raises(PreconditionError):
                fn(G22, bad)


def test_each_domain_fault_has_one_message(capsys):
    from splitpile import cli
    from splitpile.cycle_lemma import class_members
    from splitpile.polyomino import from_config

    expected = {
        "2,3;2,2": "2,3;2,2 is not sorted: it needs weakly decreasing clique and independent parts",
        "3,3;2": "configuration 3,3;2 does not fit S(2,2)",
        "3,3;2,-1": "recurrence test requires non-negative grain counts",
        "9,9;9,9": "recurrence test requires a stable configuration",
        "2,2;1,1": "2,2;1,1 is not recurrent",
    }
    entry_points = (topple_cti, topple_itc, cti_sizes, itc_sizes, from_config, class_members)
    for text, message in expected.items():
        for fn in entry_points:
            with pytest.raises(PreconditionError) as info:
                fn(G22, parse_config(text))
            assert str(info.value) == message, fn.__name__
        assert cli.main(["stats", text, "-n", "2", "-d", "2"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_size_shortcuts_match_traces():
    # the traces are laid out from the counter form's block sizes; the
    # round simulation, which also asserts that replaying returns the
    # input, is the definition they must equal
    for n, d in [(1, 0), (2, 2), (3, 1), (3, 2), (4, 3), (5, 4)]:
        g = SplitGraph(n, d)
        for c in enumerate_sorted_recurrent(g):
            cti, itc = topple_cti(g, c), topple_itc(g, c)
            assert cti_sizes(g, c) == cti.sizes()
            assert itc_sizes(g, c) == itc.sizes()
            assert cti.rounds == _burn_rounds(g, c, True)
            assert itc.rounds == _burn_rounds(g, c, False)


def test_each_trace_and_recurrence_test_burns_once(monkeypatch):
    burns = []

    def counted_burn(*args, **kwargs):
        burns.append(args)
        return _burn_sorted(*args, **kwargs)

    def simulation(*args, **kwargs):
        raise AssertionError("the round simulation ran on a library path")

    monkeypatch.setattr(asm, "_burn_sorted", counted_burn)
    # the simulation topples every vertex through this one function
    monkeypatch.setattr(asm, "_topple_inplace", simulation)
    unsorted = parse_config("2,7,5,1,6;4,5,4")  # C53 rearranged
    for config in (C53, unsorted):
        burns.clear()
        assert is_recurrent(G53, config)
        assert len(burns) == 1
    for fn in (topple_cti, topple_itc):
        burns.clear()
        fn(G53, C53)
        assert len(burns) == 1
        # an unsorted input is refused before any burning
        burns.clear()
        with pytest.raises(PreconditionError):
            fn(G53, unsorted)
        assert burns == []


def test_every_vertex_topples_once():
    for c in enumerate_sorted_recurrent(G53):
        for trace in (topple_cti(G53, c), topple_itc(G53, c)):
            toppled_first = [v for first, _ in trace.rounds for v in first]
            toppled_second = [v for _, second in trace.rounds for v in second]
            if trace.mode == CTI:
                clique, indep = toppled_first, toppled_second
            else:
                indep, clique = toppled_first, toppled_second
            assert sorted(clique) == list(range(5))
            assert sorted(indep) == list(range(3))
            assert all(first or second for first, second in trace.rounds)


def test_itc_sequence_regrouping():
    trace = topple_itc(G53, C53)
    assert itc_sequence_of_sizes(trace.sizes()) == ItcSequence((1, 2, 0), (2, 2, 1))
    trace = topple_itc(G22, parse_config("3,3;2,2"))
    assert itc_sequence_of_sizes(trace.sizes()) == ItcSequence((2,), (2,))
    assert itc_sequence_of_sizes((0, 2, 2, 2, 1, 1)) == ItcSequence((0, 2, 1), (2, 2, 1))


EXAMPLE_SETS = {
    1: {((2,), (2,))},
    2: {
        ((0, 2), (2, 0)),
        ((1, 1), (2, 0)),
        ((2, 0), (1, 1)),
        ((1, 1), (1, 1)),
        ((0, 2), (1, 1)),
    },
    3: {
        ((1, 0, 1), (1, 1, 0)),
        ((0, 1, 1), (1, 1, 0)),
        ((0, 0, 2), (1, 1, 0)),
    },
}


def test_enumerate_itc_sequences_worked_example():
    grouped = enumerate_itc_sequences(2, 2)
    assert set(grouped) == {1, 2, 3}
    for k, expected in EXAMPLE_SETS.items():
        assert {(s.b, s.a) for s in grouped[k]} == expected
    assert sum(len(v) for v in grouped.values()) == 9


def test_enumerate_itc_sequences_edge_cases():
    assert all_itc_sequences(1, 0) == [ItcSequence((0,), (1,))]
    # formula total for (3,1): sum_k C(1+k,1) C(2,k-1) = 2 + 6 + 4 = 12
    seqs = all_itc_sequences(3, 1)
    assert len(seqs) == 12 == count_itc(3, 1)


def test_compositions_have_no_zero_parts_and_sequences_need_a_graph():
    assert list(compositions(0, 1)) == []
    assert list(compositions(3, 1)) == [(3,)]
    assert list(compositions(0, 0)) == [()]
    for n, d in [(2, -1), (0, 0), (0, 2)]:
        for call in (enumerate_itc_sequences, all_itc_sequences, count_itc):
            with pytest.raises(PreconditionError, match=r"need n >= 1 and d >= 0"):
                call(n, d)


def _composition(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Round sizes (s1+s2, s3+s4, ...) of a flattened block-size tuple."""
    return tuple(x + y for x, y in zip(sizes[0::2], sizes[1::2]))


def _law(counts: Counter, compose) -> Counter:
    """The multiset of (level, compose(block sizes))."""
    out = Counter()
    for (lv, sizes), k in counts.items():
        out[lv, compose(sizes)] += k
    return out


def test_level_is_equidistributed_with_the_round_composition():
    """Level and the round-size composition have one joint law under CTI
    and ITC on every shape with n+d <= 8.  Two wrong statements fail, so
    the comparison can tell: the reversed ITC composition, and the
    flattened block sizes, which split each round by part."""
    shapes = [(n, total - n) for total in range(1, 9) for n in range(1, total + 1)]
    reversed_differs = flat_differs = 0
    for n, d in shapes:
        g = SplitGraph(n, d)
        cti, itc = Counter(), Counter()
        for c in enumerate_sorted_recurrent(g):
            cti[level(g, c), cti_sizes(g, c)] += 1
            itc[level(g, c), itc_sizes(g, c)] += 1
        assert _law(cti, _composition) == _law(itc, _composition), (n, d)
        reversed_differs += _law(cti, _composition) != _law(itc, lambda s: _composition(s)[::-1])
        flat_differs += cti != itc
    assert len(shapes) == 36
    assert (reversed_differs, flat_differs) == (33, 35)


def test_sequences_match_toppling_images():
    for n, d in [(1, 0), (2, 2), (3, 1), (3, 2), (4, 3)]:
        g = SplitGraph(n, d)
        image = {
            itc_sequence_of_sizes(itc_sizes(g, c)) for c in enumerate_sorted_recurrent(g)
        }
        assert image == set(all_itc_sequences(n, d))


def test_fiber_sizes_sum_to_recurrent_count():
    from collections import Counter

    for n, d in [(2, 2), (3, 2)]:
        g = SplitGraph(n, d)
        fibers = Counter(
            itc_sequence_of_sizes(itc_sizes(g, c)) for c in enumerate_sorted_recurrent(g)
        )
        assert sum(fibers.values()) == len(tuple(enumerate_sorted_recurrent(g)))
        assert set(fibers) == set(all_itc_sequences(n, d))


def test_canonical_config_examples():
    # the construction yields the minimal-height member of the fiber of
    # [(2),(2)]; the one-round fiber also contains (3,3;2,2) at the top
    c = canonical_config(G22, ItcSequence((2,), (2,)))
    assert c == parse_config("1,1;2,2")
    assert itc_sizes(G22, c) == (2, 2) == itc_sizes(G22, parse_config("3,3;2,2"))
    c = canonical_config(G22, ItcSequence((0, 0, 2), (1, 1, 0)))
    assert itc_sizes(G22, c) == (0, 1, 0, 1, 2, 0)
    # the fiber of that sequence has size one (its term is t^5)
    fiber = [
        cc
        for cc in enumerate_sorted_recurrent(G22)
        if itc_sizes(G22, cc) == (0, 1, 0, 1, 2, 0)
    ]
    assert fiber == [c]
    c = canonical_config(G53, ItcSequence((1, 2, 0), (2, 2, 1)))
    assert itc_sizes(G53, c) == (1, 2, 2, 2, 0, 1) == itc_sizes(G53, C53)


def test_canonical_config_covers_all_sequences():
    for n, d in [(2, 2), (3, 2), (4, 2)]:
        g = SplitGraph(n, d)
        for seq in all_itc_sequences(n, d):
            c = canonical_config(g, seq)
            assert itc_sequence_of_sizes(itc_sizes(g, c)) == seq


def test_canonical_config_rejects_bad_sequence():
    with pytest.raises(PreconditionError):
        canonical_config(G22, ItcSequence((1,), (2,)))  # b does not sum to d
    with pytest.raises(PreconditionError):
        canonical_config(G22, ItcSequence((0, 2), (0, 2)))  # sums fit, no first clique round


def test_blocks_start_at_the_sink():
    # round 1 follows the sink (a_0 = 1), so its block has no D
    assert ItcSequence((1, 2, 0), (2, 2, 1)).blocks() == [(0, 1, 2), (1, 2, 2), (1, 0, 1)]
    assert ItcSequence((3,), (2,)).blocks() == [(0, 3, 2)]
    assert ItcSequence((0, 0, 2), (1, 1, 0)).blocks() == [(0, 0, 1), (0, 0, 1), (0, 2, 0)]


def test_blocks_accept_exactly_the_realizable_sequences():
    from itertools import product

    def parts(total: int, k: int) -> list[tuple[int, ...]]:
        # every length-k weak composition of total
        return [p for p in product(range(total + 1), repeat=k) if sum(p) == total]

    for n in range(1, 4):
        for d in range(0, 3):
            g = SplitGraph(n, d)
            described = set(all_itc_sequences(n, d))
            for k in range(1, n + 3):
                for a, b in product(parts(n, k), parts(d, k)):
                    seq = ItcSequence(b, a)
                    if seq in described:
                        assert len(seq.blocks()) == k
                        continue
                    for check in (ItcSequence.blocks, lambda s: canonical_config(g, s)):
                        with pytest.raises(PreconditionError, match="not realizable"):
                            check(seq)
    # a negative count is refused even where the other rules hold
    for seq in [ItcSequence((-1, 2), (1, 1)), ItcSequence((0, 2), (3, -1))]:
        with pytest.raises(PreconditionError, match="not realizable"):
            seq.blocks()


def test_count_itc_values():
    assert count_itc(2, 2) == 9
    assert count_itc(2, 2, 1) == 1
    assert count_itc(2, 2, 2) == 5
    assert count_itc(2, 2, 3) == 3
    for n in range(1, 6):
        for d in range(0, 5):
            assert count_itc(n, d, 1) == 1


def test_count_ehkk_values():
    assert count_ehkk(2, 2) == 9
    assert count_ehkk(2, 2, 1) == 3
    assert count_ehkk(2, 2, 2) == 6
    for n in range(1, 6):
        for d in range(0, 5):
            assert count_ehkk(n, d, 1) == d + 1


def test_count_totals_agree():
    for n in range(1, 12):
        for d in range(0, 10):
            grouped_total = sum(
                count_itc(n, d, k) for k in range(1, n + 2)
            )
            assert grouped_total == count_itc(n, d) == count_ehkk(n, d)


def test_per_length_counts_match_enumeration():
    for n in range(1, 5):
        for d in range(0, 4):
            grouped = enumerate_itc_sequences(n, d)
            for k in range(1, n + 2):
                assert len(grouped.get(k, [])) == count_itc(n, d, k)
