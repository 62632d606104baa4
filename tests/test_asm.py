import inspect
import itertools
import json
import random
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from splitpile import asm
from splitpile.asm import (
    SINK,
    Config,
    PreconditionError,
    SplitGraph,
    config_to_json,
    enumerate_sorted_recurrent,
    format_config,
    height,
    is_nonnegative,
    is_recurrent,
    is_sorted_config,
    is_stable,
    iter_sorted_recurrent_groups,
    level,
    parse_config,
    sorted_recurrent_count,
    stabilize,
    topple,
    weakly_decreasing_tuples,
    _burn_sorted,
    _stabilize_raw,
)
from splitpile.schroder import enumerate_schroder, phi

G22 = SplitGraph(2, 2)
G53 = SplitGraph(5, 3)


# The 30 sorted recurrent configurations of S(2,2) with height, CTI block
# sizes and weighted toppling time, frozen from the worked table.
TABLE_22 = {
    "3,3;2,2": (10, (2, 2), 4),
    "3,3;2,1": (9, (2, 2), 4),
    "3,3;2,0": (8, (2, 2), 4),
    "3,3;1,1": (8, (2, 2), 4),
    "3,3;1,0": (7, (2, 2), 4),
    "3,3;0,0": (6, (2, 2), 4),
    "3,2;2,2": (9, (1, 2, 1, 0), 5),
    "3,2;2,1": (8, (1, 2, 1, 0), 5),
    "3,2;2,0": (7, (1, 1, 1, 1), 6),
    "3,2;1,1": (7, (1, 2, 1, 0), 5),
    "3,2;1,0": (6, (1, 1, 1, 1), 6),
    "3,2;0,0": (5, (1, 0, 1, 2), 7),
    "3,1;2,2": (8, (1, 2, 1, 0), 5),
    "3,1;2,1": (7, (1, 2, 1, 0), 5),
    "3,1;2,0": (6, (1, 1, 1, 1), 6),
    "3,1;1,1": (6, (1, 2, 1, 0), 5),
    "3,1;1,0": (5, (1, 1, 1, 1), 6),
    "3,0;2,2": (7, (1, 2, 1, 0), 5),
    "3,0;2,1": (6, (1, 2, 1, 0), 5),
    "3,0;1,1": (5, (1, 2, 1, 0), 5),
    "2,2;2,2": (8, (0, 2, 2, 0), 6),
    "2,2;2,1": (7, (0, 1, 2, 1), 7),
    "2,2;2,0": (6, (0, 1, 2, 1), 7),
    "2,1;2,2": (7, (0, 2, 2, 0), 6),
    "2,1;2,1": (6, (0, 1, 1, 1, 1, 0), 8),
    "2,1;2,0": (5, (0, 1, 1, 0, 1, 1), 9),
    "2,0;2,2": (6, (0, 2, 1, 0, 1, 0), 7),
    "2,0;2,1": (5, (0, 1, 1, 1, 1, 0), 8),
    "1,1;2,2": (6, (0, 2, 2, 0), 6),
    "1,0;2,2": (5, (0, 2, 1, 0, 1, 0), 7),
}


def test_parse_and_format_roundtrip():
    c = parse_config("7,6,5,2,1;5,4,4")
    assert c == Config((7, 6, 5, 2, 1), (5, 4, 4))
    assert format_config(c) == "7,6,5,2,1;5,4,4"
    assert parse_config("4,3,2") == Config((4, 3, 2), ())
    assert parse_config("4,3,2;") == Config((4, 3, 2), ())
    assert format_config(Config((4, 3, 2), ())) == "4,3,2"
    with pytest.raises(PreconditionError):
        parse_config(";1,2")
    with pytest.raises(PreconditionError):
        parse_config("a,b;c")
    # only an empty or absent independent part may be empty
    for text in ("3,,3;2,2", ",3,3;2,2", "3,3;2,,2", "3,3,;2,2", "3,3;2,2,", "3,3; ,2"):
        with pytest.raises(PreconditionError, match="bad configuration text"):
            parse_config(text)


def test_json_roundtrip():
    c = parse_config("3,3;2,2")
    obj = config_to_json(G22, c)
    assert obj == {"n": 2, "d": 2, "clique": [3, 3], "independent": [2, 2]}
    back = json.loads(json.dumps(obj))
    assert SplitGraph(back["n"], back["d"]) == G22
    assert Config(back["clique"], back["independent"]) == c


def test_entry_points_share_the_shape_check(capsys):
    from splitpile import cycle_lemma, polyomino
    from splitpile.cli import main

    short = parse_config("3;2,2")  # one clique vertex short of S(2,2)
    for call in (
        lambda: polyomino.from_config(G22, short),
        lambda: cycle_lemma.apply(G22, cycle_lemma.TS, short),
    ):
        with pytest.raises(PreconditionError, match=r"does not fit S\(2,2\)"):
            call()
    assert main(["stats", "3;2,2", "-n", "2", "-d", "2"]) == 3
    assert "configuration 3;2,2 does not fit S(2,2)" in capsys.readouterr().err


def test_degrees():
    assert G53.clique_degree == 8
    assert G53.indep_degree == 6
    assert G53.nonsink_edges == 28 - 3
    with pytest.raises(PreconditionError):
        SplitGraph(0, 1)


def test_topple_sink_matches_worked_example():
    c = parse_config("7,6,5,2,1;5,4,4")
    assert topple(G53, c, SINK) == parse_config("8,7,6,3,2;6,5,5")


def test_topple_clique_and_independent():
    assert topple(G22, Config((4, 0), (0, 0)), 0) == Config((0, 1), (1, 1))
    assert topple(G22, Config((0, 0), (3, 0)), 2) == Config((1, 1), (0, 0))
    with pytest.raises(PreconditionError):
        topple(G22, Config((0, 0), (0, 0)), 0)  # stable vertex
    with pytest.raises(PreconditionError):
        topple(G22, Config((4, 0), (0, 0)), 9)
    for vertex in ("x", "0", 1.5, None):
        with pytest.raises(PreconditionError, match="neither SINK nor an integer"):
            topple(G22, Config((4, 4), (0, 0)), vertex)


def test_stabilize_examples():
    trace = stabilize(G22, Config((4, 0), (0, 0)))
    assert trace.final == Config((0, 1), (1, 1))
    assert trace.odometer == (1, 0, 0, 0, 0)

    trace = stabilize(G22, Config((3, 3), (2, 2)))
    assert trace.final == Config((3, 3), (2, 2))
    assert trace.odometer == (0, 0, 0, 0, 0)

    trace = stabilize(G53, parse_config("8,7,6,3,2;6,5,5"))
    assert trace.final == parse_config("7,6,5,2,1;5,4,4")
    assert trace.odometer[:-1] == (1,) * 8  # every non-sink vertex once


def test_is_recurrent_examples():
    assert is_recurrent(G22, parse_config("3,3;2,2"))
    assert not is_recurrent(G22, parse_config("0,0;0,0"))
    assert not is_recurrent(G22, parse_config("2,2;1,1"))
    with pytest.raises(PreconditionError):
        is_recurrent(G22, parse_config("4,0;0,0"))  # unstable


def test_recurrence_against_exhaustive_table():
    # every sorted stable configuration, checked against the frozen table
    from splitpile.asm import weakly_decreasing_tuples

    for a in weakly_decreasing_tuples(2, 3):
        for b in weakly_decreasing_tuples(2, 2):
            c = Config(a, b)
            assert is_recurrent(G22, c) == (format_config(c) in TABLE_22)


def _burn_rounds(graph, config, clique_first=True):
    """Burning test as rounds of parallel topplings after a sink toppling.

    The definition of the CTI and ITC processes, the reference the tests
    compare the counter form and the traces against.  Each round topples
    every unstable vertex of the first class and then every vertex of the
    second class that is unstable after that, each by
    ``asm._topple_inplace``.  A vertex that has toppled cannot become
    unstable again before all its neighbours have toppled once, so no
    vertex topples twice.  Returns the rounds as pairs of index tuples
    within the parts, (clique, independent) or (independent, clique), or
    None if a round topples nothing before every vertex has toppled (not
    recurrent).
    """
    n, d = graph.n, graph.d
    a = [x + 1 for x in config.clique]
    b = [x + 1 for x in config.independent]
    classes = ((a, graph.clique_degree, 0), (b, graph.indep_degree, n))
    rounds = []
    toppled = 0
    while toppled < n + d:
        hot = []
        for part, degree, offset in classes if clique_first else classes[::-1]:
            hot.append(tuple(i for i, x in enumerate(part) if x >= degree))
            for i in hot[-1]:
                asm._topple_inplace(graph, a, b, offset + i)
        count = len(hot[0]) + len(hot[1])
        if not count:
            return None
        toppled += count
        rounds.append(tuple(hot))
    # toppling the sink and then every vertex once returns the start
    if tuple(a) != config.clique or tuple(b) != config.independent:
        raise asm.InternalError("burning did not return the initial configuration")
    return tuple(rounds)


def _burning_order(g, rounds):
    """The clique-first rounds of the round simulation, flattened to
    vertex indices (sink excluded)."""
    return [v for clique, indep in rounds for v in clique + tuple(g.n + j for j in indep)]


def test_fast_and_general_burning_agree():
    # is_recurrent (the counter form on the sorted rearrangement) and the
    # round simulation must classify every stable configuration
    # identically, sorted or not, and the simulation's rounds must be a
    # legal burning order
    for n, d in [(2, 2), (3, 1), (2, 3), (3, 2)]:
        g = SplitGraph(n, d)
        for a in itertools.product(range(g.clique_degree), repeat=n):
            for b in itertools.product(range(g.indep_degree), repeat=d):
                c = Config(a, b)
                rounds = _burn_rounds(g, c)
                assert is_recurrent(g, c) == (rounds is not None)
                if rounds is None:
                    continue
                order = _burning_order(g, rounds)
                assert sorted(order) == list(range(n + d))
                replay = topple(g, c, SINK)
                for v in order:
                    replay = topple(g, replay, v)  # refuses a stable vertex
                assert replay == c


def test_recurrent_witness():
    c = parse_config("3,3;2,2")
    assert is_recurrent(G22, c)
    assert sorted(_burning_order(G22, _burn_rounds(G22, c))) == [0, 1, 2, 3]
    c = parse_config("2,2;1,1")
    assert not is_recurrent(G22, c)
    assert _burn_rounds(G22, c) is None


def test_height_and_level():
    c = parse_config("3,3;2,2")
    assert height(c) == 10
    assert level(G22, c) == 5
    c = parse_config("7,6,5,2,1;5,4,4")
    assert height(c) == 34
    assert level(G53, c) == 9
    zero = Config((0,) * 5, (0,) * 3)
    assert height(zero) == 0
    assert level(G53, zero) == -25


def test_enumerate_matches_table():
    recs = tuple(enumerate_sorted_recurrent(G22))
    assert len(recs) == 30
    assert [format_config(c) for c in recs] == sorted(
        TABLE_22, key=lambda s: parse_config(s).key(), reverse=True
    )
    for c in recs:
        assert TABLE_22[format_config(c)][0] == height(c)


def test_enumerate_trivial_and_derived():
    g = SplitGraph(1, 0)
    assert tuple(enumerate_sorted_recurrent(g)) == (Config((0,), ()),)
    assert len(tuple(enumerate_sorted_recurrent(SplitGraph(3, 2)))) == 140


def _enumerate_phi(graph):
    """The image of all Schroder words under phi, sorted like the
    enumeration: its independent reference."""
    out = [phi(w) for w in enumerate_schroder(graph.n, graph.d)]
    out.sort(key=Config.key, reverse=True)
    return out


def test_enumeration_backends_agree():
    for n in range(1, 6):
        for d in range(0, 5):
            g = SplitGraph(n, d)
            assert tuple(enumerate_sorted_recurrent(g)) == tuple(_enumerate_phi(g))


def _candidate_groups(graph):
    """The enumeration as a filter: every sorted stable candidate ``(a, b)``
    through one counter-form burning test, grouped by clique part."""
    indep = tuple(weakly_decreasing_tuples(graph.d, graph.indep_degree - 1))
    for a in weakly_decreasing_tuples(graph.n, graph.clique_degree - 1):
        rows = [(b, sizes) for b in indep if (sizes := _burn_sorted(graph, a, b)) is not None]
        if rows:
            yield a, rows


def _off_by_one_rows_from_blocks():
    """``asm._rows_from_blocks`` with the run bound of the next round off
    by one: ``hi = lo`` instead of ``lo - 1``."""
    source = textwrap.dedent(inspect.getsource(asm._rows_from_blocks))
    right = "_rows_from_blocks(n, d, a, k, bi + m, lo - 1, memo)"
    assert source.count(right) == 1
    namespace = dict(vars(asm))
    exec(source.replace(right, "_rows_from_blocks(n, d, a, k, bi + m, lo, memo)"), namespace)
    return namespace["_rows_from_blocks"]


def test_groups_match_the_candidate_loop():
    # groups, row order and block sizes, on every shape with n <= 7,
    # d <= 5 and n + d <= 10
    for n in range(1, 8):
        for d in range(0, min(5, 10 - n) + 1):
            g = SplitGraph(n, d)
            assert list(iter_sorted_recurrent_groups(g)) == list(_candidate_groups(g)), (n, d)


def test_groups_from_blocks_count_every_recurrent_configuration():
    for n, d in [(7, 3), (6, 5)]:
        rows = sum(len(rows) for _, rows in iter_sorted_recurrent_groups(SplitGraph(n, d)))
        assert rows == sorted_recurrent_count(n, d)
    assert sorted_recurrent_count(7, 3) == 291_720


def test_groups_from_blocks_burn_nothing(monkeypatch):
    def burn(*args, **kwargs):
        raise AssertionError("the enumeration ran a burning test")

    monkeypatch.setattr(asm, "_burn_sorted", burn)
    for n, d in [(1, 0), (3, 2), (4, 3), (5, 1)]:
        assert sum(1 for _ in iter_sorted_recurrent_groups(SplitGraph(n, d)))


def test_groups_from_blocks_catch_an_off_by_one_run_bound(monkeypatch):
    shapes = [SplitGraph(n, d) for n in range(1, 6) for d in range(0, 5)]
    expected = [list(_candidate_groups(g)) for g in shapes]
    monkeypatch.setattr(asm, "_rows_from_blocks", _off_by_one_rows_from_blocks())
    wrong = [g for g, groups in zip(shapes, expected) if list(iter_sorted_recurrent_groups(g)) != groups]
    assert len(wrong) == 19


def test_streamed_sizes_are_the_cti_sizes():
    from splitpile.toppling import cti_sizes

    for n in range(1, 5):
        for d in range(0, 4):
            g = SplitGraph(n, d)
            groups = iter_sorted_recurrent_groups(g)
            pairs = [(Config(a, b), sizes) for a, rows in groups for b, sizes in rows]
            assert [c for c, _ in pairs] == list(enumerate_sorted_recurrent(g))
            assert all(sizes == cti_sizes(g, c) for c, sizes in pairs)


def test_flattened_groups_are_the_enumeration():
    for n in range(1, 6):
        for d in range(0, 5):
            g = SplitGraph(n, d)
            groups = list(iter_sorted_recurrent_groups(g))
            assert all(rows for _, rows in groups)
            clique_parts = [a for a, _ in groups]
            assert all(x > y for x, y in zip(clique_parts, clique_parts[1:]))
            flat = [(Config(a, b), sizes) for a, rows in groups for b, sizes in rows]
            assert [c for c, _ in flat] == list(enumerate_sorted_recurrent(g))


def test_streaming_first_config_without_building_the_set():
    # S(8,5) has 29,099,070 sorted recurrent configurations; the first one
    # costs one group of rows, not the set
    tracemalloc.start()
    try:
        first = next(enumerate_sorted_recurrent(SplitGraph(8, 5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert format_config(first) == "12,12,12,12,12,12,12,12;8,8,8,8,8"
    assert peak < 1_000_000


@pytest.mark.parametrize("n, d", [(0, 1), (2, -1), (-1, 0)])
def test_every_shape_entry_point_gives_one_message(n, d):
    from splitpile.cycle_lemma import count_quasistable_nonneg
    from splitpile.qtpoly import egge_sum, itc_sum
    from splitpile.toppling import count_ehkk, count_itc, enumerate_itc_sequences

    entry_points = (
        sorted_recurrent_count,
        enumerate_itc_sequences,
        count_itc,
        count_ehkk,
        egge_sum,
        itc_sum,
        count_quasistable_nonneg,
    )
    for fn in entry_points:
        with pytest.raises(PreconditionError) as info:
            fn(n, d)
        assert str(info.value) == f"need n >= 1 and d >= 0, got ({n}, {d})", fn.__name__


def test_counts():
    assert sorted_recurrent_count(2, 2) == 30
    assert sorted_recurrent_count(1, 0) == 1
    assert sorted_recurrent_count(5, 3) == 12012
    for n in range(1, 7):
        for d in range(0, 5):
            g = SplitGraph(n, d)
            enumerate_fn = _enumerate_phi if n >= 6 else enumerate_sorted_recurrent
            assert len(list(enumerate_fn(g))) == sorted_recurrent_count(n, d)


def test_sink_then_stabilize_fixes_recurrents():
    for c in enumerate_sorted_recurrent(G22):
        trace = stabilize(G22, topple(G22, c, SINK))
        assert trace.final == c
        assert trace.odometer == (1, 1, 1, 1, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 3),
    st.data(),
)
def test_abelian_property(n, d, data):
    g = SplitGraph(n, d)
    c = Config(
        tuple(data.draw(st.integers(0, 2 * (n + d))) for _ in range(n)),
        tuple(data.draw(st.integers(0, 2 * (n + d))) for _ in range(d)),
    )
    seed = data.draw(st.integers(0, 10**6))
    base = stabilize(g, c)
    rng = random.Random(seed)
    alt = stabilize(g, c, pick=lambda u: rng.choice(u))
    assert base == alt
    assert is_stable(g, base.final)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.data())
def test_batched_stabilization_matches_single_topplings(n, d, data):
    # negative entries are the operator framework's domain
    g = SplitGraph(n, d)
    entries = st.integers(-3 * (n + d), 40 * (n + d))
    c = Config(
        tuple(data.draw(entries) for _ in range(n)),
        tuple(data.draw(entries) for _ in range(d)),
    )
    batched = _stabilize_raw(g, c)
    single = _stabilize_raw(g, c, pick=lambda u: u[0])
    assert batched.final == single.final
    assert batched.odometer == single.odometer


def test_stabilization_without_pick_topples_no_single_vertex(monkeypatch):
    big = Config((2000, 0, 0, 0, 0), (-7, 0, 0, 0))
    expected = _stabilize_raw(SplitGraph(5, 4), big, pick=lambda u: u[0])

    def simulation(*args, **kwargs):
        raise AssertionError("stabilization toppled a single vertex")

    monkeypatch.setattr(asm, "_topple_inplace", simulation)
    trace = stabilize(G53, parse_config("8,7,6,3,2;6,5,5"))
    assert trace.final == parse_config("7,6,5,2,1;5,4,4")
    assert _stabilize_raw(SplitGraph(5, 4), big) == expected
    with pytest.raises(AssertionError, match="toppled a single vertex"):
        stabilize(G53, parse_config("8,7,6,3,2;6,5,5"), pick=lambda u: u[0])


def _drawn_configurations(count, seed):
    """Shapes up to S(6,5).  Every other configuration has its entries in
    [-3(n+d), 40(n+d)], like those of
    test_batched_stabilization_matches_single_topplings; in the others
    each entry lies within two grains below its vertex's degree or at it,
    where a threshold off by one shows."""
    rng = random.Random(seed)
    for i in range(count):
        n, d = rng.randint(1, 6), rng.randint(0, 5)
        if i % 2:
            clique = [rng.randint(n + d - 2, n + d) for _ in range(n)]
            indep = [rng.randint(n - 1, n + 1) for _ in range(d)]
        else:
            clique = [rng.randint(-3 * (n + d), 40 * (n + d)) for _ in range(n)]
            indep = [rng.randint(-3 * (n + d), 40 * (n + d)) for _ in range(d)]
        yield SplitGraph(n, d), Config(clique, indep)


def _mutant_settle(right, wrong):
    """``asm._settle`` with one expression of its clique count replaced."""
    source = textwrap.dedent(inspect.getsource(asm._settle))
    assert source.count(right) == 1
    namespace = dict(vars(asm))
    exec(source.replace(right, wrong), namespace)
    return namespace["_settle"]


@pytest.mark.parametrize(
    "right, wrong",
    [
        ("// (kdeg + 1) + 1", "// kdeg + 1"),  # stride n+d instead of n+d+1
        ("if x + s >= kdeg", "if x + s > kdeg"),  # a clique vertex at n+d stays
    ],
    ids=["stride", "threshold"],
)
def test_counter_form_mutants_fail(monkeypatch, right, wrong):
    # each mutant differs from single topplings, or exceeds the toppling
    # bound, on some of the configurations where the kernel matches them
    draws = list(_drawn_configurations(100, 0))
    singles = [_stabilize_raw(g, c, pick=lambda u: u[0]) for g, c in draws]
    assert [_stabilize_raw(g, c) for g, c in draws] == singles
    monkeypatch.setattr(asm, "_settle", _mutant_settle(right, wrong))
    caught = 0
    for (g, c), single in zip(draws, singles):
        try:
            caught += _stabilize_raw(g, c) != single
        except asm.InternalError:
            caught += 1
    assert caught >= 10


def test_stabilize_rejects_picked_vertex_outside_unstable_list():
    g = SplitGraph(2, 1)
    c = Config((3, 0), (0,))
    with pytest.raises(PreconditionError, match="vertex 1"):
        stabilize(g, c, pick=lambda u: 1)  # stable vertex
    with pytest.raises(PreconditionError, match="vertex 99"):
        stabilize(g, c, pick=lambda u: 99)  # no such vertex


def test_stabilize_rejects_negative():
    with pytest.raises(PreconditionError):
        stabilize(G22, Config((-1, 0), (0, 0)))


def test_sorted_predicate():
    assert is_sorted_config(parse_config("3,3;2,1"))
    assert not is_sorted_config(parse_config("2,3;2,1"))
    assert not is_sorted_config(parse_config("3,3;1,2"))


def test_predicates_match_pairwise_definitions():
    def sorted_pairwise(c):
        return all(x >= y for x, y in zip(c.clique, c.clique[1:])) and all(
            x >= y for x, y in zip(c.independent, c.independent[1:])
        )

    def stable_pairwise(g, c):
        return all(x < g.clique_degree for x in c.clique) and all(
            y < g.indep_degree for y in c.independent
        )

    values = range(-2, 5)
    for n, d in [(1, 0), (2, 0), (1, 1), (1, 2), (2, 2), (3, 1)]:
        g = SplitGraph(n, d)
        for a in itertools.product(values, repeat=n):
            for b in itertools.product(values, repeat=d):
                c = Config(a, b)
                assert is_sorted_config(c) == sorted_pairwise(c)
                assert is_nonnegative(c) == all(x >= 0 for x in a + b)
                assert is_stable(g, c) == stable_pairwise(g, c)
    # boundary values: equal entries, degrees exactly, one negative entry
    g = SplitGraph(1, 0)
    assert is_stable(g, Config((0,), ())) and not is_stable(g, Config((1,), ()))
    assert is_sorted_config(Config((2, 2, 2), (1, 1)))
    assert not is_nonnegative(Config((3, 3), (0, -1)))
    assert is_stable(G22, Config((3, 3), (2, 2)))
    assert not is_stable(G22, Config((3, 3), (3, 0)))
    assert not is_stable(G22, Config((4, 0), (0, 0)))
