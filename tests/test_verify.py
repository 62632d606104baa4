import tracemalloc
from unittest.mock import ANY

import pytest

from splitpile import cycle_lemma as cl
from splitpile import polyomino as po
from splitpile import qtpoly as qt
from splitpile import schroder as sc
from splitpile import toppling as tp
from splitpile import verify as vf
from splitpile.asm import (
    Config,
    PreconditionError,
    SplitGraph,
    StabilizationTrace,
    enumerate_sorted_recurrent,
    format_config,
    sorted_recurrent_count,
)
from splitpile.verify import (
    CONJECTURE_CHECKS,
    SUITES,
    _rows,
    check_cycle_lemma,
    check_fiber_intervals,
    list_tasks,
    run_suite,
    run_task,
)


def test_suites_all_pass_small():
    for suite in ("bijections", "theorems", "cycle-lemma", "conjectures", "appendix"):
        reports = list(run_suite(suite, 2, 2))
        assert reports, suite
        assert all(r.ok for r in reports), [r.to_json() for r in reports if not r.ok]


def test_all_suite_is_union():
    direct = [r.check for r in run_suite("all", 1, 1)]
    union = [
        r.check
        for s in ("bijections", "theorems", "cycle-lemma", "conjectures", "appendix")
        for r in run_suite(s, 1, 1)
    ]
    assert direct == union


def test_tasks_are_deterministic_and_runnable():
    tasks = list_tasks("conjectures", 2, 1)
    assert tasks == list_tasks("conjectures", 2, 1)
    for t in tasks:
        rep = run_task(t)
        assert rep.ok
        assert rep.params
        assert rep.seconds >= 0


def test_unknown_suite_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="unknown suite 'bogus'"):
        list_tasks("bogus", 2, 1)


@pytest.mark.parametrize("args", [("bogus", 2, 1), ("theorems", 0, 1)], ids=["suite", "range"])
def test_run_suite_refuses_bad_arguments_at_the_call(args):
    # the call raises, not the first report asked for
    with pytest.raises(PreconditionError):
        run_suite(*args)


def test_run_suite_runs_each_check_when_its_report_is_asked_for(monkeypatch):
    ran = []
    monkeypatch.setattr(vf, "run_task", lambda task: ran.append(task) or run_task(task))
    reports = run_suite("cycle-lemma", 1, 0)
    assert ran == []
    first = next(reports)
    assert [name for name, _ in ran] == [first.check] == ["operator_laws"]
    assert [r.check for r in reports] == ["weight_laws", "class_partition"]
    assert len(ran) == 3


def test_parallel_matches_serial():
    serial = run_suite("bijections", 2, 1)
    parallel = run_suite("bijections", 2, 1, jobs=2)
    assert [(r.check, r.params, r.status) for r in serial] == [
        (r.check, r.params, r.status) for r in parallel
    ]


def test_conjecture_names_registered():
    assert CONJECTURE_CHECKS == {
        "qt_cti_equals_itc",
        "qt_cti_equals_schroder",
        "bistatistic_bijection_exists",
    }
    assert "all" in SUITES


def test_failed_reports_carry_counterexamples(monkeypatch):
    # a check fails exactly when it returns a counterexample payload
    monkeypatch.setitem(vf._CHECK_FUNCS, "demo", lambda n: {"config": "0"} if n else None)
    rep = run_task(("demo", {"n": 1}))
    assert rep.status == "fail" and not rep.ok
    assert rep.to_json()["counterexample"] == {"config": "0"}
    ok = run_task(("demo", {"n": 0}))
    assert ok.status == "pass" and ok.ok
    assert "counterexample" not in ok.to_json()


def test_cycle_lemma_check_holds_one_class_at_a_time():
    # verify keeps each shape's configurations for all its checks, so they
    # are read first
    _rows(4, 3)
    tracemalloc.start()
    try:
        assert check_cycle_lemma(4, 3) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# each fault wraps the real cycle_lemma function it replaces
def _representative_returns_its_input(real):
    return lambda graph, config: config


def _member_duplicated(real):
    def members(graph, v):
        *head, _last = real(graph, v)
        return head + head[:1]

    return members


def _member_outside_the_window(real):
    def members(graph, v):
        *head, last = real(graph, v)
        top = last.clique[0] + graph.n + graph.d + 1
        return head + [Config((top,) + last.clique[1:], last.independent)]

    return members


def _member_swapped_from_the_next_class(real):
    g = SplitGraph(2, 2)
    first, second = tuple(enumerate_sorted_recurrent(g))[:2]
    stranger = real(g, second)[-1]

    def members(graph, v):
        *head, last = real(graph, v)
        return head + [stranger if v == first else last]

    return members


def _count_off_by_one(real):
    return lambda n, d: real(n, d) + 1


@pytest.mark.parametrize(
    "name, fault, key",
    [
        ("recurrent_representative", _representative_returns_its_input, "representative"),
        ("class_members", _member_duplicated, "config"),
        ("class_members", _member_outside_the_window, "window"),
        ("class_members", _member_swapped_from_the_next_class, "representative"),
        ("count_quasistable_nonneg", _count_off_by_one, "formula"),
    ],
)
def test_cycle_lemma_check_reports_each_fault(monkeypatch, name, fault, key):
    assert check_cycle_lemma(2, 2) is None
    monkeypatch.setattr(cl, name, fault(getattr(cl, name)))
    counterexample = check_cycle_lemma(2, 2)
    assert counterexample is not None and key in counterexample


def test_cycle_lemma_check_needs_v_in_its_class(monkeypatch):
    # the class of the next recurrent configuration passes every member
    # clause but the representative one; v's absence is reported first
    g = SplitGraph(2, 2)
    first, second = tuple(enumerate_sorted_recurrent(g))[:2]
    real = cl.class_members
    monkeypatch.setattr(
        cl, "class_members", lambda graph, v: real(graph, second if v == first else v)
    )
    assert check_cycle_lemma(2, 2) == {"config": format_config(first)}


def test_fiber_check_groups_the_words_verify_holds(monkeypatch):
    _rows(3, 2)

    def phi_inv(config):
        raise AssertionError(f"phi_inv({format_config(config)}) converted again")

    monkeypatch.setattr(sc, "phi_inv", phi_inv)
    assert check_fiber_intervals(3, 2) is None


def test_itc_checks_burn_each_configuration_once(monkeypatch):
    # the five checks that read ITC sizes take them from the shape's rows
    calls = []
    real = tp.itc_sizes
    monkeypatch.setattr(tp, "itc_sizes", lambda graph, c: calls.append(c) or real(graph, c))
    _rows.cache_clear()
    for check in ("bounce_equals_wtopple", "peaks_coincide", "polyomino_statistics",
                  "itc_sequence_description", "fiber_intervals"):
        assert run_task((check, {"n": 3, "d": 2})).ok, check
    assert len(calls) == sorted_recurrent_count(3, 2)


# each fault wraps the real function a check looks up when it runs
def _plus_one(real):
    return lambda *args: real(*args) + 1


def _plus_one_polynomial(real):
    return lambda *args: real(*args) + qt.QtPolynomial.monomial(0, 0)


def _first_peak_dropped(real):
    return lambda word: real(word)[1:]


def _first_sequence_dropped(real):
    return lambda n, d: real(n, d)[1:]


def _first_fiber_word_dropped(real):
    return lambda seq: real(seq)[1:]


def _stabilize_topples_nothing(real):
    return lambda graph, config: StabilizationTrace(config, (0,) * (graph.n + graph.d + 1))


_SHAPE = {"n": 2, "d": 2}


# (module, attribute, fault, report, params, expected counterexample keys)
_CERTIFICATE_CASES = [
    (sc, "area", _plus_one, "area_equals_level", _SHAPE, {"config": ANY, "word": ANY}),
    (sc, "schroder_bounce", _plus_one, "bounce_equals_wtopple", _SHAPE,
     {"config": ANY, "word": ANY}),
    (sc, "schroder_peaks", _first_peak_dropped, "peaks_coincide", _SHAPE,
     {"got": ANY, "expected": ANY}),
    (po, "area", _plus_one, "polyomino_statistics", _SHAPE, {"area": ANY}),
    (tp, "all_itc_sequences", _first_sequence_dropped, "itc_sequence_description", _SHAPE,
     {"only_one_side": ANY}),
    (vf, "sorted_recurrent_count", _plus_one, "recurrent_count", _SHAPE,
     {"enumerated": ANY, "formula": ANY}),
    (qt, "egge_sum", _plus_one_polynomial, "itc_identity_chain", _SHAPE,
     {"method": "egge_sum"}),
    (qt, "f_cti", _plus_one_polynomial, "qt_cti_equals_itc", _SHAPE, {"difference": ANY}),
    (tp, "count_itc", _plus_one, "sequence_counts", _SHAPE, {"k": ANY}),
    (qt, "fiber_words", _first_fiber_word_dropped, "fiber_intervals", _SHAPE,
     {"construction_mismatch": True}),
    (qt, "q_multinomial", _plus_one_polynomial, "hexagon_multinomial", {"limit": 4},
     {"abc": ANY}),
    (vf, "stabilize", _stabilize_topples_nothing, "burning_returns_start", _SHAPE,
     {"config": ANY}),
]


@pytest.mark.parametrize(
    "owner, name, fault, check, params, expected",
    _CERTIFICATE_CASES,
    ids=[case[3] for case in _CERTIFICATE_CASES],
)
def test_each_check_reports_its_certificate(monkeypatch, owner, name, fault, check, params, expected):
    task = (check, dict(params))
    assert run_task(task).ok
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    report = run_task(task)
    assert report.status == "fail"
    assert {key: report.counterexample[key] for key in expected} == expected
