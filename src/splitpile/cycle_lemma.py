"""Reversible toppling operators and the cycle lemma enumeration.

Configurations here may carry negative entries; the sink height is
implicit as minus the total.  On sorted *compact* configurations
(clique spread at most n+d+1, independent spread at most n+1) the
topple-max-then-sort operators act by closed formulas, are invertible,
and satisfy Ts TK^n TI^d = Id.  The sorted quasi-stable non-negative
configurations split into the orbits of one cyclic shift sigma =
Ts TI^k TW^w, each of size n+1 with exactly one recurrent member; that
yields the closed-form count of sorted recurrent configurations.
"""

from __future__ import annotations

import math
from typing import Iterator

from .asm import (
    Config,
    InternalError,
    PreconditionError,
    SplitGraph,
    _burn_sorted,
    _check_shape,
    _require_sorted_recurrent,
    _settle,
    _topple_inplace,
    is_sorted_config,
    weakly_decreasing_tuples,
)

TS, TK, TI, TW = "Ts", "TK", "TI", "TW"
TS_INV, TK_INV, TI_INV, TW_INV = "Ts_inv", "TK_inv", "TI_inv", "TW_inv"


def spread(values: tuple[int, ...]) -> int:
    return max(values) - min(values) if values else 0


def is_compact(graph: SplitGraph, config: Config) -> bool:
    return spread(config.clique) <= graph.n + graph.d + 1 and spread(
        config.independent
    ) <= graph.n + 1


def is_quasistable(graph: SplitGraph, config: Config) -> bool:
    """Clique entries at most n+d, independent entries at most n."""
    return all(a <= graph.n + graph.d for a in config.clique) and all(
        b <= graph.n for b in config.independent
    )


def sink_height(config: Config) -> int:
    """Implicit sink value: minus the sum of all tracked entries."""
    return -(sum(config.clique) + sum(config.independent))


def weight(graph: SplitGraph, config: Config) -> int:
    """Sum over the clique part of floor(entry / (n+d+1))."""
    m = graph.n + graph.d + 1
    return sum(v // m for v in config.clique)


def _sorted_compact(graph: SplitGraph, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """The parts of a sorted compact configuration, one pass per part:
    weakly decreasing, the first entry at most n+d+1 above the last in
    the clique part and at most n+1 above it in the independent part."""
    n = graph.n
    return (
        a == tuple(sorted(a, reverse=True))
        and b == tuple(sorted(b, reverse=True))
        and (not a or a[0] - a[-1] <= n + graph.d + 1)
        and (not b or b[0] - b[-1] <= n + 1)
    )


def _require_sorted_compact(graph: SplitGraph, config: Config) -> None:
    _check_shape(graph, config)
    if not _sorted_compact(graph, config.clique, config.independent):
        if not is_sorted_config(config):
            raise PreconditionError("operators act on sorted configurations")
        raise PreconditionError("operators act on compact configurations")


def _topple_max_then_sort(graph: SplitGraph, config: Config, component: str) -> Config:
    """Defining description: topple one maximal vertex of the component
    (the sink for "s"), then sort; the verify suite checks the closed
    forms of :func:`apply` against it."""
    a = list(config.clique)
    b = list(config.independent)
    if component == "s":
        a = [x + 1 for x in a]
        b = [x + 1 for x in b]
    else:
        _topple_inplace(graph, a, b, 0 if component == "K" else graph.n)
    return Config(tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True)))


def apply(graph: SplitGraph, op: str, config: Config) -> Config:
    """Apply one operator to a sorted compact configuration.

    The input is checked to be sorted and compact; the operator acts by
    its closed form and the result is checked to be sorted and compact
    again.
    """
    _require_sorted_compact(graph, config)
    return Config(*_step(graph, op, config.clique, config.independent))


def _step(
    graph: SplitGraph, op: str, a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Closed form of one operator on the parts of a configuration already
    known to be sorted and compact; the resulting parts are checked, so
    they can feed the next step."""
    n, d = graph.n, graph.d
    m = n + d + 1
    if d == 0 and op in (TI, TI_INV):
        raise PreconditionError("TI needs at least one independent vertex")
    if op == TS:
        out = tuple([x + 1 for x in a]), tuple([x + 1 for x in b])
    elif op == TK:
        out = tuple([x + 1 for x in a[1:]]) + (a[0] - m + 1,), tuple([x + 1 for x in b])
    elif op == TI:
        out = tuple([x + 1 for x in a]), b[1:] + (b[0] - (n + 1),)
    elif op == TW:
        out = a[1:] + (a[0] - m,), b
    elif op == TS_INV:
        out = tuple([x - 1 for x in a]), tuple([x - 1 for x in b])
    elif op == TK_INV:
        out = (a[-1] + m - 1,) + tuple([x - 1 for x in a[:-1]]), tuple([x - 1 for x in b])
    elif op == TI_INV:
        out = tuple([x - 1 for x in a]), (b[-1] + n + 1,) + b[:-1]
    elif op == TW_INV:
        out = (a[-1] + m,) + a[:-1], b
    else:
        raise PreconditionError(f"unknown operator {op!r}")
    if not _sorted_compact(graph, *out):
        raise InternalError(f"{op} left the sorted compact set on {Config(a, b)}")
    return out


def apply_word(graph: SplitGraph, ops, config: Config) -> Config:
    """Apply a sequence of operators left to right.

    The input is validated once; each step's result check validates the
    input of the next step.  The steps run on the parts, and only the
    result becomes a :class:`Config`.
    """
    _require_sorted_compact(graph, config)
    a, b = config.clique, config.independent
    for op in ops:
        a, b = _step(graph, op, a, b)
    return Config(a, b)


def identity_check(graph: SplitGraph, config: Config) -> bool:
    """Ts TK^n TI^d fixes the configuration; the operators also commute
    pairwise on it."""
    word = [TS] + [TK] * graph.n + [TI] * graph.d
    if apply_word(graph, word, config) != config:
        return False
    pairs = [(TS, TK)] if graph.d == 0 else [(TS, TK), (TS, TI), (TK, TI)]
    for x, y in pairs:
        if apply_word(graph, (x, y), config) != apply_word(graph, (y, x), config):
            return False
    return True


# ---------------------------------------------------------------------------
# quasi-stable non-negative configurations and the class partition
# ---------------------------------------------------------------------------

def count_quasistable_nonneg(n: int, d: int) -> int:
    SplitGraph(n, d)  # refuses a bad shape
    return math.comb(2 * n + d, n) * math.comb(n + d, n)


def iter_quasistable_nonneg(graph: SplitGraph) -> Iterator[Config]:
    """Sorted configurations with clique entries in [0, n+d] and
    independent entries in [0, n], lexicographically decreasing, one at
    a time."""
    indep = tuple(weakly_decreasing_tuples(graph.d, graph.n))
    for a in weakly_decreasing_tuples(graph.n, graph.n + graph.d):
        for b in indep:
            yield Config(a, b)


def recurrent_representative(graph: SplitGraph, config: Config) -> Config:
    """The unique sorted recurrent configuration reachable by toppling,
    anti-toppling and sorting.

    Repeats {topple the sink, stabilize, sort}; every step stays within
    the toppling-and-permuting equivalence class.
    """
    _require_sorted_compact(graph, config)
    kdeg, ideg = graph.clique_degree, graph.indep_degree
    a, b = config.clique, config.independent
    bound = sum(map(abs, config.key())) + (graph.n + graph.d + 2) ** 2 + 16
    for _ in range(bound):
        # every iterate is sorted: its ends are its extremes, and the
        # counter-form burning test applies
        if (
            0 <= a[-1]
            and a[0] < kdeg
            and (not b or (0 <= b[-1] and b[0] < ideg))
            and _burn_sorted(graph, a, b) is not None
        ):
            return Config(a, b)
        a, b, _ = _settle(graph, [x + 1 for x in a], [y + 1 for y in b])
        a.sort(reverse=True)
        b.sort(reverse=True)
    raise InternalError(f"no recurrent representative found for {config}")


def _shift(graph: SplitGraph, config: Config) -> Config:
    """The cyclic shift sigma = Ts TI^k TW^w of the sorted quasi-stable
    non-negative configurations: every vertex gains a grain, the k
    independent entries that pass n wrap to 0 and give every clique
    vertex a grain each, and the w clique entries that pass n+d wrap.
    That is Ts, then TI while b_0 > n, then TW while a_0 > n+d, in
    closed form (TK = TW Ts), so sigma keeps the toppling class."""
    n, m = graph.n, graph.n + graph.d + 1
    k = config.independent.count(n)
    a = [(x + 1 + k) % m for x in config.clique]
    b = [(y + 1) % (n + 1) for y in config.independent]
    a.sort(reverse=True)
    b.sort(reverse=True)
    return Config(a, b)


def class_members(graph: SplitGraph, config: Config) -> list[Config]:
    """The n+1 sorted quasi-stable non-negative configurations that are
    toppling-and-permuting equivalent to a sorted recurrent one: its
    orbit v, sigma v, ..., sigma^n v under :func:`_shift`.  That
    sigma^(n+1) v = v and that the members are distinct are enforced.
    """
    n, d = graph.n, graph.d
    _require_sorted_recurrent(graph, config)
    members = [config]
    for _ in range(n):
        members.append(_shift(graph, members[-1]))
    if _shift(graph, members[-1]) != config:
        raise InternalError(f"the shift does not return to {config} after n+1 steps")
    sinks = {sink_height(m) % (n + d + 1) for m in members}
    if len(set(members)) != n + 1 or len(sinks) != n + 1:
        raise InternalError("class members are not n+1 distinct configurations")
    return members
