"""Abelian sandpile model on the complete split graph.

The graph S(n, d) consists of a single sink, ``n`` clique vertices
(pairwise adjacent and adjacent to the sink) and ``d`` independent
vertices (adjacent to every clique vertex and to the sink, but not to
each other).  Clique vertices and the sink have degree n + d,
independent vertices have degree n + 1.

A configuration assigns a grain count to every non-sink vertex; the sink
absorbs grains.  This module implements toppling, stabilization, Dhar's
burning test, and enumeration of sorted recurrent configurations.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, Sequence

#: Sentinel naming the sink vertex in :func:`topple`.
SINK = "sink"


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


class InternalError(RuntimeError):
    """A safety bound was exceeded; indicates a bug, not bad input."""


class Record:
    """Base of the package's small value records.

    A subclass names its fields in ``__slots__`` (``"__dict__"`` too if it
    caches properties), with their types annotated next to them.  The
    constructor takes the fields by position or by name, as a signature
    would, and sets them and ``_values``, their tuple; a subclass that
    checks its fields calls it last.  A record equals only a record of
    its own class with equal fields, hashes as that tuple, prints as
    ``Name(field=value, ...)``, pickles and copies by rebuilding itself
    from it, and refuses assignment.
    """

    __slots__ = ("_values",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass's fields follow those of the record it extends
        cls._fields += tuple(f for f in vars(cls).get("__slots__", ()) if f != "__dict__")

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            # bind the call as a signature would
            name, given, rest = type(self).__name__, len(values), fields[len(values):]
            if given > len(fields):
                raise TypeError(f"{name} takes {len(fields)} fields but {given} were given")
            for key in named:
                if key not in rest:
                    fault = f"got {key!r} twice" if key in fields else f"has no field {key!r}"
                    raise TypeError(f"{name} {fault}")
            missing = [f for f in rest if f not in named]
            if missing:
                raise TypeError(f"{name} is missing field(s) {', '.join(missing)}")
            values += tuple(named[f] for f in rest)
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)
        object.__setattr__(self, "_values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values)
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in pairs)})"

    def __reduce__(self):
        return self.__class__, self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SplitGraph(Record):
    """The complete split graph S(n, d) with a clique-side sink."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int) -> None:
        if n < 1 or d < 0:
            raise PreconditionError(f"need n >= 1 and d >= 0, got ({n}, {d})")
        super().__init__(n, d)

    @property
    def clique_degree(self) -> int:
        return self.n + self.d

    @property
    def indep_degree(self) -> int:
        return self.n + 1

    @property
    def nonsink_edges(self) -> int:
        """Edges not incident to the sink: C(n+d, 2) - C(d, 2)."""
        return math.comb(self.n + self.d, 2) - math.comb(self.d, 2)


class Config(Record):
    """Grain counts on the n clique and d independent vertices.

    Entries may be negative (used by the operator framework in
    :mod:`splitpile.cycle_lemma`); the classical sandpile operations
    below check non-negativity where they require it.
    """

    __slots__ = ("clique", "independent")

    def __init__(self, clique: Iterable[int], independent: Iterable[int]) -> None:
        clique, independent = tuple(clique), tuple(independent)
        object.__setattr__(self, "clique", clique)
        object.__setattr__(self, "independent", independent)
        object.__setattr__(self, "_values", (clique, independent))

    def key(self) -> tuple[int, ...]:
        """Concatenated entry tuple; canonical order sorts this descending."""
        return self.clique + self.independent

    def __str__(self) -> str:
        return format_config(self)


# ---------------------------------------------------------------------------
# text / JSON forms
# ---------------------------------------------------------------------------

def parse_config(text: str) -> Config:
    """Parse ``"a1,...,an;b1,...,bd"``; the ``;bs`` part may be absent or
    empty, and no other entry may be."""
    text = text.strip()
    left, _, right = text.partition(";")
    if not left.strip():
        raise PreconditionError(f"bad configuration text {text!r}: empty clique part")
    try:
        # int refuses an empty entry
        clique = tuple(int(x) for x in left.split(","))
        indep = tuple(int(x) for x in right.split(",")) if right.strip() else ()
    except ValueError as exc:
        raise PreconditionError(f"bad configuration text {text!r}") from exc
    return Config(clique, indep)


def format_config(config: Config) -> str:
    left = ",".join(str(x) for x in config.clique)
    if not config.independent:
        return left
    return left + ";" + ",".join(str(x) for x in config.independent)


def config_to_json(graph: SplitGraph, config: Config) -> dict:
    return {
        "n": graph.n,
        "d": graph.d,
        "clique": list(config.clique),
        "independent": list(config.independent),
    }


# ---------------------------------------------------------------------------
# predicates and statistics
# ---------------------------------------------------------------------------

def is_sorted_config(config: Config) -> bool:
    """Weakly decreasing within the clique part and within the independent part."""
    a, b = config.clique, config.independent
    return list(a) == sorted(a, reverse=True) and list(b) == sorted(b, reverse=True)


def is_nonnegative(config: Config) -> bool:
    return min(config.key(), default=0) >= 0


def is_stable(graph: SplitGraph, config: Config) -> bool:
    a, b = config.clique, config.independent
    return (not a or max(a) < graph.clique_degree) and (
        not b or max(b) < graph.indep_degree
    )


def height(config: Config) -> int:
    """Total number of grains."""
    return sum(config.clique) + sum(config.independent)


def level(graph: SplitGraph, config: Config) -> int:
    """Height minus the number of edges not incident to the sink."""
    return height(config) - graph.nonsink_edges


def _check_shape(graph: SplitGraph, config: Config) -> None:
    if len(config.clique) != graph.n or len(config.independent) != graph.d:
        raise PreconditionError(
            f"configuration {format_config(config)} does not fit S({graph.n},{graph.d})"
        )


# ---------------------------------------------------------------------------
# toppling
# ---------------------------------------------------------------------------

def topple(graph: SplitGraph, config: Config, vertex) -> Config:
    """Topple one vertex: it donates a grain to each neighbour.

    ``vertex`` is :data:`SINK` (always allowed; grains flow in from
    outside the tracked configuration) or an integer in ``range(n + d)``
    (0..n-1 clique, n..n+d-1 independent), which must be unstable.
    Grains sent to the sink vanish.
    """
    _check_shape(graph, config)
    n, d = graph.n, graph.d
    a = list(config.clique)
    b = list(config.independent)
    if vertex == SINK:
        return Config([x + 1 for x in a], [x + 1 for x in b])
    try:
        v = operator.index(vertex)
    except TypeError:
        raise PreconditionError(f"vertex {vertex!r} is neither SINK nor an integer") from None
    if not 0 <= v < n + d:
        raise PreconditionError(f"vertex {vertex!r} out of range for S({n},{d})")
    if v < n and a[v] < graph.clique_degree:
        raise PreconditionError(f"clique vertex v{v + 1} is stable; cannot topple")
    if v >= n and b[v - n] < graph.indep_degree:
        raise PreconditionError(f"independent vertex w{v - n + 1} is stable; cannot topple")
    _topple_inplace(graph, a, b, v)
    return Config(a, b)


class StabilizationTrace(Record):
    """Result of :func:`stabilize`.

    ``odometer`` lists toppling counts for v1..vn, w1..wd and finally the
    sink (which stabilize itself never topples, so the last entry is 0).
    """

    __slots__ = ("final", "odometer")
    final: Config
    odometer: tuple[int, ...]


def _topple_inplace(graph: SplitGraph, a: list[int], b: list[int], v: int) -> None:
    """Topple vertex ``v`` once; it gets no grain from itself."""
    a[:] = [x + 1 for x in a]
    if v < graph.n:
        a[v] -= graph.clique_degree + 1
        b[:] = [x + 1 for x in b]
    else:
        b[v - graph.n] -= graph.indep_degree


def _toppling_bound(graph: SplitGraph, a: Sequence[int], b: Sequence[int]) -> int:
    """More topplings than this in one stabilization indicate a bug."""
    total = sum(x for x in a if x > 0) + sum(x for x in b if x > 0)
    return (total + 1) * (graph.n + graph.d + 1) ** 2


def _settle(
    graph: SplitGraph, a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """Counter form of stabilization: the final clique and independent
    parts and the odometer of v1..vn, w1..wd, without the sink.

    After K clique and I independent topplings in all, clique vertex v
    holds a_v + K + I - (n+d+1) t_v and independent vertex w holds
    b_w + K - (n+1) t_w, so each pass sets every count t to the least
    that leaves its vertex stable at the current totals, from K = I = 0
    until the totals repeat.  The counts grow with the totals and the
    odometer leaves every vertex stable at its own totals, so no pass
    exceeds it; the fixed point leaves every vertex stable, so by the
    least action principle (Fey, Levine and Peres 2010, Lemma 2.1) it is
    the odometer of every legal toppling order.
    """
    kdeg, ideg = graph.clique_degree, graph.indep_degree
    bound = _toppling_bound(graph, a, b)
    k = i = 0
    while True:
        s = k + i
        tk = [(x + s - kdeg) // (kdeg + 1) + 1 if x + s >= kdeg else 0 for x in a]
        ti = [(y + k - ideg) // ideg + 1 if y + k >= ideg else 0 for y in b]
        totals = (sum(tk), sum(ti))
        if totals == (k, i):
            break
        k, i = totals
        if k + i > bound:
            raise InternalError(f"stabilization exceeded {bound} topplings")
    final_a = [x + s - (kdeg + 1) * t for x, t in zip(a, tk)]
    final_b = [y + k - ideg * t for y, t in zip(b, ti)]
    return final_a, final_b, tk + ti


def _stabilize_raw(
    graph: SplitGraph,
    config: Config,
    pick: Callable[[list[int]], int] | None = None,
) -> StabilizationTrace:
    """Stabilize without the non-negativity precondition: the body of
    :func:`stabilize`, and the tests' reference runs on configurations
    with negative entries.

    Without ``pick`` the counter form :func:`_settle` gives the final
    configuration and the odometer.  With ``pick`` every step is one
    toppling of the vertex it returns, which must be one of the unstable
    vertices; that simulation is the reference the tests compare the
    counter form against.
    """
    if pick is None:
        a, b, odometer = _settle(graph, config.clique, config.independent)
        return StabilizationTrace(Config(a, b), tuple(odometer) + (0,))
    n, d = graph.n, graph.d
    kdeg, ideg = graph.clique_degree, graph.indep_degree
    a = list(config.clique)
    b = list(config.independent)
    odometer = [0] * (n + d)
    bound = _toppling_bound(graph, a, b)
    steps = 0
    while True:
        unstable = [i for i, x in enumerate(a) if x >= kdeg]
        unstable += [n + j for j, x in enumerate(b) if x >= ideg]
        if not unstable:
            break
        v = pick(unstable)
        if v not in unstable:
            raise PreconditionError(
                f"pick returned vertex {v!r}, not one of the unstable vertices {unstable}"
            )
        _topple_inplace(graph, a, b, v)
        odometer[v] += 1
        steps += 1
        if steps > bound:
            raise InternalError(f"stabilization exceeded {bound} topplings")
    return StabilizationTrace(Config(a, b), tuple(odometer) + (0,))


def stabilize(
    graph: SplitGraph,
    config: Config,
    pick: Callable[[list[int]], int] | None = None,
) -> StabilizationTrace:
    """Topple unstable vertices until none remain.

    The abelian property guarantees the result does not depend on the
    toppling order; ``pick`` selects the next unstable vertex from the
    candidate list, which then topples once, and exists so tests can
    exercise different orders.  A vertex outside the list is a
    :class:`PreconditionError`.
    """
    _check_shape(graph, config)
    if not is_nonnegative(config):
        raise PreconditionError("stabilize requires non-negative grain counts")
    return _stabilize_raw(graph, config, pick)


# ---------------------------------------------------------------------------
# Dhar's burning test
# ---------------------------------------------------------------------------

def _burn_sorted(
    graph: SplitGraph,
    a: Sequence[int],
    b: Sequence[int],
    clique_first: bool = True,
) -> tuple[int, ...] | None:
    """Counter form of the burning test for sorted stable configurations.

    ``a`` and ``b`` are the clique and independent parts, passed as plain
    tuples or lists.  Burning a sorted configuration proceeds in rounds
    that always burn a prefix of the not-yet-burnt vertices of each part,
    because every unburnt vertex of a part has received the same number
    of grains.  Each round burns one part and then the other, clique
    first or independent first.  Returns the flattened block sizes of the
    rounds (clique, independent) resp. (independent, clique), or None if
    burning stalls (not recurrent).
    """
    n, d = graph.n, graph.d
    bk = bi = 0  # burnt clique / independent counts
    sizes: list[int] = []
    while bk < n or bi < d:
        new_k = new_i = 0
        if not clique_first:
            while bi + new_i < d and b[bi + new_i] >= n - bk:
                new_i += 1
            bi += new_i
        # clique vertex threshold after the sink and bk + bi burnings
        while bk + new_k < n and a[bk + new_k] >= n + d - 1 - bk - bi:
            new_k += 1
        bk += new_k
        if clique_first:
            while bi + new_i < d and b[bi + new_i] >= n - bk:
                new_i += 1
            bi += new_i
        if new_k == 0 and new_i == 0:
            return None
        sizes += (new_k, new_i) if clique_first else (new_i, new_k)
    return tuple(sizes)


def _require_stable(graph: SplitGraph, config: Config) -> None:
    """The domain of the burning test: right shape, non-negative, stable."""
    _check_shape(graph, config)
    if not is_nonnegative(config):
        raise PreconditionError("recurrence test requires non-negative grain counts")
    if not is_stable(graph, config):
        raise PreconditionError("recurrence test requires a stable configuration")


def _require_sorted_recurrent(
    graph: SplitGraph, config: Config, clique_first: bool = True
) -> tuple[int, ...]:
    """The one test of the domain of the parallel toppling processes,
    the polyomino map and the cycle-lemma classes: right shape,
    non-negative, stable, sorted and recurrent, each fault with one
    message.  Returns the block sizes of the counter-form burn, clique
    first or independent first."""
    _require_stable(graph, config)
    if not is_sorted_config(config):
        raise PreconditionError(
            f"{config} is not sorted: it needs weakly decreasing clique and independent parts"
        )
    sizes = _burn_sorted(graph, config.clique, config.independent, clique_first)
    if sizes is None:
        raise PreconditionError(f"{config} is not recurrent")
    return sizes


def is_recurrent(graph: SplitGraph, config: Config) -> bool:
    """Dhar's burning test for a stable configuration.

    Permuting the clique vertices, or the independent ones, is an
    automorphism of S(n, d), so the sorted rearrangement of ``config``
    has the same verdict, and the counter form :func:`_burn_sorted`
    gives it.
    """
    _require_stable(graph, config)
    a = tuple(sorted(config.clique, reverse=True))
    b = tuple(sorted(config.independent, reverse=True))
    return _burn_sorted(graph, a, b) is not None


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------

def weakly_decreasing_tuples(length: int, max_value: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing tuples over 0..max_value, in descending lex order."""
    return combinations_with_replacement(range(max_value, -1, -1), length)


def iter_sorted_recurrent_groups(
    graph: SplitGraph,
) -> Iterator[tuple[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]]]:
    """Sorted recurrent configurations grouped by clique part.

    For each weakly decreasing clique part ``a``, in descending lex order,
    yields ``(a, rows)`` where ``rows`` lists the pairs ``(b, sizes)``, in
    descending lex order of ``b``, of the independent parts that make a
    recurrent configuration with ``a`` and the CTI block sizes of its
    burning test.  Clique parts without such a ``b`` are skipped, so no
    group is empty.  The rows are built from their burn blocks by
    :func:`_rows_from_blocks`, so nothing is burnt and the cost grows
    with the output, not with the sorted stable candidates.
    """
    n, d = graph.n, graph.d
    for a in weakly_decreasing_tuples(n, graph.clique_degree - 1):
        rows = _rows_from_blocks(n, d, a, 0, 0, graph.indep_degree - 1, {})
        if rows:
            rows.sort(reverse=True)
            yield a, rows


def _rows_from_blocks(
    n: int, d: int, a: tuple[int, ...], bk: int, bi: int, hi: int, memo: dict
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs ``(b[bi:], sizes)`` that end the burning of a recurrent
    configuration ``(a; b)`` of S(n, d) from a round that starts with
    ``bk`` clique and ``bi`` independent vertices burnt and no unburnt
    independent vertex above ``hi`` grains, built from the CTI burn blocks
    of :func:`_burn_sorted`.  The whole configuration starts at
    ``(0, 0, n)``; ``memo`` holds the rows of each start for one ``a``,
    so that they are built once and prefixed by each block.

    The round's clique step is fixed by ``a``: it burns ``a[k]`` while
    ``a[k] >= n + d - 1 - bk - bi``.  The ``m`` independent vertices it
    then burns form a weakly decreasing run in ``[n - k, hi]``, and the
    next round starts below that run, with ``hi = n - k - 1``.  Once every
    clique vertex is burnt the rest of ``b`` burns.  Otherwise the next
    round must burn ``a[k]``, or burning stalls, so
    ``m >= n + d - 1 - k - bi - a[k]``; every branch therefore ends in a
    recurrent configuration.
    """
    key = (bk, bi, hi)
    if key in memo:
        return memo[key]
    top = n + d - 1
    k = bk
    while k < n and a[k] >= top - bk - bi:
        k += 1
    burnt, lo = k - bk, n - k
    if k == n:
        rows = [(run, (burnt, d - bi)) for run in weakly_decreasing_tuples(d - bi, hi)]
    else:
        rows = []
        for m in range(max(0, top - k - bi - a[k]), d - bi + 1):
            rest = _rows_from_blocks(n, d, a, k, bi + m, lo - 1, memo)
            if not rest:
                continue
            block = (burnt, m)
            for run in combinations_with_replacement(range(hi, lo - 1, -1), m):
                rows += [(run + b, block + sizes) for b, sizes in rest]
    memo[key] = rows
    return rows


def enumerate_sorted_recurrent(graph: SplitGraph) -> Iterator[Config]:
    """Sorted recurrent configurations, lexicographically decreasing, one at a time.

    The flattened groups of :func:`iter_sorted_recurrent_groups`: only
    recurrent configurations become a :class:`Config`, and nothing is kept
    between calls, so memory grows with one group, not with the count.
    A caller that reads a shape many times keeps its own tuple; equal
    independent parts are one tuple, so it holds each part once.
    """
    parts: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a, rows in iter_sorted_recurrent_groups(graph):
        for b, _ in rows:
            yield Config(a, parts.setdefault(b, b))


def sorted_recurrent_count(n: int, d: int) -> int:
    """Closed-form count of sorted recurrent configurations on S(n, d).

    Both printed forms are computed and must agree:
    C(2n+d, n) C(n+d, n) / (n+1)  ==  C(2n+1, n) C(2n+d, d) / (2n+1).
    """
    SplitGraph(n, d)  # refuses a bad shape
    num1 = math.comb(2 * n + d, n) * math.comb(n + d, n)
    if num1 % (n + 1):
        raise InternalError("count formula is not divisible by n+1")
    form1 = num1 // (n + 1)
    num2 = math.comb(2 * n + 1, n) * math.comb(2 * n + d, d)
    if num2 % (2 * n + 1):
        raise InternalError("count formula is not divisible by 2n+1")
    form2 = num2 // (2 * n + 1)
    if form1 != form2:
        raise InternalError("the two closed forms disagree")
    return form1
