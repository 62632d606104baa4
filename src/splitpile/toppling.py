"""Parallel CTI and ITC toppling of sorted recurrent configurations.

Both processes start by toppling the sink and then alternate parallel
topplings of the two vertex classes until the configuration is stable
again: CTI topples unstable Clique vertices Then Independent ones each
round, ITC the other way around.  On a recurrent configuration every
vertex topples exactly once and the original configuration returns.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations_with_replacement
from typing import Iterable, Iterator

from .asm import (
    Config,
    PreconditionError,
    Record,
    SplitGraph,
    _require_sorted_recurrent,
)

CTI = "CTI"
ITC = "ITC"


class ToppleTrace(Record):
    """Rounds of a parallel toppling run.

    Each round is a pair of vertex index tuples (0-based within their
    part): for CTI the pair is (clique toppled, independent toppled),
    for ITC it is (independent toppled, clique toppled).  The final
    round may have an empty second set; no round is empty entirely.
    """

    __slots__ = ("mode", "rounds")
    mode: str
    rounds: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def sizes(self) -> tuple[int, ...]:
        """Flattened block sizes (p1, q1, ..., pt, qt) resp. (q'1, p'1, ...)."""
        out: list[int] = []
        for first, second in self.rounds:
            out.append(len(first))
            out.append(len(second))
        return tuple(out)


def wtopple(trace: ToppleTrace) -> int:
    """Time-weighted toppling count: sum of i * (vertices toppled in round i)."""
    return wtopple_of_sizes(trace.sizes())


def wtopple_of_sizes(sizes: tuple[int, ...]) -> int:
    """wtopple from a flattened block-size sequence."""
    return sum(i * (sizes[2 * i - 2] + sizes[2 * i - 1]) for i in range(1, len(sizes) // 2 + 1))


def _blocks(sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Consecutive index blocks 0..s1-1, s1..s1+s2-1, ... of the given sizes."""
    return [tuple(range(end - size, end)) for size, end in zip(sizes, accumulate(sizes))]


def _run_parallel(graph: SplitGraph, config: Config, clique_first: bool) -> ToppleTrace:
    # every round of a sorted configuration burns a prefix of each part's
    # unburnt vertices, so the counter form's block sizes give the rounds
    sizes = _require_sorted_recurrent(graph, config, clique_first)
    rounds = tuple(zip(_blocks(sizes[0::2]), _blocks(sizes[1::2])))
    return ToppleTrace(CTI if clique_first else ITC, rounds)


def topple_cti(graph: SplitGraph, config: Config) -> ToppleTrace:
    """Clique-Then-Independent rounds after a sink toppling."""
    return _run_parallel(graph, config, clique_first=True)


def topple_itc(graph: SplitGraph, config: Config) -> ToppleTrace:
    """Independent-Then-Clique rounds after a sink toppling."""
    return _run_parallel(graph, config, clique_first=False)


def cti_sizes(graph: SplitGraph, config: Config) -> tuple[int, ...]:
    """Sizes of the CTI trace without materializing vertex sets."""
    return _require_sorted_recurrent(graph, config, clique_first=True)


def itc_sizes(graph: SplitGraph, config: Config) -> tuple[int, ...]:
    """Sizes of the ITC trace without materializing vertex sets."""
    return _require_sorted_recurrent(graph, config, clique_first=False)


# ---------------------------------------------------------------------------
# ITC toppling sequences
# ---------------------------------------------------------------------------

class ItcSequence(Record):
    """The pair [(q'_1..q'_t), (p'_1..p'_t)] of round sizes of an ITC run.

    The sink toppling is round 0: q'_0 = 0 and p'_0 = 1 are implicit.
    """

    __slots__ = ("b", "a")

    def __init__(self, b: Iterable[int], a: Iterable[int]) -> None:
        # b counts the independent, a the clique vertices of each round
        b, a = tuple(b), tuple(a)
        if len(a) != len(b) or not a:
            raise PreconditionError("sequence parts must be non-empty and equally long")
        super().__init__(b, a)

    @property
    def length(self) -> int:
        return len(self.a)

    def blocks(self) -> list[tuple[int, int, int]]:
        """The letter block (a_{i-1} - 1, b_i, a_i) of each round i >= 1, with a_0 = 1.

        Round i of a fiber word (in mirrored form) shuffles a_{i-1} - 1 D's,
        b_i H's and a_i U's: the D's are the clique vertices toppled in
        round i - 1, less the one that separates the rounds.  A sequence
        that no configuration realizes raises :class:`PreconditionError`:
        one with a negative count, a round before the last without a
        clique vertex, an empty last round, or no clique vertex at all.
        """
        a, b = self.a, self.b
        positive_head = all(x > 0 for x in a[:-1])
        if not (positive_head and a[-1] + b[-1] > 0 and any(a) and min(a + b) >= 0):
            raise PreconditionError(f"sequence {self} is not realizable")
        return list(zip((x - 1 for x in (1,) + a[:-1]), b, a))


def itc_sequence_of_sizes(sizes: tuple[int, ...]) -> ItcSequence:
    """Regroup an ITC trace's sizes into the [(q'), (p')] pair."""
    return ItcSequence(sizes[0::2], sizes[1::2])


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions in lexicographic order: the gaps between
    parts - 1 weakly increasing cut points in 0..total."""
    if parts == 0 or total < 0:
        if parts == total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (total,)))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into ``parts`` strictly positive parts."""
    for c in _weak_compositions(total - parts, parts):
        yield tuple(x + 1 for x in c)


def enumerate_itc_sequences(n: int, d: int) -> dict[int, list[ItcSequence]]:
    """All realizable ITC toppling sequences on S(n, d), grouped by length.

    The clique counts form a weak composition of n that is positive
    before the last spot, the independent counts a weak composition of
    d, and the final round is non-empty (length 1 is exactly [(d), (n)]).
    """
    SplitGraph(n, d)  # refuses a bad shape
    out: dict[int, list[ItcSequence]] = {}
    for k in range(1, n + 2):
        found: list[ItcSequence] = []
        for a_last in range(0, n - (k - 1) + 1):
            for head in compositions(n - a_last, k - 1):
                a = head + (a_last,)
                for b in _weak_compositions(d, k):
                    if b[-1] + a_last > 0:
                        found.append(ItcSequence(b, a))
        if found:
            out[k] = found
    return out


def all_itc_sequences(n: int, d: int) -> list[ItcSequence]:
    grouped = enumerate_itc_sequences(n, d)
    return [seq for k in sorted(grouped) for seq in grouped[k]]


def canonical_config(graph: SplitGraph, seq: ItcSequence) -> Config:
    """A sorted recurrent configuration whose ITC sequence is ``seq``.

    Vertices toppled in the same round share a grain count; the counts
    follow from how many earlier topplings they must survive.  The
    result is validated by replay; a sequence that no configuration
    realizes raises :class:`PreconditionError`.
    """
    n, d = graph.n, graph.d
    if sum(seq.a) != n or sum(seq.b) != d:
        raise PreconditionError(f"sequence {seq} does not fit S({n},{d})")
    k = seq.length
    a_full = (1,) + seq.a  # a_0 = 1 (the sink)
    b_full = (0,) + seq.b  # b_0 = 0
    clique: list[int] = []
    indep: list[int] = []
    for j in range(1, k + 1):
        prior = sum(a_full[:j]) + sum(b_full[:j])
        clique.extend([n + d - prior - b_full[j]] * a_full[j])
        indep.extend([n + 1 - sum(a_full[:j])] * b_full[j])
    candidate = Config(tuple(clique), tuple(indep))
    try:
        realized = itc_sequence_of_sizes(itc_sizes(graph, candidate)) == seq
    except PreconditionError:
        realized = False
    if realized:
        return candidate
    raise PreconditionError(f"sequence {seq} is not realizable on S({n},{d})")


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _comb(m: int, k: int) -> int:
    if k < 0 or m < 0 or k > m:
        return 0
    return math.comb(m, k)


def count_itc(n: int, d: int, k: int | None = None) -> int:
    """Number of ITC toppling sequences on S(n, d), per length or in total."""
    SplitGraph(n, d)  # refuses a bad shape
    if k is None:
        return sum(count_itc(n, d, j) for j in range(1, n + 2))
    if k < 1:
        raise PreconditionError("sequence length must be >= 1")
    return _comb(d + k - 2, d - 1) * _comb(n - 1, k - 2) + _comb(d + k - 1, d) * _comb(
        n - 1, k - 1
    )


def count_ehkk(n: int, d: int, k: int | None = None) -> int:
    """Number of (composition, weak composition) pairs in the explicit
    q,t-Schroder sum, per length or in total; the total matches count_itc."""
    SplitGraph(n, d)  # refuses a bad shape
    if k is None:
        return sum(count_ehkk(n, d, j) for j in range(1, n + 1))
    if k < 1:
        raise PreconditionError("length must be >= 1")
    return _comb(n - 1, k - 1) * _comb(d + k, d)
