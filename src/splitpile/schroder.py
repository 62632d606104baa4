"""Schroder words, the configuration bijection, and the area/bounce statistics.

A Schroder word over {U, H, D} has equally many U's and D's and no prefix
with more D's than U's.  Drawn with U = (0,1), H = (1,1), D = (1,0) from
the origin, it is a Schroder path from (0,0) to (n+d, n+d) staying weakly
above the diagonal.
"""

from __future__ import annotations

from typing import Iterator

from .asm import (
    Config,
    InternalError,
    PreconditionError,
    SplitGraph,
    _check_shape,
    is_sorted_config,
)

LETTERS = frozenset("UHD")


def is_schroder(word: str) -> bool:
    """Equal U/D counts and every prefix has #D <= #U. Bad letters are rejected."""
    if set(word) - LETTERS:
        return False
    balance = 0
    for ch in word:
        if ch == "U":
            balance += 1
        elif ch == "D":
            balance -= 1
            if balance < 0:
                return False
    return balance == 0


_MOVES = {
    "U": (0, 1), "H": (1, 1), "D": (1, 0),  # words
    "N": (-1, 1), "S": (0, -1), "W": (-1, 0),  # polyomino boundaries
}


def lattice_points(steps: str, start: tuple[int, int] = (0, 0)) -> list[tuple[int, int]]:
    """The points a step string visits from ``start``, start included.

    Words step U = (0,1), H = (1,1), D = (1,0); the boundary paths of a
    sawtooth polyomino step N = (-1,1), S = (0,-1), W = (-1,0).  This is
    the one walk behind every word statistic and polyomino boundary.
    """
    x, y = start
    points = [start]
    try:
        for ch in steps:
            dx, dy = _MOVES[ch]
            x += dx
            y += dy
            points.append((x, y))
    except KeyError:
        raise PreconditionError(f"{steps!r} has letters outside UHDNSW") from None
    return points


def _require_schroder(word: str) -> None:
    """The one validation of a word at a public entry point; helpers
    handed an already-validated word skip it."""
    if not is_schroder(word):
        raise PreconditionError(f"{word!r} is not a Schroder word")


def enumerate_schroder(n: int, d: int) -> Iterator[str]:
    """All Schroder words with n U's, n D's, d H's, in lexicographic order."""
    word: list[str] = []

    def rec(u: int, dd: int, h: int, balance: int) -> Iterator[str]:
        if u == 0 and dd == 0 and h == 0:
            yield "".join(word)
            return
        # letters in alphabetical order D < H < U for lexicographic output
        if dd > 0 and balance > 0:
            word.append("D")
            yield from rec(u, dd - 1, h, balance - 1)
            word.pop()
        if h > 0:
            word.append("H")
            yield from rec(u, dd, h - 1, balance)
            word.pop()
        if u > 0:
            word.append("U")
            yield from rec(u - 1, dd, h, balance + 1)
            word.pop()

    return rec(n, n, d, 0)


def shuffles(nd: int, nh: int, nu: int) -> Iterator[str]:
    """All interleavings of D^nd, H^nh, U^nu, in lexicographic order (D < H < U)."""
    if nd < 0 or nh < 0 or nu < 0:
        raise PreconditionError("shuffle sizes must be non-negative")
    word = ["D"] * nd + ["H"] * nh + ["U"] * nu
    last = len(word) - 1
    while True:
        yield "".join(word)
        # next permutation: the rightmost ascent, swapped with the smallest
        # larger letter after it, and the tail reversed
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


def enumerate_words(n: int, d: int) -> Iterator[str]:
    """All words with n U's, n D's, d H's (no dominance condition)."""
    return shuffles(n, d, n)


# ---------------------------------------------------------------------------
# the bijection with sorted recurrent configurations
# ---------------------------------------------------------------------------

def phi(word: str) -> Config:
    """Map a Schroder word to a sorted recurrent configuration.

    a_j + 1 is the number of non-U letters after the j-th U, and b_i is
    the number of D's after the i-th H.
    """
    _require_schroder(word)
    a_rev: list[int] = []
    b_rev: list[int] = []
    non_u = 0
    ds = 0
    for ch in reversed(word):
        if ch == "U":
            a_rev.append(non_u - 1)
        else:
            if ch == "H":
                b_rev.append(ds)
            else:
                ds += 1
            non_u += 1
    config = Config(tuple(reversed(a_rev)), tuple(reversed(b_rev)))
    if not is_sorted_config(config):
        raise InternalError(f"phi({word!r}) produced an unsorted configuration")
    return config


def phi_inv(config: Config) -> str:
    """Inverse of :func:`phi`; fails on configurations that are not recurrent.

    The j-th U goes after exactly n+d-1-a_j non-U letters and the i-th H
    after exactly n-b_i D's; recurrence is equivalent to the assembled
    word being Schroder, which is checked.
    """
    n = len(config.clique)
    d = len(config.independent)
    if not is_sorted_config(config):
        raise PreconditionError("phi_inv requires a sorted configuration")
    # non-U subword: place the i-th H after n - b_i D's
    h_after = [n - b for b in config.independent]
    if any(not 0 <= x <= n for x in h_after):
        raise PreconditionError(f"{config} is not recurrent (independent part out of range)")
    non_u: list[str] = []
    # h_after is weakly increasing (b is sorted), so a single merge pass works
    idx = 0
    for ds_before in range(n + 1):
        while idx < d and h_after[idx] == ds_before:
            non_u.append("H")
            idx += 1
        if ds_before < n:
            non_u.append("D")
    # interleave U's: the j-th U goes after n+d-1-a_j non-U letters
    u_after = [n + d - 1 - a for a in config.clique]
    if any(not 0 <= x <= n + d for x in u_after):
        raise PreconditionError(f"{config} is not recurrent (clique part out of range)")
    word: list[str] = []
    uj = 0
    for seen in range(n + d + 1):
        while uj < n and u_after[uj] == seen:
            word.append("U")
            uj += 1
        if seen < n + d:
            word.append(non_u[seen])
    out = "".join(word)
    if not is_schroder(out):
        raise PreconditionError(f"{config} is not recurrent")
    return out


_MIRROR = str.maketrans("UD", "DU")


def mirror(word: str) -> str:
    """Reverse the word and swap U with D; an involution on Schroder words."""
    return word[::-1].translate(_MIRROR)


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def area(word: str) -> int:
    """Lower triangles strictly between the path and the diagonal y = x.

    A lower triangle has vertex set {(i,j), (i+1,j), (i+1,j+1)}; an H or
    D step ending at (x, y) crosses column x-1 and leaves y-x of them
    below it in that column.
    """
    _require_schroder(word)
    return sum(y - x for ch, (x, y) in zip(word, lattice_points(word)[1:]) if ch != "U")


def triangles(word: str) -> frozenset[tuple[int, int]]:
    """The set of lower triangles (i, j) between the path and the diagonal.

    area(word) is the size of this set.  Distinct words can share a
    triangle set (UDH and HUD both have none), so path comparisons use
    :func:`column_profile` instead.
    """
    _require_schroder(word)
    return frozenset(
        (x - 1, j)
        for ch, (x, y) in zip(word, lattice_points(word)[1:])
        if ch != "U"
        for j in range(x, y)
    )


def column_profile(word: str) -> tuple[tuple[int, int], ...]:
    """Per column, the (entry, exit) heights of the step crossing it.

    A D step at height h gives (h, h); an H step starting at height y
    gives (y, y+1).  The profile determines the word.
    """
    _require_schroder(word)
    pts = lattice_points(word)
    return tuple((y0, y1) for ch, (_, y0), (_, y1) in zip(word, pts, pts[1:]) if ch != "U")


def word_le(w1: str, w2: str) -> bool:
    """Geometric order: the path of w1 lies weakly below the path of w2.

    Comparing the sets of lower triangles alone cannot distinguish words
    such as UDH and HUD, so the region below the path (both half
    triangles of every cell) is what is compared; column profiles encode
    it exactly.  Only words of the same size n+d are comparable.
    """
    p1, p2 = column_profile(w1), column_profile(w2)
    if len(p1) != len(p2):
        raise PreconditionError(f"words {w1!r} and {w2!r} differ in size")
    return all(lo1 <= lo2 and hi1 <= hi2 for (lo1, hi1), (lo2, hi2) in zip(p1, p2))


# ---------------------------------------------------------------------------
# bounce
# ---------------------------------------------------------------------------

def collapse(word: str) -> str:
    """Remove all H steps; the result is a Dyck word."""
    _require_schroder(word)
    return word.replace("H", "")


def dyck_bounce(dyck: str) -> tuple[int, list[tuple[int, int]]]:
    """Classical bounce of a Dyck word, with its peak points.

    The bounce path runs from (a, a) to the origin: move west to the top
    of the U step at the current level, then south to the diagonal, and
    repeat.  Returns the sum of the x-coordinates of the diagonal touch
    points (the initial corner excluded) and the peaks, top-most first.
    """
    if set(dyck) - {"U", "D"} or not is_schroder(dyck):
        raise PreconditionError(f"{dyck!r} is not a Dyck word")
    return _schroder_peaks(dyck, lattice_points(dyck))


def schroder_peaks(word: str) -> list[tuple[int, int]]:
    """Peaks of the Schroder path, top-right first.

    The Dyck bounce peaks of the collapse sit on top of U steps; the same
    U steps of the uncollapsed word carry the Schroder peaks.
    """
    _require_schroder(word)
    return _schroder_peaks(word, lattice_points(word))[1]


def _schroder_peaks(
    word: str, points: list[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]]]:
    """The bounce of the collapse and the Schroder peaks of a valid word.

    ``points`` is ``lattice_points(word)``.  The j-th U step tops out at
    (x, y) after y - j H's, so x - y + j D's precede it: that is its
    abscissa in the collapse, and the collapse's bounce path falls from
    height j to that height.  On a word without H this is the classical
    Dyck bounce.
    """
    tops = [p for ch, p in zip(word, points[1:]) if ch == "U"]
    base = 0
    peaks: list[tuple[int, int]] = []
    j = len(tops)
    while j:
        x, y = peak = tops[j - 1]
        peaks.append(peak)
        j += x - y
        base += j
    return base, peaks


def bounce_haglund(word: str) -> int:
    """bounce of the collapse plus, for every H step, the peaks above it."""
    _require_schroder(word)
    points = lattice_points(word)
    base, peaks = _schroder_peaks(word, points)
    return base + sum(
        py > y for ch, (_, y) in zip(word, points) if ch == "H" for _, py in peaks
    )


def bounce_loehr(word: str) -> int:
    """Sum over peaks of the first-quadrant squares to their left in the same row."""
    _require_schroder(word)
    return sum(px for px, _ in _schroder_peaks(word, lattice_points(word))[1])


def schroder_bounce(word: str) -> int:
    """The bounce statistic, in Loehr's formulation.

    Haglund's formulation (:func:`bounce_haglund`) gives the same value;
    the verify suite and the tests compare the two.
    """
    return bounce_loehr(word)


def schroder_bounce_path(word: str) -> list[tuple[int, int]]:
    """Bounce path drawn directly on the Schroder path (experimental).

    Alternates west runs (blocked at the top of a U step of the word) and
    south runs (stopped on the main diagonal), inserting a (-1,-1) step
    whenever it is about to enter the anti-diagonal band of an H step.
    Returns the visited lattice points from (n+d, n+d) to (0, 0).
    """
    _require_schroder(word)
    size = word.count("U") + word.count("H")
    path = lattice_points(word)
    # upper band edge of the H starting at (a, b) is the line x + y = a + b + 2
    band_edges = {x + y + 2 for ch, (x, y) in zip(word, path) if ch == "H"}
    u_tops = {p for ch, p in zip(word, path[1:]) if ch == "U"}
    pos = (size, size)
    points = [pos]
    heading_west = True
    guard = 4 * size + 4
    while pos != (0, 0):
        # direction changes happen at the blocking point, before any band step
        if heading_west and pos in u_tops:
            heading_west = False
        elif not heading_west and pos[0] == pos[1]:
            heading_west = True
        if pos[0] + pos[1] in band_edges:
            pos = (pos[0] - 1, pos[1] - 1)
        elif heading_west:
            pos = (pos[0] - 1, pos[1])
        else:
            pos = (pos[0], pos[1] - 1)
        points.append(pos)
        guard -= 1
        if guard < 0:
            raise InternalError(f"bounce path on {word!r} did not terminate")
    return points


# ---------------------------------------------------------------------------
# compression to the complete graph
# ---------------------------------------------------------------------------

def compress(graph: SplitGraph, config: Config) -> Config:
    """Drop the independent part: phi o (remove H) o phi_inv.

    The result is a sorted recurrent configuration on S(n, 0), i.e. the
    complete graph on n+1 vertices.
    """
    _check_shape(graph, config)
    word = phi_inv(config)
    return phi(collapse(word))
