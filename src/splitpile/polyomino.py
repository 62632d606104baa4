"""Sawtooth polyominoes and their toppling bounce paths.

A sawtooth polyomino of dimension (n+1, d) is a pair of paths from
(n+1, d) to the origin that touch only at their endpoints: the upper
path takes nw = (-1,1) and s = (0,-1) steps, the lower path w = (-1,0)
and s steps.  Words with n U's, n D's and d H's map onto candidate
pairs, landing on actual polyominoes exactly for Schroder words; sorted
recurrent configurations map onto them directly.
"""

from __future__ import annotations

from functools import cached_property

from .asm import (
    Config,
    InternalError,
    PreconditionError,
    Record,
    SplitGraph,
    _require_sorted_recurrent,
)
from . import schroder
from .toppling import CTI, ITC


class SawtoothPolyomino(Record):
    """Upper/lower step strings from (n+1, d) down to the origin.

    ``upper`` is over "NS" (N = nw step, S = s step), ``lower`` over
    "WS".  Step counts and endpoints are checked on construction;
    disjointness is a separate predicate (:func:`is_valid`) so that
    non-Schroder words still produce an inspectable object.
    """

    __slots__ = ("n", "d", "upper", "lower", "__dict__")

    def __init__(self, n: int, d: int, upper: str, lower: str) -> None:
        if n < 1 or d < 0:
            raise PreconditionError(f"bad dimension ({n + 1}, {d})")
        if not (isinstance(upper, str) and isinstance(lower, str)):
            raise PreconditionError("upper and lower are step strings")
        if set(upper) - set("NS") or set(lower) - set("WS"):
            raise PreconditionError("upper is over NS and lower over WS")
        if upper.count("N") != n + 1 or upper.count("S") != n + 1 + d:
            raise PreconditionError("upper path needs n+1 nw and n+1+d s steps")
        if lower.count("W") != n + 1 or lower.count("S") != d:
            raise PreconditionError("lower path needs n+1 w and d s steps")
        super().__init__(n, d, upper, lower)

    @property
    def dim(self) -> tuple[int, int]:
        return (self.n + 1, self.d)

    @cached_property
    def _points(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """Both boundaries walked once.  cached_property stores into the
        instance ``__dict__``, which the record allows and which equality,
        hashing and JSON never read."""
        start = (self.n + 1, self.d)
        return (
            tuple(schroder.lattice_points(self.upper, start)),
            tuple(schroder.lattice_points(self.lower, start)),
        )

    @cached_property
    def _boundary_sets(self) -> tuple[frozenset, frozenset] | None:
        """Both boundaries as point sets, or None when they share a point
        besides the two endpoints: validity is decided once, and cached
        like ``_points``."""
        upper, lower = map(frozenset, self._points)
        if upper & lower != {(self.n + 1, self.d), (0, 0)}:
            return None
        return upper, lower

    def upper_points(self) -> list[tuple[int, int]]:
        return list(self._points[0])

    def lower_points(self) -> list[tuple[int, int]]:
        return list(self._points[1])

    def to_json(self) -> dict:
        return {"dim": [self.n + 1, self.d], "upper": self.upper, "lower": self.lower}


def sts(word: str) -> SawtoothPolyomino:
    """Map a word of n U's, n D's and d H's to its path pair.

    Upper: an initial nw step, then nw per U and s per non-U, then a
    final s step.  Lower: s per H and w per D in word order, then a
    final w step.  The pair is a sawtooth polyomino iff the word is
    Schroder.
    """
    if set(word) - schroder.LETTERS:
        raise PreconditionError(f"word {word!r} has letters outside UHD")
    n, dn, d = word.count("U"), word.count("D"), word.count("H")
    if n != dn:
        raise PreconditionError(f"word {word!r} has {n} U's but {dn} D's")
    if n < 1:
        raise PreconditionError("need at least one U/D pair")
    upper = "N" + "".join("N" if ch == "U" else "S" for ch in word) + "S"
    lower = "".join("S" if ch == "H" else "W" for ch in word if ch != "U") + "W"
    return SawtoothPolyomino(n, d, upper, lower)


def is_valid(poly: SawtoothPolyomino) -> bool:
    """True iff the two paths share no point besides the two endpoints."""
    return poly._boundary_sets is not None


def from_config(graph: SplitGraph, config: Config) -> SawtoothPolyomino:
    """Map a sorted recurrent configuration directly to its polyomino.

    The input is checked by :func:`splitpile.asm._require_sorted_recurrent`;
    the paths are then walked by :func:`_from_sorted_recurrent`.  The
    verify suite and the tests compare the result with the word route
    sts(phi_inv(c)).
    """
    _require_sorted_recurrent(graph, config)
    return _from_sorted_recurrent(graph, config)


def _from_sorted_recurrent(graph: SplitGraph, config: Config) -> SawtoothPolyomino:
    """Path walk of :func:`from_config` for a configuration already known
    to be sorted recurrent on ``graph``.

    The lower path drops one s step per independent vertex at abscissa
    1 + grains; the upper path drops one nw step per clique vertex at a
    height measured from the staircase.
    """
    n, d = graph.n, graph.d
    a, b = config.clique, config.independent

    # walk the upper path top-down: (n+1,d) -nw-> (n,d+1), then per column
    upper = ["N"]
    y = d + 1
    for j in range(n, 0, -1):
        y_low = 2 - j + a[n - j]  # column j carries the (n+1-j)-th largest count
        upper.append("S" * (y - y_low))
        upper.append("N")
        y = y_low + 1
    upper.append("S" * y)

    # walk the lower path top-down: one s step per row, at x = 1 + b value
    lower = []
    x = n + 1
    for i in range(d, 0, -1):
        x_i = 1 + b[d - i]
        lower.append("W" * (x - x_i))
        lower.append("S")
        x = x_i
    lower.append("W" * x)

    return SawtoothPolyomino(n, d, "".join(upper), "".join(lower))


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def area(poly: SawtoothPolyomino) -> int:
    """Unit squares with all four lattice corners inside the polyomino.

    Column x (between abscissas x and x+1) is crossed by exactly one nw
    step of the upper path, from (x+1, top) to (x, top+1), and one w step
    of the lower path at height floor; its full squares are the
    top - floor between them.  The verify suite and the tests check the
    result against the height theorem.
    """
    if not is_valid(poly):
        raise PreconditionError("area is defined for valid polyominoes only")
    upper, lower = poly._points
    tops = sum(y for ch, (_, y) in zip(poly.upper, upper) if ch == "N")
    floors = sum(y for ch, (_, y) in zip(poly.lower, lower) if ch == "W")
    return tops - floors


# ---------------------------------------------------------------------------
# bounce paths
# ---------------------------------------------------------------------------

class BounceRecord(Record):
    """A bounce path and its block sizes.

    For CTI the sizes read (p1, q1, ..., pk, qk), for ITC
    (q'1, p'1, ..., q'k, p'k); ``path`` lists the visited points from
    (n, d) to the origin.
    """

    __slots__ = ("mode", "sizes", "path")
    mode: str
    sizes: tuple[int, ...]
    path: tuple[tuple[int, int], ...]


def _bounce(poly: SawtoothPolyomino, mode: str) -> BounceRecord:
    """Bounce path from (n, d) to the origin, alternating nw runs that stop
    on the upper path with s runs that stop on the lower path; CTI starts
    with a nw run, ITC with an s run.  Each nw run is a clique block and
    each s run, less the nw run before it, an independent block."""
    sets = poly._boundary_sets
    if sets is None:
        raise PreconditionError("bounce paths require a valid polyomino")
    upper, lower = sets
    runs = [((-1, 1), upper), ((0, -1), lower)]
    if mode == ITC:
        runs.reverse()
    x, y = poly.n, poly.d
    path = [(x, y)]
    sizes: list[int] = []
    prev_p = 0
    for i in range(2 * (poly.n + poly.d + 2)):
        (dx, dy), stop = runs[i % 2]
        run = 0
        while (x, y) not in stop:
            x, y = x + dx, y + dy
            path.append((x, y))
            run += 1
        if stop is upper:
            sizes.append(run)
            prev_p = run
        elif run < prev_p:
            raise InternalError(f"{mode} bounce s-run shorter than the preceding nw-run")
        else:
            sizes.append(run - prev_p)
        if (x, y) == (0, 0):
            # ITC may close on an s run: its independent-only round gets
            # p'_k = 0, and an empty one is dropped
            if len(sizes) % 2:
                sizes.append(0)
            if sizes[-2:] == [0, 0]:
                del sizes[-2:]
            return BounceRecord(mode, tuple(sizes), tuple(path))
    raise InternalError(f"{mode} bounce did not reach the origin")


def cti_bounce(poly: SawtoothPolyomino) -> BounceRecord:
    """Bounce path that first travels nw; sizes (p1, q1, ..., pk, qk)."""
    return _bounce(poly, CTI)


def itc_bounce(poly: SawtoothPolyomino) -> BounceRecord:
    """Bounce path that first travels s; sizes (q'1, p'1, ..., q'k, p'k)."""
    return _bounce(poly, ITC)
