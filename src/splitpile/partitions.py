"""Partition cell statistics and the rational-point symmetry identity.

For a partition mu the weight W(mu; q, t, z) built from arm/leg data
satisfies  sum_{mu |- N} W(mu; q, t, z) = sum_{d=0}^{N} z^d S_{N,d}(q, t),
where S_{N,d} is the q,t-Schroder polynomial for an N x N grid with d
diagonal steps, i.e. qt_schroder(N - d, d) in this package's indexing.
W is a rational function, so the identity is checked at exact rational
points rather than symbolically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from .asm import PreconditionError, Record
from .qtpoly import qt_schroder

if TYPE_CHECKING:
    from fractions import Fraction


class DegeneratePointError(ValueError):
    """The denominator vanished at the chosen point; resample."""


class Partition(Record):
    """Weakly decreasing positive parts, with per-cell arm/leg statistics.

    Cells are (row, column), zero-based, rows listed top to bottom; the
    arm counts cells to the right, the leg cells below, the coarm and
    coleg the cells to the left resp. above.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(parts)
        if any(p <= 0 for p in parts):
            raise PreconditionError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise PreconditionError("parts must be weakly decreasing")
        super().__init__(parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def cells(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self.parts):
            for j in range(p):
                yield (i, j)

    def arm(self, cell: tuple[int, int]) -> int:
        i, j = cell
        return self.parts[i] - 1 - j

    def coarm(self, cell: tuple[int, int]) -> int:
        return cell[1]

    def leg(self, cell: tuple[int, int]) -> int:
        i, j = cell
        return self.conjugate().parts[j] - 1 - i

    def coleg(self, cell: tuple[int, int]) -> int:
        return cell[0]

    def n_stat(self) -> int:
        """n(mu) = sum of colegs = sum of legs."""
        return sum(self.coleg(x) for x in self.cells())


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first, in lexicographic descending order."""
    if n < 0:
        raise PreconditionError("cannot partition a negative integer")

    def rec(rest: int, cap: int, acc: tuple[int, ...]) -> Iterator[Partition]:
        if rest == 0:
            yield Partition(acc)
            return
        for p in range(min(cap, rest), 0, -1):
            yield from rec(rest - p, p, acc + (p,))

    return rec(n, n, ())


def w_weight(
    mu: Partition,
    q0: Fraction | int,
    t0: Fraction | int,
    z0: Fraction | int,
) -> Fraction:
    """The partition weight W(mu; q, t) with z specialized, all exact.

    W = T_mu * prod_x (z + q^coarm t^coleg) * M * Pi_mu * B_mu / w_mu
    with M = (1-q)(1-t), B_mu the coarm/coleg monomial sum, Pi_mu the
    product of (1 - q^coarm t^coleg) over non-corner cells, w_mu the
    arm/leg hook product, and T_mu = t^n(mu) q^n(mu').
    """
    from fractions import Fraction

    q = Fraction(q0)
    t = Fraction(t0)
    z = Fraction(z0)
    cells = list(mu.cells())
    t_mu = t ** mu.n_stat() * q ** mu.conjugate().n_stat()
    zprod = Fraction(1)
    b_mu = Fraction(0)
    pi_mu = Fraction(1)
    w_mu = Fraction(1)
    for x in cells:
        qa = q ** mu.coarm(x)
        tl = t ** mu.coleg(x)
        zprod *= z + qa * tl
        b_mu += qa * tl
        if x != (0, 0):
            pi_mu *= 1 - qa * tl
        w_mu *= (q ** mu.arm(x) - t ** (mu.leg(x) + 1)) * (
            t ** mu.leg(x) - q ** (mu.arm(x) + 1)
        )
    if w_mu == 0:
        raise DegeneratePointError(f"w_mu vanishes for {mu.parts} at (q, t) = ({q}, {t})")
    m_factor = (1 - q) * (1 - t)
    return t_mu * zprod * m_factor * pi_mu * b_mu / w_mu


class SymmetryReport(Record):
    """Per-point outcomes of the partition-sum identity check."""

    __slots__ = ("n", "points", "lhs", "rhs", "swapped_equal")
    n: int
    points: list[tuple[Fraction, Fraction, Fraction]]
    lhs: list[Fraction]
    rhs: list[Fraction]
    swapped_equal: list[bool]

    @property
    def ok(self) -> bool:
        return (
            len(self.lhs) == len(self.points)
            and all(a == b for a, b in zip(self.lhs, self.rhs))
            and all(self.swapped_equal)
        )


def nabla_symmetry_check(
    n: int,
    points: list[tuple[Fraction | int, Fraction | int, Fraction | int]],
) -> SymmetryReport:
    """Check sum_{mu |- n} W(mu) against the z-graded Schroder sum.

    At every point the partition sum must equal
    sum_d z^d qt_schroder(n-d, d)(q, t), and both sides must be
    invariant under swapping q and t.  Degenerate points raise
    DegeneratePointError so the caller can resample; an empty point list
    would compare nothing, so it is refused.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if not points:
        raise PreconditionError("need at least one point to compare")
    from fractions import Fraction

    mus = list(partitions_of(n))
    grid = [qt_schroder(n - d, d) for d in range(n + 1)]
    exact = [(Fraction(q), Fraction(t), Fraction(z)) for q, t, z in points]
    lhs, rhs, swapped_equal = [], [], []
    for q0, t0, z0 in exact:
        left = sum((w_weight(mu, q0, t0, z0) for mu in mus), Fraction(0))
        right = sum(z0 ** d * grid[d].evaluate(q0, t0) for d in range(n + 1))
        left_swap = sum((w_weight(mu, t0, q0, z0) for mu in mus), Fraction(0))
        right_swap = sum(z0 ** d * grid[d].evaluate(t0, q0) for d in range(n + 1))
        lhs.append(left)
        rhs.append(right)
        swapped_equal.append(left == left_swap and right == right_swap)
    return SymmetryReport(n, exact, lhs, rhs, swapped_equal)
