from fractions import Fraction

import pytest

from splitpile.asm import PreconditionError
from splitpile.partitions import (
    DegeneratePointError,
    Partition,
    nabla_symmetry_check,
    partitions_of,
    w_weight,
)

POINTS = [
    (Fraction(2), Fraction(3), Fraction(5)),
    (Fraction(1, 2), Fraction(3), Fraction(-2)),
    (Fraction(-3), Fraction(5, 7), Fraction(1)),
    (Fraction(7), Fraction(2), Fraction(11)),
    (Fraction(2, 5), Fraction(9, 4), Fraction(3, 2)),
]


def test_partition_validation():
    with pytest.raises(PreconditionError):
        Partition((1, 2))
    with pytest.raises(PreconditionError):
        Partition((2, 0))


def test_conjugate_and_cells():
    mu = Partition((3, 1))
    assert mu.conjugate() == Partition((2, 1, 1))
    assert list(mu.cells()) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert mu.arm((0, 0)) == 2
    assert mu.leg((0, 0)) == 1
    assert mu.coarm((0, 1)) == 1
    assert mu.coleg((1, 0)) == 1


def test_n_stat():
    mu = Partition((2, 1))
    assert mu.n_stat() == 1
    assert mu.conjugate().n_stat() == 1
    assert Partition((3, 3, 1)).n_stat() == sum(
        Partition((3, 3, 1)).leg(x) for x in Partition((3, 3, 1)).cells()
    )


def test_partitions_of():
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    counts = [len(list(partitions_of(n))) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]


def test_exchange_identities():
    for n in range(1, 9):
        for mu in partitions_of(n):
            conj = mu.conjugate()
            assert conj.conjugate() == mu
            for (i, j) in mu.cells():
                assert mu.arm((i, j)) == conj.leg((j, i))
                assert mu.leg((i, j)) == conj.arm((j, i))
                assert mu.coarm((i, j)) == conj.coleg((j, i))
                assert mu.coleg((i, j)) == conj.coarm((j, i))


def test_w_weight_single_cell():
    # one cell: everything cancels to z + 1
    for q0, t0, z0 in POINTS:
        assert w_weight(Partition((1,)), q0, t0, z0) == z0 + 1


def test_w_weight_two_cells_hand_oracle():
    """mu = (2): cells (0,0) and (0,1) with arms (1, 0), legs (0, 0),
    coarms (0, 1), colegs (0, 0); the five factors reduce to
    q (z+1)(z+q) / (q - t)."""
    q0, t0 = Fraction(2), Fraction(3)
    for z0 in (Fraction(5), Fraction(-1), Fraction(7, 3)):
        expected = q0 * (z0 + 1) * (z0 + q0) / (q0 - t0)
        assert w_weight(Partition((2,)), q0, t0, z0) == expected


def test_w_weight_degenerate_point():
    # q = t makes the hook product vanish for mu = (2)
    with pytest.raises(DegeneratePointError):
        w_weight(Partition((2,)), 2, 2, 1)


def test_symmetry_check_n1_closed_form():
    report = nabla_symmetry_check(1, POINTS)
    assert report.ok
    assert report.lhs == [z + 1 for _, _, z in POINTS]


def test_symmetry_check_n2_by_hand():
    report = nabla_symmetry_check(2, [(2, 3, 5)])
    assert report.ok
    # (z+1)(z+q+t) at (2,3,5) = 6 * 10
    assert report.lhs == [Fraction(60)]


def test_symmetry_check_refuses_an_empty_point_list():
    # a check that compared nothing must not report a pass
    with pytest.raises(PreconditionError, match="at least one point"):
        nabla_symmetry_check(2, [])


def test_symmetry_check_small_range():
    for n in range(1, 6):
        report = nabla_symmetry_check(n, POINTS)
        assert report.ok, f"identity failed for n={n}"
