import inspect
import json
import textwrap
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

import pytest

from splitpile import qtpoly
from splitpile.asm import InternalError, PreconditionError, SplitGraph, sorted_recurrent_count
from splitpile.qtpoly import (
    QtPolynomial,
    _round_sum,
    egge_sum,
    extremal_words,
    f_cti,
    f_itc,
    fiber_words,
    hexagon_shuffle_gf,
    is_qt_symmetric,
    itc_fibers,
    itc_sum,
    itc_sum_term,
    q_binomial,
    q_multinomial,
    qt_schroder,
)
from splitpile.schroder import is_schroder, mirror, phi, word_le
from splitpile.toppling import ItcSequence, all_itc_sequences, count_itc

# F^CTI_{2,2}(q,t), frozen term for term from the worked example
POLY_22 = QtPolynomial(
    {
        (5, 0): 1, (0, 5): 1, (4, 1): 1, (1, 4): 1, (3, 2): 1, (2, 3): 1,
        (4, 0): 1, (0, 4): 1, (3, 1): 2, (1, 3): 2, (2, 2): 2, (3, 0): 2,
        (0, 3): 2, (2, 1): 3, (1, 2): 3, (2, 0): 1, (0, 2): 1, (1, 1): 2,
        (1, 0): 1, (0, 1): 1,
    }
)


def qp(terms: dict) -> QtPolynomial:
    return QtPolynomial(terms)


def test_qtpolynomial_basics():
    p = qp({(1, 0): 1}) + qp({(0, 1): 1})
    assert p == qp({(1, 0): 1, (0, 1): 1})
    assert p - p == QtPolynomial.zero()
    assert not QtPolynomial.zero()
    assert (p * p) == qp({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert 3 * qp({(1, 1): 2}) == qp({(1, 1): 6})
    assert p.swap_qt() == p
    assert p.evaluate(2, 3) == 5
    assert qp({(2, 1): 4}).evaluate(Fraction(1, 2), 3) == 3
    assert QtPolynomial({(0, 0): 0}) == QtPolynomial.zero()


def test_qtpolynomial_json():
    obj = POLY_22.to_json()
    assert obj["terms"][0] == {"q": 5, "t": 0, "c": 1}
    back = json.loads(json.dumps(obj))
    assert QtPolynomial({(t["q"], t["t"]): t["c"] for t in back["terms"]}) == POLY_22


def test_qtpolynomial_refuses_inexact_input():
    # int() would read "2" as 2 and 1.7 as 1; a fractional coefficient
    # would leave exact integer arithmetic
    for bad in ({("2", 0): 1}, {(1.7, 0): 1}, {(0, 0): 0.5}, {(0, 0): Fraction(1, 2)}):
        with pytest.raises(PreconditionError, match="integer exponents and coefficients"):
            QtPolynomial(bad)


def test_bad_arguments_name_their_values():
    with pytest.raises(PreconditionError, match=r"need n >= 0 and d >= 0, got \(2, -1\)"):
        qt_schroder(2, -1)
    with pytest.raises(PreconditionError, match=r"need a, b, c >= 0, got \(-1, 0, 0\)"):
        q_multinomial(-1, 0, 0)


def test_arithmetic_refuses_foreign_operands():
    # only another polynomial, or an int as a scale, is an operand
    one = QtPolynomial.one()
    for operation in (
        lambda: one * 1.5,
        lambda: one * Fraction(1, 2),
        lambda: "a" * one,
        lambda: one + 1,
        lambda: one - 1,
    ):
        with pytest.raises(TypeError):
            operation()
    assert one * 2 == 2 * one == QtPolynomial({(0, 0): 2})


def test_latex_matches_printed_ordering():
    assert POLY_22.to_latex() == (
        "q^5 + t^5 + q^4t + qt^4 + q^3t^2 + q^2t^3 + q^4 + t^4 + 2q^3t + 2qt^3"
        " + 2q^2t^2 + 2q^3 + 2t^3 + 3q^2t + 3qt^2 + q^2 + t^2 + 2qt + q + t"
    )
    assert QtPolynomial.zero().to_latex() == "0"
    assert QtPolynomial.one().to_latex() == "1"


def test_q_binomial():
    assert q_binomial(4, 2) == qp({(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1, (4, 0): 1})
    for m in range(0, 7):
        assert q_binomial(m, 0) == QtPolynomial.one()
        assert q_binomial(m, m) == QtPolynomial.one()
    with pytest.raises(PreconditionError):
        q_binomial(2, 3)


def test_q_binomial_deep_rows():
    import math

    # building a row m deep must not recurse m levels deep
    assert q_binomial(1200, 1) == QtPolynomial({(e, 0): 1 for e in range(1200)})
    assert q_binomial(2000, 2).evaluate(1, 1) == math.comb(2000, 2)
    assert q_binomial(2000, 1998) == q_binomial(2000, 2)


def test_q_binomial_counts_at_one():
    import math

    for m in range(0, 8):
        for k in range(0, m + 1):
            assert q_binomial(m, k).evaluate(1, 1) == math.comb(m, k)


def test_q_multinomial():
    # inversion generating function over the six shuffles of D, H, U
    assert q_multinomial(1, 1, 1) == qp({(0, 0): 1, (1, 0): 2, (2, 0): 2, (3, 0): 1})
    assert q_multinomial(2, 0, 0) == QtPolynomial.one()


def test_f_cti_matches_printed_polynomial():
    assert f_cti(2, 2) == POLY_22
    assert f_cti(1, 0) == QtPolynomial.one()


def test_frozen_table_and_frozen_polynomial_are_consistent():
    # the two independently transcribed artifacts determine each other:
    # each table row contributes q^(height-5) t^(wtopple-4)
    from test_asm import TABLE_22

    from_table = QtPolynomial.zero()
    for h, sizes, w in TABLE_22.values():
        assert w == sum(
            i * (sizes[2 * i - 2] + sizes[2 * i - 1])
            for i in range(1, len(sizes) // 2 + 1)
        )
        from_table = from_table + QtPolynomial.monomial(h - 5, w - 4)
    assert from_table == POLY_22


def test_f_itc_values():
    assert f_itc(2, 2).evaluate(1, 1) == 30
    assert f_itc(1, 0) == QtPolynomial.one()
    assert f_itc(2, 2) == f_cti(2, 2)


def test_qt_schroder_values():
    assert qt_schroder(2, 2) == f_itc(2, 2)
    assert qt_schroder(0, 3) == QtPolynomial.one()
    assert qt_schroder(2, 0) == qp({(1, 0): 1, (0, 1): 1})


def test_egge_sum_values():
    assert egge_sum(2, 2) == qt_schroder(2, 2)
    assert egge_sum(1, 0) == QtPolynomial.one()


def test_itc_sum_terms_match_printed_table():
    q = QtPolynomial.monomial(1, 0)
    t = QtPolynomial.monomial(0, 1)
    table = {
        ((2,), (2,)): q * q_binomial(4, 2),
        ((2, 0), (1, 1)): t * q_binomial(3, 1),
        ((1, 1), (2, 0)): q * t * q_binomial(2, 1) * q_binomial(3, 1),
        ((1, 1), (1, 1)): t * t * q_binomial(2, 1) * q_binomial(2, 1),
        ((0, 2), (2, 0)): q * t * t * q_binomial(3, 1),
        ((0, 2), (1, 1)): t * t * t * q_binomial(3, 1),
        ((1, 0, 1), (1, 1, 0)): t * t * t * q_binomial(2, 1),
        ((0, 1, 1), (1, 1, 0)): QtPolynomial.monomial(0, 4) * q_binomial(2, 1),
        ((0, 0, 2), (1, 1, 0)): QtPolynomial.monomial(0, 5),
    }
    for (b, a), expected in table.items():
        assert itc_sum_term(ItcSequence(b, a)) == expected
    assert sum((v for v in table.values()), QtPolynomial.zero()) == POLY_22


def test_itc_sum_values():
    assert itc_sum(2, 2) == f_itc(2, 2)
    assert itc_sum(1, 0) == QtPolynomial.one()
    # d = 0 falls back to the same formula with empty rounds
    for n in range(1, 5):
        assert itc_sum(n, 0) == qt_schroder(n, 0)


def test_itc_sum_equals_sum_over_sequences():
    """The round-by-round sum equals the printed per-sequence terms summed
    over every ITC toppling sequence."""
    for n in range(1, 7):
        for d in range(0, 5):
            terms = (itc_sum_term(seq) for seq in all_itc_sequences(n, d))
            assert itc_sum(n, d) == sum(terms, QtPolynomial.zero()), (n, d)


def _unit_factor(a: int, b: int, c: int) -> tuple:
    return ()  # the empty product of Gaussian binomials


def test_round_sum_counts_itc_sequences():
    """With a unit factor the shared round recursion counts ITC toppling
    sequences, so its round rule agrees with ItcSequence.blocks()."""
    for n in range(1, 6):
        for d in range(0, 5):
            count = _round_sum(n, d, _unit_factor).evaluate(1, 1)
            assert count == count_itc(n, d) == len(all_itc_sequences(n, d)), (n, d)


def _dict_round_sum(n: int, d: int, factor) -> QtPolynomial:
    """The round recursion of _round_sum on term maps, with factor(a, b,
    prev - 1) a polynomial: the reference for the packed evaluation."""

    @lru_cache(maxsize=None)
    def rounds(clique: int, indep: int, prev: int) -> QtPolynomial:
        out = QtPolynomial.zero()
        for a in range(clique + 1):
            for b in range(indep + 1):
                left = clique + indep - a - b
                if left and not a:
                    continue
                step = factor(a, b, prev - 1)
                if left:
                    step = step * rounds(clique - a, indep - b, a)
                out = out + QtPolynomial.monomial(a * (a - 1) // 2, left) * step
        return out

    return rounds(n, d, 1)


def test_packed_round_sum_matches_the_term_map_recursion():
    shapes = [(n, d) for n in range(1, 9) for d in range(0, 6) if n + d <= 11]
    for n, d in shapes:
        assert itc_sum(n, d) == _dict_round_sum(n, d, q_multinomial), (n, d)
        egge = _dict_round_sum(n, d, lambda alpha, beta, c: q_multinomial(beta, alpha, c))
        assert egge_sum(n, d) == egge, (n, d)
        unit = _dict_round_sum(n, d, lambda a, b, c: QtPolynomial.one())
        assert _round_sum(n, d, _unit_factor) == unit, (n, d)


def test_round_sum_multiplies_no_polynomials(monkeypatch):
    # the packed recursion multiplies integers; the only polynomials it
    # reads are the Gaussian binomials, which are built without products
    real = QtPolynomial.__mul__
    products = []

    def counted(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(QtPolynomial, "__mul__", counted)
    q_binomial.cache_clear()
    assert itc_sum(5, 3).evaluate(1, 1) == sorted_recurrent_count(5, 3)
    assert products == []


def test_packed_round_sum_refuses_an_overflowing_slot(monkeypatch):
    # S(7,4)'s largest coefficient, 7,741, needs 13 bits; two bytes hold
    # it, one byte carries into the next slot
    assert max(itc_sum(7, 4).terms.values()).bit_length() == 13
    monkeypatch.setattr(qtpoly, "_slot_bytes", lambda total: 2)
    assert itc_sum(7, 4) == _dict_round_sum(7, 4, q_multinomial)
    monkeypatch.setattr(qtpoly, "_slot_bytes", lambda total: 1)
    for fn in (itc_sum, egge_sum):
        with pytest.raises(InternalError, match="overflowed its 1-byte slots"):
            fn(7, 4)


def _neg_x_pochhammer(a: int) -> QtPolynomial:
    """(-x; q)_a = prod_{i<a} (1 + x q^i), with x in the t slot."""
    out = QtPolynomial.one()
    for i in range(a):
        out = out * QtPolynomial({(0, 0): 1, (i, 1): 1})
    return out


def _x_series(ps: range, coeff) -> QtPolynomial:
    """sum over p in ps of q^C(p,2) coeff(p) x^p, with x in the t slot."""
    out = QtPolynomial.zero()
    for p in ps:
        out = out + coeff(p) * QtPolynomial.monomial(p * (p - 1) // 2, p)
    return out


def _telescoping_c(a: int, b: int, shift: int = 1) -> QtPolynomial:
    # c_{a,b}(x) = sum_p q^C(p,2) [a+p-1; p] [b-1; p-1] x^p at shift 1
    return _x_series(
        range(shift, b + shift),
        lambda p: q_binomial(a + p - 1, p) * q_binomial(b - 1, p - shift),
    )


def _telescoping_d(a: int, b: int) -> QtPolynomial:
    # d_{a,b}(x) = sum_p q^C(p,2) [a; p] [p+b-1; b] x^p
    return _x_series(range(1, a + 1), lambda p: q_binomial(a, p) * q_binomial(p + b - 1, b))


def test_telescoping_lemma():
    """(-x;q)_a c_{a,b}(x) = (-x;q)_b d_{a,b}(x) exactly in q and x: the
    identity that telescopes the CTI round product into the ITC one."""
    for a in range(1, 9):
        for b in range(1, 9):
            left = _neg_x_pochhammer(a) * _telescoping_c(a, b)
            assert left == _neg_x_pochhammer(b) * _telescoping_d(a, b), (a, b)


def test_telescoping_lemma_catches_a_shifted_binomial():
    # [b-1; p] in place of [b-1; p-1] in c breaks the lemma on every pair
    for a in range(1, 7):
        for b in range(1, 7):
            left = _neg_x_pochhammer(a) * _telescoping_c(a, b, shift=0)
            assert left != _neg_x_pochhammer(b) * _telescoping_d(a, b), (a, b)


def _q_binomial_or_zero(m: int, k: int) -> QtPolynomial:
    return q_binomial(m, k) if 0 <= k <= m else QtPolynomial.zero()


def _q_gkp_left(r: int, s: int, m: int, n: int, extra_q_at_1: int = 0) -> QtPolynomial:
    # sum_k q^((M-k)(n-k)) [M; k] [N; n-k] [r+k; m+n], M = m-r+s, N = n+r-s
    big_m, big_n = m - r + s, n + r - s
    out = QtPolynomial.zero()
    for k in range(min(big_m, n) + 1):
        shift = (big_m - k) * (n - k) + (extra_q_at_1 if k == 1 else 0)
        out = out + QtPolynomial.monomial(shift, 0) * _q_binomial_or_zero(big_m, k) * (
            _q_binomial_or_zero(big_n, n - k) * _q_binomial_or_zero(r + k, m + n)
        )
    return out


def _q_gkp_tuples() -> list[tuple[int, int, int, int]]:
    return [
        (r, s, m, n)
        for r in range(9)
        for s in range(9)
        for m in range(9)
        for n in range(9)
        if m - r + s >= 0 and n + r - s >= 0
    ]


def test_q_gkp_identity():
    """The q-Saalschutz sum that both coefficient forms of the telescoping
    lemma are cases of: sum_k q^((M-k)(n-k)) [M; k] [N; n-k] [r+k; m+n]
    = [r; m] [s; n], with M = m-r+s and N = n+r-s, for r, s, m, n <= 8."""
    tuples = _q_gkp_tuples()
    assert len(tuples) == 4401
    for r, s, m, n in tuples:
        right = _q_binomial_or_zero(r, m) * _q_binomial_or_zero(s, n)
        assert _q_gkp_left(r, s, m, n) == right, (r, s, m, n)


def test_q_gkp_identity_catches_an_extra_q():
    # one more q on the k = 1 term breaks the identity wherever that term
    # is not zero
    wrong = [
        t for t in _q_gkp_tuples()
        if _q_gkp_left(*t, extra_q_at_1=1)
        != _q_binomial_or_zero(t[0], t[2]) * _q_binomial_or_zero(t[1], t[3])
    ]
    assert len(wrong) == 450


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _composition_sum(n: int, d: int, closing: int, link) -> QtPolynomial:
    """sum over compositions s of n+d of t^(sum (r-1) s_r) [x^n]
    (-x;q)_{s[closing]} prod_r link(s_{r-1}, s_r), with x in the t slot
    of the product."""
    out = QtPolynomial.zero()
    for s in _compositions(n + d):
        product = _neg_x_pochhammer(s[closing])
        for a, b in zip(s, s[1:]):
            product = product * link(a, b)
        bounce = sum(r * size for r, size in enumerate(s))
        for (qe, xe), c in product.terms.items():
            if xe == n:
                out = out + QtPolynomial.monomial(qe, bounce, c)
    return out


def test_composition_formulas_give_both_polynomials():
    """The telescoping lemma's two sides, summed over the compositions of
    n+d, are the CTI and the ITC polynomial."""
    for total in range(1, 8):
        for n in range(1, total + 1):
            d = total - n
            assert _composition_sum(n, d, 0, _telescoping_c) == f_cti(n, d), (n, d)
            assert _composition_sum(n, d, -1, _telescoping_d) == f_itc(n, d), (n, d)


def test_composition_formula_catches_the_wrong_closing_factor():
    # closing the CTI product with (-x;q)_{s_k} instead of (-x;q)_{s_1}
    shapes = [(n, total - n) for total in range(2, 7) for n in range(1, total + 1)]
    wrong = [s for s in shapes if _composition_sum(*s, -1, _telescoping_c) != f_cti(*s)]
    assert len(shapes) == 20 and len(wrong) == 14, wrong


def test_explicit_sums_past_brute_force_reach():
    # S(9,4) has 35,565,530 and S(10,5) 892,371,480 sorted recurrent
    # configurations, far beyond the brute-force methods; the two sums
    # must still agree, count them, and be symmetric in q and t (the
    # paper's corollary)
    for (n, d), count in {(9, 4): 35_565_530, (10, 5): 892_371_480}.items():
        poly = itc_sum(n, d)
        assert egge_sum(n, d) == poly
        assert poly.evaluate(1, 1) == count == sorted_recurrent_count(n, d)
        assert is_qt_symmetric(poly)


# ---------------------------------------------------------------------------
# two specializations of the polynomial that share no code with the sums
# ---------------------------------------------------------------------------

def _t_one_side(n: int, d: int) -> dict[int, int]:
    """sum of q^area over the Schroder words with n U's, n D's and d H's,
    as {q-exponent: count}, by a DP over (U left, D left, H left,
    balance): an H step at balance b adds q^b, a D step, allowed only at
    b > 0, adds q^(b-1) and lowers b, and a U step adds nothing and raises
    b.  This is schroder.area read step by step."""

    @lru_cache(maxsize=None)
    def rest(up: int, down: int, flat: int, b: int) -> Counter:
        if not (up or down or flat):
            return Counter({0: 1})
        out = Counter()
        if up:
            out.update(rest(up - 1, down, flat, b + 1))
        if flat:
            out.update({e + b: c for e, c in rest(up, down, flat - 1, b).items()})
        if down and b:
            out.update({e + b - 1: c for e, c in rest(up, down - 1, flat, b - 1).items()})
        return out

    return dict(rest(n, n, d, 0))


def _q_count_side(n: int, d: int) -> dict[int, int]:
    """[2n+d; n]_q [n+d; n]_q / [n+1]_q as {q-exponent: coefficient},
    from the factors (1 - q^j) of the product formula of each Gaussian
    binomial, divided out exactly."""

    def product(js) -> list[int]:
        out = [1]
        for j in js:
            shifted = [0] * j + [-c for c in out]
            out = [x + y for x, y in zip_longest(out, shifted, fillvalue=0)]
        return out

    num = product([*range(n + d + 1, 2 * n + d + 1), *range(d + 1, n + d + 1), 1])
    den = product([*range(1, n + 1), *range(1, n + 1), n + 1])
    quotient, rem = [], list(num)
    for i in range(len(num) - len(den) + 1):
        quotient.append(rem[i])  # den[0] == 1
        for j, c in enumerate(den):
            rem[i + j] -= quotient[i] * c
    assert not any(rem), (n, d)
    return {e: c for e, c in enumerate(quotient) if c}


def _at_t_one(poly: QtPolynomial) -> dict[int, int]:
    out = Counter()
    for (qe, _te), c in poly.terms.items():
        out[qe] += c
    return dict(out)


def _at_t_inverse_q(poly: QtPolynomial, n: int, d: int) -> dict[int, int]:
    """The coefficients of q^(C(n,2)+nd) poly(q, 1/q)."""
    out = Counter()
    for (qe, te), c in poly.terms.items():
        out[qe - te + n * (n - 1) // 2 + n * d] += c
    return dict(out)


def _specializations_hold(poly: QtPolynomial, n: int, d: int) -> tuple[bool, bool]:
    return (
        _at_t_one(poly) == _t_one_side(n, d),
        _at_t_inverse_q(poly, n, d) == _q_count_side(n, d),
    )


def test_specializations_match_brute_force():
    # the t = 1/q q-count is an identity checked here, on configurations
    # through f_itc and f_cti, not a cited theorem
    for n in range(1, 9):
        for d in range(0, 9 - n):
            for fn in (f_itc, f_cti):
                assert _specializations_hold(fn(n, d), n, d) == (True, True), (fn, n, d)


def test_specializations_match_the_sums():
    shapes = [(n, d) for n in range(1, 9) for d in range(0, 6)] + [(10, 5), (12, 6)]
    for n, d in shapes:
        for fn in (itc_sum, egge_sum):
            assert _specializations_hold(fn(n, d), n, d) == (True, True), (fn, n, d)


def _mutant_round_recursion(wrong: str):
    """``qtpoly._round_recursion`` with its round's shift replaced."""
    source = textwrap.dedent(inspect.getsource(qtpoly._round_recursion))
    right = "out += step << (shift + left * tbits)"
    assert source.count(right) == 1
    namespace = dict(vars(qtpoly))
    exec(source.replace(right, wrong), namespace)
    return namespace["_round_recursion"]


@pytest.mark.parametrize(
    "wrong, side, caught",
    [
        # b more q's in every round: the t = 1 side catches it on 40 of the
        # 48 shapes (the t = 1/q side on 35)
        ("out += step << (shift + b * qbits + left * tbits)", 0, 40),
        # t^(2 clique left + independent left): only the t = 1/q side can
        # see it, and does on 42 shapes
        ("out += step << (shift + (2 * (clique - a) + indep - b) * tbits)", 1, 42),
    ],
    ids=["extra-q", "weighted-t"],
)
def test_specializations_catch_count_preserving_mutants(monkeypatch, wrong, side, caught):
    monkeypatch.setattr(qtpoly, "_round_recursion", _mutant_round_recursion(wrong))
    failed = [0, 0]
    for n in range(1, 9):
        for d in range(0, 6):
            poly = itc_sum(n, d)
            assert poly.evaluate(1, 1) == sorted_recurrent_count(n, d), (n, d)
            for i, holds in enumerate(_specializations_hold(poly, n, d)):
                failed[i] += not holds
    assert failed[side] == caught
    if side == 1:
        assert failed[0] == 0


def test_five_way_identity_small():
    for n in range(1, 4):
        for d in range(0, 3):
            ref = f_itc(n, d)
            assert f_cti(n, d) == ref
            assert qt_schroder(n, d) == ref
            assert egge_sum(n, d) == ref
            assert itc_sum(n, d) == ref
            assert ref.evaluate(1, 1) == sorted_recurrent_count(n, d)


def test_five_way_identity_n6():
    # the identity holds out to n = 6 for d <= 3
    for d in range(0, 4):
        ref = f_itc(6, d)
        for fn in (f_cti, qt_schroder, egge_sum, itc_sum):
            assert fn(6, d) == ref, d
        assert ref.evaluate(1, 1) == sorted_recurrent_count(6, d)


def test_fiber_refines_the_sequence_sum():
    """Summing q^area t^bounce over one fiber reproduces exactly that
    sequence's term of the toppling-sequence sum; bounce is constant on a
    fiber and the areas spread as the product of shuffle generating
    functions."""
    from splitpile.schroder import area, schroder_bounce

    for n, d in [(2, 2), (3, 1), (3, 2), (4, 3)]:
        for seq, words in itc_fibers(n, d).items():
            gf = QtPolynomial.zero()
            for w in words:
                gf = gf + QtPolynomial.monomial(area(w), schroder_bounce(w))
            assert gf == itc_sum_term(seq), (n, d, seq)


def test_brute_force_polynomial_streams_its_shape():
    # S(5,3) has 12,012 sorted recurrent configurations; f_cti folds them
    # one at a time and keeps none of them once it returns; the first call
    # leaves out what any call loads once
    f_cti(1, 0)
    tracemalloc.start()
    try:
        assert f_cti(5, 3).evaluate(1, 1) == 12012
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert held < 200_000


def test_conjectured_cti_itc_equality_extended_evidence():
    # the CTI/ITC equality is only conjectural; push the evidence past
    # the identity range (equality of the two polynomials is equivalent
    # to a bistatistic-preserving bijection existing at each shape)
    for n, d in [(6, 4), (7, 0), (7, 1), (7, 2)]:
        assert f_cti(n, d) == f_itc(n, d), (n, d)


def test_symmetry():
    assert is_qt_symmetric(POLY_22)
    assert not is_qt_symmetric(QtPolynomial.monomial(1, 0))
    for n in range(1, 5):
        for d in range(0, 4):
            assert is_qt_symmetric(qt_schroder(n, d))


def test_extremal_words_one_round():
    lo, hi = extremal_words(ItcSequence((2,), (2,)))
    assert (lo, hi) == ("UUDDHH", "UUHHDD")
    assert is_schroder(lo) and is_schroder(hi)
    fiber = itc_fibers(2, 2)[ItcSequence((2,), (2,))]
    assert lo in fiber and hi in fiber
    assert all(word_le(lo, w) and word_le(w, hi) for w in fiber)
    # the configurations at the two ends of the fiber
    assert phi(mirror(lo)).key() == (1, 1, 2, 2)
    assert phi(mirror(hi)).key() == (3, 3, 2, 2)


def test_extremal_words_single_round_shape():
    # a length-1 sequence always mirrors a block word H^d U^n D^n
    lo, _ = extremal_words(ItcSequence((3,), (2,)))
    assert mirror(lo) == "HHHUUDD"


def test_worked_configuration_lies_in_its_fiber():
    g = SplitGraph(5, 3)
    from splitpile.asm import parse_config
    from splitpile.schroder import phi_inv

    c = parse_config("7,6,5,2,1;5,4,4")
    w = mirror(phi_inv(c))
    fiber = fiber_words(ItcSequence((1, 2, 0), (2, 2, 1)))
    assert w in fiber


def test_fibers_partition_words():
    for n, d in [(2, 2), (3, 2)]:
        fibers = itc_fibers(n, d)
        seen = [w for words in fibers.values() for w in words]
        assert len(seen) == len(set(seen)) == sorted_recurrent_count(n, d)
        for seq, words in fibers.items():
            assert sorted(fiber_words(seq)) == sorted(words)
            lo, hi = extremal_words(seq)
            assert all(word_le(lo, w) and word_le(w, hi) for w in words)


def test_fiber_interval_strictness_counterexample():
    """Geometric betweenness alone admits words outside the fiber: within
    a block an H can be traded for a U,D pair without leaving the strip,
    so fibers are commutation classes, not order intervals."""
    seq = ItcSequence((1, 0), (2, 1))
    lo, hi = extremal_words(seq)
    outsider = "UHUDUDD"
    assert word_le(lo, outsider) and word_le(outsider, hi)
    assert outsider not in fiber_words(seq)


def test_hexagon_shuffle_gf():
    assert hexagon_shuffle_gf(1, 1, 1) == qp({(0, 0): 1, (1, 0): 2, (2, 0): 2, (3, 0): 1})
    assert hexagon_shuffle_gf(3, 0, 0) == QtPolynomial.one()
    for a in range(0, 4):
        for b in range(0, 4):
            for c in range(0, 4):
                assert hexagon_shuffle_gf(a, b, c) == q_multinomial(a, b, c)


def test_canonical_config_is_lower_extremal():
    from splitpile.toppling import canonical_config

    for n in range(1, 6):
        for d in range(0, 5):
            g = SplitGraph(n, d)
            for seq in all_itc_sequences(n, d):
                lo, hi = extremal_words(seq)
                fiber = fiber_words(seq)
                assert (lo, hi) == (fiber[0], fiber[-1]), seq
                assert canonical_config(g, seq) == phi(mirror(lo)), seq


def test_unrealizable_sequences_are_rejected():
    # an empty last round, and a single round without a clique vertex
    for seq in [ItcSequence((1, 0), (1, 0)), ItcSequence((1,), (0,))]:
        for construction in (fiber_words, extremal_words, itc_sum_term):
            with pytest.raises(PreconditionError, match="not realizable"):
                construction(seq)
