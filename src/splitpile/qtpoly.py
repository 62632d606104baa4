"""Exact bivariate q,t-polynomials, computed five ways.

The generating function of (level, delayed toppling time) over sorted
recurrent configurations can be computed by brute force for either
toppling order (f_cti, f_itc), as the (area, bounce) sum over Schroder
words (qt_schroder), or by two explicit sums over composition pairs
(egge_sum, itc_sum).  All five agree; the CTI one conjecturally.  The
CLI and the verify suites read them from one table, METHODS.  The two
explicit sums are one round recursion, _round_sum, with two ways of
writing its factor, so their agreement checks only the q-multinomial's
symmetry and EHKK's parametrization; f_itc, f_cti and qt_schroder are
the independent references.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import lru_cache
from itertools import product, zip_longest
from typing import TYPE_CHECKING, Iterable

from .asm import (
    InternalError,
    PreconditionError,
    SplitGraph,
    enumerate_sorted_recurrent,
    level,
)
from . import schroder, toppling

if TYPE_CHECKING:
    from fractions import Fraction


class QtPolynomial:
    """Sparse polynomial in q and t with integer coefficients.

    Terms map (q-exponent, t-exponent) to a non-zero coefficient;
    equality is term-map equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        clean = {}
        if terms:
            index = operator.index  # refuses strings, floats and fractions
            try:
                for (qe, te), c in terms.items():
                    c = index(c)
                    if c:
                        clean[(index(qe), index(te))] = c
            except TypeError as exc:
                raise PreconditionError(
                    f"a polynomial needs integer exponents and coefficients ({exc})"
                ) from None
        self.terms = clean

    @classmethod
    def zero(cls) -> "QtPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QtPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, qexp: int, texp: int, coeff: int = 1) -> "QtPolynomial":
        return cls({(qexp, texp): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "QtPolynomial") -> "QtPolynomial":
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return QtPolynomial(out)

    def __sub__(self, other: "QtPolynomial") -> "QtPolynomial":
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return QtPolynomial(out)

    def __mul__(self, other) -> "QtPolynomial":
        if isinstance(other, int):
            return QtPolynomial({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (q1, t1), c1 in self.terms.items():
            for (q2, t2), c2 in other.terms.items():
                key = (q1 + q2, t1 + t2)
                out[key] = out.get(key, 0) + c1 * c2
        return QtPolynomial(out)

    __rmul__ = __mul__

    def swap_qt(self) -> "QtPolynomial":
        return QtPolynomial({(te, qe): c for (qe, te), c in self.terms.items()})

    def evaluate(self, q0: Fraction | int, t0: Fraction | int) -> Fraction:
        from fractions import Fraction

        total = Fraction(0)
        for (qe, te), c in self.terms.items():
            total += c * Fraction(q0) ** qe * Fraction(t0) ** te
        return total

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """(q-exponent, t-exponent, coefficient) sorted by (q, t) descending."""
        return [(qe, te, self.terms[(qe, te)]) for qe, te in sorted(self.terms, reverse=True)]

    def to_json(self) -> dict:
        return {"terms": [{"q": qe, "t": te, "c": c} for qe, te, c in self.sorted_terms()]}

    def to_latex(self) -> str:
        """Total degree descending; within a degree the q-heavy member of
        each {q^a t^b, q^b t^a} pair comes first, larger max exponent first."""
        if not self.terms:
            return "0"

        def key(expo: tuple[int, int]):
            qe, te = expo
            return (-(qe + te), -max(qe, te), 0 if qe >= te else 1)

        def power(sym: str, e: int) -> str:
            if e == 0:
                return ""
            if e == 1:
                return sym
            return f"{sym}^{{{e}}}" if e >= 10 else f"{sym}^{e}"

        parts: list[str] = []
        for qe, te in sorted(self.terms, key=key):
            c = self.terms[(qe, te)]
            body = power("q", qe) + power("t", te)
            if not body:
                mon = str(abs(c))
            elif abs(c) == 1:
                mon = body
            else:
                mon = f"{abs(c)}{body}"
            if not parts:
                parts.append(mon if c > 0 else f"-{mon}")
            else:
                parts.append(("+ " if c > 0 else "- ") + mon)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QtPolynomial({self.to_latex()})"


def is_qt_symmetric(poly: QtPolynomial) -> bool:
    """True iff the coefficient map is invariant under swapping exponents."""
    return poly == poly.swap_qt()


# ---------------------------------------------------------------------------
# Gaussian binomials and multinomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def q_binomial(m: int, k: int) -> QtPolynomial:
    """Gaussian binomial [m choose k]_q as a polynomial in q.

    Built row by row by the q-Pascal rule [j, i] = [j-1, i-1] + q^i [j-1, i],
    with [j, 0] = [j, j] = 1, on coefficient lists, so all coefficients
    stay exact integers and no call recurses.  Results are cached and
    shared between callers; polynomials are never mutated in place.
    """
    if not 0 <= k <= m:
        raise PreconditionError(f"need 0 <= k <= m, got ({m}, {k})")
    k = min(k, m - k)  # [m, k] = [m, m - k]
    row = [[1]] + [[]] * k  # [j, 0], ..., [j, k] as coefficients in q; [] is 0
    for j in range(1, m + 1):
        for i in range(min(j, k), 0, -1):
            high = [0] * i + row[i] if row[i] else []
            row[i] = [x + y for x, y in zip_longest(row[i - 1], high, fillvalue=0)]
    return QtPolynomial({(e, 0): c for e, c in enumerate(row[k])})


def _multinomial_binomials(a: int, b: int, c: int) -> tuple[tuple[int, int], ...]:
    """The (m, k) of the Gaussian binomials [m; k]_q whose product is
    [a+b+c choose a, b, c]_q: [a+b+c choose a]_q [b+c choose b]_q."""
    return (a + b + c, a), (b + c, b)


def q_multinomial(a: int, b: int, c: int) -> QtPolynomial:
    """[a+b+c choose a, b, c]_q = [a+b+c choose a]_q [b+c choose b]_q."""
    if a < 0 or b < 0 or c < 0:
        raise PreconditionError(f"need a, b, c >= 0, got ({a}, {b}, {c})")
    (m1, k1), (m2, k2) = _multinomial_binomials(a, b, c)
    return q_binomial(m1, k1) * q_binomial(m2, k2)


# ---------------------------------------------------------------------------
# the five computations
# ---------------------------------------------------------------------------

def _toppling_gf(n: int, d: int, sizes_of) -> QtPolynomial:
    graph = SplitGraph(n, d)
    return QtPolynomial(Counter(
        (level(graph, c), toppling.wtopple_of_sizes(sizes_of(graph, c)) - (n + d))
        for c in enumerate_sorted_recurrent(graph)
    ))


def f_cti(n: int, d: int) -> QtPolynomial:
    """Sum of q^level t^(wtopple_CTI - (n+d)) over sorted recurrent configs."""
    return _toppling_gf(n, d, toppling.cti_sizes)


def f_itc(n: int, d: int) -> QtPolynomial:
    """Sum of q^level t^(wtopple_ITC - (n+d)) over sorted recurrent configs."""
    return _toppling_gf(n, d, toppling.itc_sizes)


def qt_schroder(n: int, d: int) -> QtPolynomial:
    """Sum of q^area t^bounce over Schroder words with n U's and d H's."""
    if n < 0 or d < 0:
        raise PreconditionError(f"need n >= 0 and d >= 0, got ({n}, {d})")
    return QtPolynomial(Counter(
        (schroder.area(w), schroder.schroder_bounce(w))
        for w in schroder.enumerate_schroder(n, d)
    ))


def _slot_bytes(total: int) -> int:
    """Bytes per packed coefficient: every coefficient of a polynomial with
    non-negative coefficients is at most its value ``total`` at q = t = 1."""
    return (total.bit_length() + 7) // 8


def _round_sum(n: int, d: int, factor) -> QtPolynomial:
    """Sum over ITC round sequences of S(n, d), one round at a time.

    A round topples a clique and b independent vertices after a round
    that toppled prev clique vertices (prev = 1 before the first round,
    for the sink); only the last round may topple no clique vertex.  It
    contributes q^C(a,2) t^left factor(a, b, prev - 1), where left counts
    the vertices still to topple after it, so t collects
    sum_i (i-1)(a_i+b_i) over the sequence, and factor names the
    Gaussian binomials [m; k]_q, as (m, k) pairs, whose product is the
    round's factor.  The value is memoized on (clique left, independent
    left, prev), not summed term by term.

    The recursion runs twice on integers: once at q = t = 1, which gives
    the value ``total``, and once Kronecker-packed, with q^i t^j as
    2^(8w (i + Q j)), so that a product is one big-integer product and
    the round's monomial a shift.  Every coefficient is at most
    ``total``, so w bytes of its bit length hold one.  Both sums are
    level generating functions, so no q-degree exceeds the top level of
    S(n, d) and Q, the top level plus one, keeps q from spilling into t.
    A coefficient too large for its slot carries into the next one and
    lowers the sum of the slots, so that sum must equal ``total``.
    """
    graph = SplitGraph(n, d)  # refuses a bad shape
    total = _round_recursion(n, d, factor, math.comb, 0, 0)
    width = _slot_bytes(total)
    top_height = n * (graph.clique_degree - 1) + d * (graph.indep_degree - 1)
    stride = top_height - graph.nonsink_edges + 1  # Q, the top level plus one
    bits = 8 * width

    @lru_cache(maxsize=None)
    def packed_binomial(m: int, k: int) -> int:
        return sum(c << (bits * qe) for (qe, _te), c in q_binomial(m, k).terms.items())

    packed = _round_recursion(n, d, factor, packed_binomial, bits, bits * stride)
    slots = -(-packed.bit_length() // bits)
    raw = packed.to_bytes(slots * width, "little")
    terms = {}
    for slot in range(slots):
        c = int.from_bytes(raw[slot * width : (slot + 1) * width], "little")
        if c:
            te, qe = divmod(slot, stride)
            terms[(qe, te)] = c
    if sum(terms.values()) != total:
        raise InternalError(
            f"the packed round sum of S({n},{d}) overflowed its {width}-byte slots:"
            f" its coefficients add up to {sum(terms.values())}, not {total}"
        )
    return QtPolynomial(terms)


def _round_recursion(n: int, d: int, factor, binomial, qbits: int, tbits: int) -> int:
    """The rounds of :func:`_round_sum` on integers: ``binomial(m, k)``
    stands for [m; k]_q, and q^i t^j for a left shift by
    i qbits + j tbits."""

    @lru_cache(maxsize=None)
    def rounds(clique: int, indep: int, prev: int) -> int:
        # the rounds still to come when the previous round toppled prev clique vertices
        out = 0
        for a in range(clique + 1):
            shift = a * (a - 1) // 2 * qbits
            for b in range(indep + 1):
                left = clique + indep - a - b
                if left and not a:
                    continue  # only the final round may topple no clique vertex
                step = 1
                for m, k in factor(a, b, prev - 1):
                    step *= binomial(m, k)
                if left:
                    step *= rounds(clique - a, indep - b, a)
                out += step << (shift + left * tbits)
        return out

    try:
        return rounds(n, d, 1)
    finally:
        rounds.cache_clear()


def egge_sum(n: int, d: int) -> QtPolynomial:
    """Explicit composition sum for the q,t-Schroder polynomial.

    Sums over strict compositions alpha of n (length k) and weak
    compositions beta of d (length k+1) the term
    q^(sum C(alpha_i,2)) t^(sum_i i beta_i + sum_i (i-1) alpha_i)
    prod_{i<k} [beta_i, alpha_{i+1}, alpha_i-1] [beta_k+alpha_k-1; beta_k]
    with alpha_0 = 1, so the first factor is [beta_0+alpha_1; beta_0].

    With a round (a, b) = (alpha_{i+1}, beta_i) this is :func:`_round_sum`
    with the factor [b, a, prev-1]; the closing [beta_k+alpha_k-1; beta_k]
    = [beta_k, 0, alpha_k-1] is the last round, which topples no clique
    vertex.
    """
    return _round_sum(n, d, lambda alpha, beta, c: _multinomial_binomials(beta, alpha, c))


def itc_sum(n: int, d: int) -> QtPolynomial:
    """Toppling-sequence sum for the q,t-ITC polynomial.

    One term per ITC toppling sequence (:func:`itc_sum_term`): a product
    over rounds of q^C(a_i,2) [a_i+b_i+a_{i-1}-1 choose a_i, b_i, a_{i-1}-1]_q
    t^((i-1)(a_i+b_i)) with a_0 = 1.  Stated for d >= 1; the d = 0 case
    uses the same formula with all b_i = 0.  This is :func:`_round_sum`
    with the factor [a, b, prev-1].
    """
    return _round_sum(n, d, _multinomial_binomials)


#: the methods by their ``poly --method`` names; ``itc`` is the reference,
#: which the others equal by theorem, or by conjecture if CONJECTURAL
METHODS = {"cti": f_cti, "itc": f_itc, "schroder": qt_schroder, "egge": egge_sum, "itc-sum": itc_sum}
CONJECTURAL = frozenset({"cti"})


def itc_sum_term(seq: toppling.ItcSequence) -> QtPolynomial:
    """The single sequence's contribution to :func:`itc_sum`."""
    term = QtPolynomial.one()
    for i, (prev, b, a) in enumerate(seq.blocks()):
        # i rounds precede this one
        term = term * QtPolynomial.monomial(a * (a - 1) // 2, i * (a + b))
        term = term * q_multinomial(a, b, prev)
    return term


# ---------------------------------------------------------------------------
# fibers of the ITC sequence map
# ---------------------------------------------------------------------------

def _fiber_word(rounds: Iterable[str], a_last: int) -> str:
    """The mirrored word of one shuffle per round: the rounds joined by
    single D's and closed by the final D-run of length a_k."""
    return schroder.mirror("D".join(rounds) + "D" * a_last)


def extremal_words(seq: toppling.ItcSequence) -> tuple[str, str]:
    """The least and greatest Schroder words whose configuration realizes
    the given ITC toppling sequence, in the triangle-containment order.

    They take the least (D^x H^y U^z) and the greatest (U^z H^y D^x)
    shuffle of every round's block, so they are the first and the last
    word of :func:`fiber_words`.
    """
    blocks = seq.blocks()
    w_lower = _fiber_word(("D" * x + "H" * y + "U" * z for x, y, z in blocks), seq.a[-1])
    w_upper = _fiber_word(("U" * z + "H" * y + "D" * x for x, y, z in blocks), seq.a[-1])
    for w in (w_lower, w_upper):
        if not schroder.is_schroder(w):
            raise InternalError(f"sequence {seq} yields non-Schroder extremal word {w!r}")
    return w_lower, w_upper


def hexagon_shuffle_gf(a: int, b: int, c: int) -> QtPolynomial:
    """Area generating function over the shuffles of D^a, H^b, U^c.

    Each word is weighted by the lower triangles it encloses against the
    bottom word D^a H^b U^c; the count equals the word's inversion number
    under D < H < U, which is checked.  The verify suite and the tests
    compare the sum with the q-multinomial.
    """
    out: Counter[tuple[int, int]] = Counter()

    def tri_under(word: str) -> int:
        # lower triangles weakly below the path, no diagonal cutoff: each
        # H or D step has as many below it as the height it ends at
        y = total = 0
        for ch in word:
            if ch == "U":
                y += 1
            elif ch == "H":
                y += 1
                total += y
            else:
                total += y
        return total

    def inversions(word: str) -> int:
        # a D follows every H and U seen so far, an H every U
        inv = h = u = 0
        for ch in word:
            if ch == "D":
                inv += h + u
            elif ch == "H":
                inv += u
                h += 1
            else:
                u += 1
        return inv

    base = tri_under("D" * a + "H" * b + "U" * c)
    for w in schroder.shuffles(a, b, c):
        enclosed = tri_under(w) - base
        if enclosed != inversions(w):
            raise InternalError(f"enclosed triangles != inversions for {w!r}")
        out[(enclosed, 0)] += 1
    return QtPolynomial(out)


def fiber_words(seq: toppling.ItcSequence) -> list[str]:
    """All Schroder words whose configuration realizes the ITC sequence.

    One word per choice of a shuffle of every round's block
    (:meth:`~splitpile.toppling.ItcSequence.blocks`), joined as in
    :func:`_fiber_word`; commuting letters within a round's block is
    exactly what preserves the toppling sequence.
    """
    shuffles = (schroder.shuffles(*block) for block in seq.blocks())
    out = [_fiber_word(rounds, seq.a[-1]) for rounds in product(*shuffles)]
    for w in out:
        if not schroder.is_schroder(w):
            raise InternalError(f"fiber construction of {seq} produced non-Schroder {w!r}")
    return out


def itc_fibers(n: int, d: int) -> dict[toppling.ItcSequence, list[str]]:
    """Group the mirrored words of all sorted recurrent configurations by
    their ITC toppling sequence."""
    graph = SplitGraph(n, d)
    fibers: dict[toppling.ItcSequence, list[str]] = {}
    for c in enumerate_sorted_recurrent(graph):
        seq = toppling.itc_sequence_of_sizes(toppling.itc_sizes(graph, c))
        w = schroder.mirror(schroder.phi_inv(c))
        fibers.setdefault(seq, []).append(w)
    return fibers
