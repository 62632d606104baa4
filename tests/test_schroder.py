import pytest
from hypothesis import given, settings, strategies as st

from splitpile.asm import PreconditionError, SplitGraph, enumerate_sorted_recurrent, level, parse_config
from splitpile.schroder import (
    area,
    bounce_haglund,
    bounce_loehr,
    collapse,
    column_profile,
    compress,
    dyck_bounce,
    enumerate_schroder,
    enumerate_words,
    is_schroder,
    lattice_points,
    mirror,
    phi,
    phi_inv,
    schroder_bounce,
    schroder_bounce_path,
    schroder_peaks,
    triangles,
    word_le,
)
from splitpile.svg import render_path
from splitpile.toppling import itc_sequence_of_sizes, topple_itc, wtopple

W53 = "UHUDUHHDUDUDD"
M53 = "UUDUDUHHDUDHD"


def _schroder_words(max_n=3, max_d=2):
    for n in range(1, max_n + 1):
        for d in range(0, max_d + 1):
            yield from enumerate_schroder(n, d)


def test_is_schroder():
    assert is_schroder(W53)
    assert not is_schroder("DU")
    assert not is_schroder("UDDU")
    assert not is_schroder("UXD")
    assert is_schroder("")
    assert is_schroder("H")


def test_enumerate_counts():
    assert list(enumerate_schroder(1, 0)) == ["UD"]
    assert len(list(enumerate_schroder(2, 2))) == 30
    assert len(list(enumerate_words(2, 2))) == 90
    assert len(list(enumerate_schroder(5, 3))) == 12012


def test_phi_worked_examples():
    assert phi(W53) == parse_config("7,6,5,2,1;5,4,4")
    assert phi(M53) == parse_config("7,7,6,5,2;3,3,1")
    assert phi("UD") == parse_config("0")
    with pytest.raises(PreconditionError):
        phi("DU")


def test_phi_inv_worked_examples():
    assert phi_inv(parse_config("7,6,5,2,1;5,4,4")) == W53
    assert phi_inv(parse_config("7,4,2,1;4,4,3,3,1")) == "HUHDHUHDUDUHD"
    assert phi_inv(parse_config("0")) == "UD"
    with pytest.raises(PreconditionError):
        phi_inv(parse_config("2,2;1,1"))  # stable but not recurrent
    with pytest.raises(PreconditionError):
        phi_inv(parse_config("0,0;0,0"))


def test_phi_bijection():
    shapes = [(n, d) for n in range(1, 5) for d in range(0, 4)] + [(5, 4)]
    for n, d in shapes:
        g = SplitGraph(n, d)
        words = list(enumerate_schroder(n, d))
        configs = enumerate_sorted_recurrent(g)
        assert sorted(phi(w).key() for w in words) == sorted(c.key() for c in configs)
        for w in words:
            assert phi_inv(phi(w)) == w


def test_mirror():
    assert mirror(W53) == M53
    assert mirror("H") == "H"
    assert mirror("UD") == "UD"
    for w in _schroder_words():
        assert mirror(mirror(w)) == w
        assert is_schroder(mirror(w))


def test_area_examples():
    assert area(W53) == 9
    assert area(M53) == 9
    assert area("UUDD") == 1
    assert area("UUUDDD") == 3
    assert area("UD" * 4) == 0
    assert area("H" * 3 + "UD") == 0


def test_area_counts_triangles():
    for w in _schroder_words():
        assert area(w) == len(triangles(w))


def test_collapse():
    assert collapse(W53) == "UUDUDUDUDD"
    assert collapse("UUDD") == "UUDD"
    assert collapse("HHH") == ""


def test_dyck_bounce():
    value, peaks = dyck_bounce("UUDUDUDUDD")
    assert value == 4
    assert peaks == [(3, 5), (1, 3), (0, 1)]
    assert dyck_bounce("UD") == (0, [(0, 1)])
    # direct simulation: the bounce path of UUDD goes (2,2)->(0,2)->(0,0),
    # touching the diagonal only at the origin
    assert dyck_bounce("UUDD")[0] == 0
    assert dyck_bounce("UDUD")[0] == 1


def test_dyck_bounce_matches_bounce_path_walk():
    # walk the classical bounce path point by point: from (n, n) west to
    # the top of a U step, then south to the diagonal, until the origin
    for n in range(0, 8):
        for w in enumerate_schroder(n, 0):
            pts = lattice_points(w)
            u_tops = {p for ch, p in zip(w, pts[1:]) if ch == "U"}
            x = y = n
            total, peaks = 0, []
            while (x, y) != (0, 0):
                while (x, y) not in u_tops:
                    x -= 1
                peaks.append((x, y))
                while y > x:
                    y -= 1
                total += x
            assert dyck_bounce(w) == (total, peaks), w
    # the Schroder peaks are the U steps that carry the collapse's peaks
    for size in range(0, 8):
        for n in range(0, size + 1):
            for w in enumerate_schroder(n, size - n):
                pts = lattice_points(w)
                tops = [p for ch, p in zip(w, pts[1:]) if ch == "U"]
                expected = [tops[y - 1] for _, y in dyck_bounce(collapse(w))[1]]
                assert schroder_peaks(w) == expected, w


def test_peaks_and_bounce_worked_examples():
    assert schroder_peaks(W53) == [(6, 8), (2, 4), (0, 1)]
    assert bounce_haglund(W53) == 8 == bounce_loehr(W53)
    assert schroder_bounce(W53) == 8
    assert schroder_peaks(M53) == [(5, 7), (1, 3), (0, 1)]
    assert schroder_bounce(M53) == 6
    # single peak at the top: U^n D^n H^d has bounce 0
    assert schroder_bounce("UUUDDDHH") == 0
    assert schroder_bounce("HUD") == 1


def test_bounce_formulations_agree_everywhere():
    for n in range(1, 5):
        for d in range(0, 4):
            for w in enumerate_schroder(n, d):
                assert bounce_haglund(w) == bounce_loehr(w)


def test_statistics_translate_across_the_bijection():
    # level <-> area and wtopple - (n+d) <-> bounce, over the full range
    from splitpile.toppling import itc_sizes, wtopple_of_sizes

    for n in range(1, 6):
        for d in range(0, 5):
            g = SplitGraph(n, d)
            for c in enumerate_sorted_recurrent(g):
                w = mirror(phi_inv(c))
                assert area(w) == level(g, c)
                assert schroder_bounce(w) == wtopple_of_sizes(itc_sizes(g, c)) - (n + d)


def test_bounce_path_walk():
    # the reformulated walk for the compress example configuration
    c = parse_config("7,6,6,5,4;5,5,4,3")
    w = mirror(phi_inv(c))
    walk = schroder_bounce_path(w)
    assert walk[0] == (9, 9) and walk[-1] == (0, 0)
    assert walk == [
        (9, 9), (8, 8), (7, 8), (6, 7), (5, 7), (4, 7), (4, 6), (4, 5),
        (3, 4), (3, 3), (2, 3), (1, 2), (0, 2), (0, 1), (0, 0),
    ]
    assert set(schroder_peaks(w)) <= set(walk)


def test_bounce_path_visits_peaks():
    for w in _schroder_words(3, 2):
        if not w:
            continue
        walk = schroder_bounce_path(w)
        assert walk[-1] == (0, 0)
        assert set(schroder_peaks(w)) <= set(walk)
        # one inserted diagonal step per H
        diagonals = sum(
            1 for p, q in zip(walk, walk[1:]) if q[0] == p[0] - 1 and q[1] == p[1] - 1
        )
        assert diagonals == w.count("H")


def test_peaks_coincide_with_loop_formula():
    # geometric peaks equal the points predicted by the ITC round sizes
    for n, d in [(2, 2), (3, 2), (4, 3)]:
        g = SplitGraph(n, d)
        for c in enumerate_sorted_recurrent(g):
            w = mirror(phi_inv(c))
            seq = itc_sequence_of_sizes(topple_itc(g, c).sizes())
            p, q = seq.a, seq.b
            expected = []
            for i in range(1, seq.length + 1):
                tail = sum(p[i:]) + sum(q[i:])
                if p[i - 1] > 0:
                    expected.append((tail, p[i - 1] + tail))
            assert sorted(schroder_peaks(w), reverse=True) == sorted(expected, reverse=True)


def test_compress():
    g = SplitGraph(5, 4)
    assert compress(g, parse_config("7,6,6,5,4;5,5,4,3")) == parse_config("4,4,4,3,3")
    g = SplitGraph(2, 2)
    assert compress(g, parse_config("3,3;2,2")) == parse_config("1,1")
    with pytest.raises(PreconditionError):
        compress(SplitGraph(3, 1), parse_config("3,3;2,2"))  # does not fit S(3,1)
    # no H letters: compression is the identity
    g30 = SplitGraph(3, 0)
    for c in enumerate_sorted_recurrent(g30):
        assert compress(g30, c) == c


def test_compress_is_recurrent_on_complete_graph():
    from splitpile.asm import is_recurrent

    g = SplitGraph(3, 2)
    for c in enumerate_sorted_recurrent(g):
        c2 = compress(g, c)
        assert is_recurrent(SplitGraph(3, 0), c2)


def test_word_order():
    assert word_le("UUDDHH", "UUHHDD")
    assert word_le("UDUDHH", "UUHHDD")
    assert not word_le("UUHHDD", "UUDDHH")
    # equal triangle sets but incomparable paths: UDH vs HUD
    assert triangles("UDH") == triangles("HUD") == frozenset()
    assert not word_le("UDH", "HUD")
    assert not word_le("HUD", "UDH")
    for w in _schroder_words(3, 2):
        assert word_le(w, w)


def test_word_order_compares_only_words_of_one_size():
    with pytest.raises(PreconditionError, match="differ in size"):
        word_le("UD", "UUDD")
    with pytest.raises(PreconditionError, match="differ in size"):
        word_le("UUDD", "H")
    # the same size n+d with another n/d split stays comparable
    assert word_le("UDH", "UUDD")
    assert not word_le("UUDD", "UDH")


def test_column_profile_identifies_word():
    seen = {}
    for w in enumerate_schroder(3, 2):
        p = column_profile(w)
        assert p not in seen
        seen[p] = w


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from("UHD"), max_size=14))
def test_phi_roundtrip_on_random_words(letters):
    w = "".join(letters)
    if not is_schroder(w) or w.count("U") == 0:
        return
    c = phi(w)
    assert phi_inv(c) == w
    assert mirror(mirror(w)) == w


@pytest.mark.parametrize("bad", ["UUX", "DU"])
def test_every_word_entry_point_rejects_a_bad_word(bad):
    # helpers skip the validation, so each public function must make it
    entry_points = [
        phi, area, triangles, column_profile, collapse, dyck_bounce, schroder_peaks,
        bounce_haglund, bounce_loehr, schroder_bounce, schroder_bounce_path,
        lambda w: word_le(w, "UD"), lambda w: word_le("UD", w),
    ]
    for fn in entry_points:
        with pytest.raises(PreconditionError):
            fn(bad)


def test_lattice_points_moves():
    assert lattice_points("UHD") == [(0, 0), (0, 1), (1, 2), (2, 2)]
    assert lattice_points("NSW", start=(2, 1)) == [(2, 1), (1, 2), (1, 1), (0, 1)]
    assert lattice_points("") == [(0, 0)]
    with pytest.raises(PreconditionError):
        lattice_points("UX")


def test_render_path_draws_the_word():
    # the blue polyline is exactly the pixel image of the walked word
    doc = render_path(M53, overlays=())
    pad, size = 16, M53.count("U") + M53.count("H")
    expected = " ".join(f"{pad + x * 32},{pad + (size - y) * 32}" for x, y in lattice_points(M53))
    assert f'<polyline points="{expected}" fill="none" stroke="#1f4fbf"' in doc
