import json

import pytest

from splitpile.asm import PreconditionError, SplitGraph, enumerate_sorted_recurrent, height, parse_config
from splitpile.polyomino import (
    SawtoothPolyomino,
    area,
    cti_bounce,
    from_config,
    is_valid,
    itc_bounce,
    sts,
)
from splitpile.svg import render_polyomino
from splitpile.schroder import enumerate_words, is_schroder, phi_inv
from splitpile.toppling import cti_sizes, itc_sizes

WORD_A = "HUHDHUHDUDUHD"  # the dimension-(5,5) worked polyomino
G45 = SplitGraph(4, 5)
CONF_A = parse_config("7,4,2,1;4,4,3,3,1")


def test_sts_worked_example_paths():
    p = sts(WORD_A)
    assert p.dim == (5, 5)
    for _ in range(2):
        upper, lower = p.upper_points(), p.lower_points()
        assert upper == [
            (5, 5), (4, 6), (4, 5), (3, 6), (3, 5), (3, 4), (3, 3), (2, 4),
            (2, 3), (2, 2), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1), (0, 0),
        ]
        assert lower == [
            (5, 5), (5, 4), (5, 3), (4, 3), (4, 2), (4, 1), (3, 1), (2, 1),
            (2, 0), (1, 0), (0, 0),
        ]
        # the lists are copies: mutating them leaves the cached walk intact
        upper.clear()
        lower.reverse()
    assert is_valid(p)
    assert area(p) == 12


def test_sts_minimal_and_invalid():
    p = sts("UD")
    assert p.dim == (2, 0)
    assert is_valid(p)
    assert not is_valid(sts("DU"))
    for fn in (area, cti_bounce, itc_bounce):
        with pytest.raises(PreconditionError):
            fn(sts("DU"))
    with pytest.raises(PreconditionError):
        sts("UDH X")
    with pytest.raises(PreconditionError):
        sts("UUD")


def test_validity_matches_schroder_exhaustively():
    for n in range(1, 5):
        for d in range(0, 4):
            for w in enumerate_words(n, d):
                assert is_valid(sts(w)) == is_schroder(w)


def test_from_config_routes_agree():
    assert from_config(G45, CONF_A) == sts(phi_inv(CONF_A))
    assert from_config(SplitGraph(1, 0), parse_config("0")) == sts("UD")
    for n, d in [(2, 2), (3, 2)]:
        g = SplitGraph(n, d)
        for c in enumerate_sorted_recurrent(g):
            assert from_config(g, c) == sts(phi_inv(c))
    with pytest.raises(PreconditionError):
        from_config(SplitGraph(2, 2), parse_config("2,2;1,1"))
    with pytest.raises(PreconditionError):
        from_config(SplitGraph(2, 2), parse_config("2,3;2,2"))  # unsorted


def test_area_worked_values():
    assert area(sts(WORD_A)) == 12
    # the minimal polyomino has exactly one full square
    assert area(sts("UD")) == 1


# both bounces of WORD_A visit these points: the CTI walk's first nw run is
# empty, so it starts with the s run the ITC walk starts with
PATH_A = (
    (4, 5), (4, 4), (4, 3), (3, 4), (3, 3), (3, 2), (3, 1), (2, 2),
    (2, 1), (1, 2), (1, 1), (1, 0), (0, 1), (0, 0),
)


def test_cti_bounce_worked_values():
    assert cti_bounce(sts(WORD_A)).sizes == (0, 2, 1, 2, 1, 0, 1, 1, 1, 0)
    assert cti_bounce(sts(WORD_A)).path == PATH_A
    assert cti_bounce(sts("UD")).sizes == (1, 0)


def test_itc_bounce_worked_values():
    assert itc_bounce(sts(WORD_A)).sizes == (2, 1, 2, 1, 0, 1, 1, 1)
    assert itc_bounce(sts(WORD_A)).path == PATH_A
    # the configuration whose region drives the direct-bounce figure
    g = SplitGraph(5, 4)
    c = parse_config("7,6,6,5,4;5,5,4,3")
    assert itc_sizes(g, c) == (2, 3, 2, 2)
    assert itc_bounce(from_config(g, c)).sizes == (2, 3, 2, 2)


def test_second_worked_polyomino_statistics_are_realized():
    """The dimension-(5,5) companion example has CTI bounce (1,3,1,1,2,1),
    ITC bounce (2,1,1,1,1,2,1,0) and area 15; those statistics are jointly
    realized, by exactly these configurations."""
    matches = []
    for c in enumerate_sorted_recurrent(G45):
        if cti_sizes(G45, c) != (1, 3, 1, 1, 2, 1):
            continue
        poly = from_config(G45, c)
        if area(poly) == 15 and itc_bounce(poly).sizes == (2, 1, 1, 1, 1, 2, 1, 0):
            matches.append(c)
    assert [tuple(c.key()) for c in matches] == [
        (8, 5, 3, 3, 4, 4, 3, 2, 0),
        (8, 5, 3, 2, 4, 4, 3, 2, 1),
        (8, 4, 3, 3, 4, 4, 3, 2, 1),
    ]


def test_thirty_polyominoes_of_s22():
    """The 30 sorted recurrent configurations of S(2,2) give 30 valid
    polyominoes whose CTI bounces reproduce the frozen table."""
    from test_asm import TABLE_22

    g = SplitGraph(2, 2)
    recs = tuple(enumerate_sorted_recurrent(g))
    assert len(recs) == 30
    for c in recs:
        poly = from_config(g, c)
        assert is_valid(poly)
        expected = TABLE_22[f"{c.clique[0]},{c.clique[1]};{c.independent[0]},{c.independent[1]}"]
        assert cti_bounce(poly).sizes == expected[1]


def test_bounces_match_toppling():
    for n, d in [(2, 2), (3, 2), (4, 3)]:
        g = SplitGraph(n, d)
        offset = g.nonsink_edges - (n + d)
        for c in enumerate_sorted_recurrent(g):
            poly = from_config(g, c)
            assert cti_bounce(poly).sizes == cti_sizes(g, c)
            assert itc_bounce(poly).sizes == itc_sizes(g, c)
            assert height(c) == area(poly) + offset


def test_worked_height_area_arithmetic():
    # height 29 = 12 - 9 + 36 - 10 for the dimension-(5,5) example
    assert height(CONF_A) == 29
    assert area(from_config(G45, CONF_A)) - 9 + 36 - 10 == 29


def test_json_roundtrip():
    p = sts(WORD_A)
    area(p)  # fills the cached boundary walk, which equality and hashing ignore
    obj = p.to_json()
    assert obj == {"dim": [5, 5], "upper": p.upper, "lower": p.lower}
    back = json.loads(json.dumps(obj))
    n_plus_1, d = back["dim"]
    twin = SawtoothPolyomino(n_plus_1 - 1, d, back["upper"], back["lower"])
    assert twin == p and hash(twin) == hash(p)


def test_render_svg_deterministic():
    p = sts(WORD_A)
    doc1 = render_polyomino(p, overlays=("cti", "itc"))
    doc2 = render_polyomino(p, overlays=("cti", "itc"))
    assert doc1 == doc2
    assert doc1.startswith('<?xml version="1.0"')
    assert "<svg" in doc1 and doc1.rstrip().endswith("</svg>")
    bare = render_polyomino(p)
    assert "stroke-dasharray" not in bare
    assert "stroke-dasharray" in doc1


def test_render_svg_draws_the_actual_bounce_path():
    # the dashed overlay traces exactly the verified bounce-path points
    p = sts(WORD_A)
    doc = render_polyomino(p, overlays=("cti",))
    pad, h = 16, p.n + p.d + 1
    expected = " ".join(
        f"{pad + x * 32},{pad + (h - y) * 32}" for x, y in cti_bounce(p).path
    )
    assert expected in doc
