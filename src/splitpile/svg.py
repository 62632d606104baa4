"""Deterministic SVG renderings of Schroder paths and sawtooth polyominoes.

Pure string assembly with integer pixel coordinates; identical inputs
produce identical documents.  Lattice (x, y) maps to pixels with the
y-axis flipped so drawings match the figures' orientation.
"""

from __future__ import annotations

from . import schroder as sc
from .polyomino import SawtoothPolyomino, cti_bounce, itc_bounce

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
CELL = 32  # pixels per lattice unit
PAD = 16  # pixels of margin around the grid


def _doc(width: int, height: int, body: list[str]) -> str:
    return (
        _HEADER
        + f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def _polyline(points: list[tuple[int, int]], color: str, width: int, dashed: bool = False) -> str:
    pts = " ".join(f"{x},{y}" for x, y in points)
    dash = ' stroke-dasharray="6,5"' if dashed else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{width}" stroke-linejoin="round"{dash}/>'
    )


def render_path(word: str, overlays: tuple[str, ...] = ("peaks", "bounce")) -> str:
    """A Schroder path on its grid with optional peak dots and the
    direct bounce-path overlay (red, dashed), mirroring the figures."""
    sc._require_schroder(word)
    size = word.count("U") + word.count("H")
    side = size * CELL + 2 * PAD

    def px(p: tuple[int, int]) -> tuple[int, int]:
        return (PAD + p[0] * CELL, PAD + (size - p[1]) * CELL)

    body: list[str] = [f'<rect width="{side}" height="{side}" fill="white"/>']
    for i in range(size + 1):
        c = PAD + i * CELL
        body.append(f'<line x1="{c}" y1="{PAD}" x2="{c}" y2="{side - PAD}" stroke="#cccccc" stroke-width="1"/>')
        body.append(f'<line x1="{PAD}" y1="{c}" x2="{side - PAD}" y2="{c}" stroke="#cccccc" stroke-width="1"/>')
    body.append(_polyline([px((0, 0)), px((size, size))], "#333333", 1))

    body.append(_polyline([px(p) for p in sc.lattice_points(word)], "#1f4fbf", 4))

    if "bounce" in overlays:
        walk = sc.schroder_bounce_path(word)
        body.append(_polyline([px(p) for p in walk], "#cc2222", 2, dashed=True))
    if "peaks" in overlays:
        for p in sc.schroder_peaks(word):
            cx, cy = px(p)
            body.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="#cc2222"/>')
    body.append(
        f'<text x="{PAD}" y="{side - 2}" font-size="12" font-family="monospace">'
        f"{word} area={sc.area(word)} bounce={sc.schroder_bounce(word)}</text>"
    )
    return _doc(side, side + 14, body)


def render_polyomino(poly: SawtoothPolyomino, overlays: tuple[str, ...] = ()) -> str:
    """The two boundary paths with optional CTI (red) and ITC (blue)
    bounce-path overlays."""
    w = poly.n + 1
    h = poly.n + poly.d + 1  # upper path may climb above d
    width = w * CELL + 2 * PAD
    height = h * CELL + 2 * PAD + 14

    def px(p: tuple[int, int]) -> tuple[int, int]:
        return (PAD + p[0] * CELL, PAD + (h - p[1]) * CELL)

    body: list[str] = [f'<rect width="{width}" height="{height}" fill="white"/>']
    for i in range(w + 1):
        c = PAD + i * CELL
        body.append(f'<line x1="{c}" y1="{PAD}" x2="{c}" y2="{PAD + h * CELL}" stroke="#dddddd" stroke-width="1"/>')
    for j in range(h + 1):
        c = PAD + j * CELL
        body.append(f'<line x1="{PAD}" y1="{c}" x2="{PAD + w * CELL}" y2="{c}" stroke="#dddddd" stroke-width="1"/>')

    body.append(_polyline([px(p) for p in poly.upper_points()], "#1f4fbf", 4))
    body.append(_polyline([px(p) for p in poly.lower_points()], "#444444", 4))

    for mode, bounce, color in (("cti", cti_bounce, "#cc2222"), ("itc", itc_bounce, "#2266cc")):
        if mode in overlays:
            body.append(_polyline([px(p) for p in bounce(poly).path], color, 2, dashed=True))

    body.append(
        f'<text x="{PAD}" y="{height - 2}" font-size="12" font-family="monospace">'
        f"dim=({poly.n + 1},{poly.d})</text>"
    )
    return _doc(width, height, body)
