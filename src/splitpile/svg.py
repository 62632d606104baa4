"""Deterministic SVG renderings of Schroder paths and sawtooth polyominoes.

Pure string assembly with integer pixel coordinates; identical inputs
produce identical documents.  Lattice (x, y) maps to pixels with the
y-axis flipped so drawings match the figures' orientation.
"""

from __future__ import annotations

from . import schroder as sc
from .polyomino import SawtoothPolyomino, cti_bounce, itc_bounce

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


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


def render_path(
    word: str,
    overlays: tuple[str, ...] = ("peaks", "bounce"),
    cell: int = 32,
    pad: int = 16,
) -> str:
    """A Schroder path on its grid with optional peak dots and the
    direct bounce-path overlay (red, dashed), mirroring the figures."""
    sc._require_schroder(word)
    size = word.count("U") + word.count("H")
    side = size * cell + 2 * pad

    def px(p: tuple[int, int]) -> tuple[int, int]:
        return (pad + p[0] * cell, pad + (size - p[1]) * cell)

    body: list[str] = [f'<rect width="{side}" height="{side}" fill="white"/>']
    for i in range(size + 1):
        c = pad + i * cell
        body.append(f'<line x1="{c}" y1="{pad}" x2="{c}" y2="{side - pad}" stroke="#cccccc" stroke-width="1"/>')
        body.append(f'<line x1="{pad}" y1="{c}" x2="{side - pad}" y2="{c}" stroke="#cccccc" stroke-width="1"/>')
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
        f'<text x="{pad}" y="{side - 2}" font-size="12" font-family="monospace">'
        f"{word} area={sc.area(word)} bounce={sc.schroder_bounce(word)}</text>"
    )
    return _doc(side, side + 14, body)


def render_polyomino(
    poly: SawtoothPolyomino,
    overlays: tuple[str, ...] = (),
    cell: int = 32,
    pad: int = 16,
) -> str:
    """The two boundary paths with optional CTI (red) and ITC (blue)
    bounce-path overlays."""
    w = poly.n + 1
    h = poly.n + poly.d + 1  # upper path may climb above d
    width = w * cell + 2 * pad
    height = h * cell + 2 * pad + 14

    def px(p: tuple[int, int]) -> tuple[int, int]:
        return (pad + p[0] * cell, pad + (h - p[1]) * cell)

    body: list[str] = [f'<rect width="{width}" height="{height}" fill="white"/>']
    for i in range(w + 1):
        c = pad + i * cell
        body.append(f'<line x1="{c}" y1="{pad}" x2="{c}" y2="{pad + h * cell}" stroke="#dddddd" stroke-width="1"/>')
    for j in range(h + 1):
        c = pad + j * cell
        body.append(f'<line x1="{pad}" y1="{c}" x2="{pad + w * cell}" y2="{c}" stroke="#dddddd" stroke-width="1"/>')

    body.append(_polyline([px(p) for p in poly.upper_points()], "#1f4fbf", 4))
    body.append(_polyline([px(p) for p in poly.lower_points()], "#444444", 4))

    for mode, bounce, color in (("cti", cti_bounce, "#cc2222"), ("itc", itc_bounce, "#2266cc")):
        if mode in overlays:
            body.append(_polyline([px(p) for p in bounce(poly).path], color, 2, dashed=True))

    body.append(
        f'<text x="{pad}" y="{height - 2}" font-size="12" font-family="monospace">'
        f"dim=({poly.n + 1},{poly.d})</text>"
    )
    return _doc(width, height, body)
