"""Deterministic SVG pictures of front words.

Strands run left to right along horizontal tracks, one column per event.
Left cusps open rightward, right cusps close leftward (quadratic tips), and
at a crossing the descending strand is drawn unbroken while the ascending
strand yields with a visual gap.  The sizes and colours are the module
constants below, and all coordinates are emitted with one fixed decimal, so
identical input gives byte-identical output.
"""

from __future__ import annotations

from .fronts import FOOTPRINT, FrontDiagram, L, R

_COLUMN_WIDTH = 48.0
_TRACK_HEIGHT = 28.0
_MARGIN = 20.0
_STROKE_WIDTH = 2.0
_CROSSING_GAP = 0.18  # fraction of the column yielded by the under-strand
_STROKE = "#16324f"
_BACKGROUND = "#ffffff"


def _fmt(value: float) -> str:
    return f"{value:.1f}"


def render_svg(diagram: FrontDiagram) -> str:
    events = diagram.events
    columns = max(len(events), 1)
    tracks = max(diagram.max_strands, 2)
    width = 2 * _MARGIN + columns * _COLUMN_WIDTH
    height = 2 * _MARGIN + (tracks - 1) * _TRACK_HEIGHT

    def xat(i: float) -> float:
        return _MARGIN + i * _COLUMN_WIDTH

    def yat(pos: int) -> float:
        return _MARGIN + (pos - 1) * _TRACK_HEIGHT

    def line(x0, y0, x1, y1) -> str:
        return (
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
            f'x2="{_fmt(x1)}" y2="{_fmt(y1)}"/>'
        )

    def tip(x_base: float, x_tip: float, pos: int) -> str:
        y0, y1 = yat(pos), yat(pos + 1)
        mid = (y0 + y1) / 2
        return (
            f'<path d="M {_fmt(x_base)} {_fmt(y0)} '
            f'Q {_fmt(x_tip)} {_fmt(mid)} {_fmt(x_base)} {_fmt(y1)}"/>'
        )

    shapes: list[str] = []
    for index, (event, strands) in enumerate(zip(events, diagram._structure.counts)):
        x0, x1 = xat(index), xat(index + 1)
        p, (taken, left) = event.pos, FOOTPRINT[event.kind]
        # every strand but the event's own, the ones it takes, runs through,
        # shifted below it
        for q in range(1, strands + 1):
            if not p <= q < p + taken:
                shapes.append(line(x0, yat(q), x1, yat(q if q < p else q + left - taken)))
        if event.kind is L:
            shapes.append(tip(x1, x0 + 0.2 * _COLUMN_WIDTH, p))
        elif event.kind is R:
            shapes.append(tip(x0, x1 - 0.2 * _COLUMN_WIDTH, p))
        else:
            # ascending strand (drawn first) yields a gap around the centre
            half = 0.5 * _CROSSING_GAP
            ya, yb = yat(p + 1), yat(p)
            shapes.append(line(x0, ya, x0 + (0.5 - half) * _COLUMN_WIDTH,
                               ya + (0.5 - half) * (yb - ya)))
            shapes.append(line(x0 + (0.5 + half) * _COLUMN_WIDTH,
                               ya + (0.5 + half) * (yb - ya), x1, yb))
            shapes.append(line(x0, yb, x1, ya))

    body = "\n".join(f"  {shape}" for shape in shapes)
    title = diagram.notation() or "(empty)"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        f"  <title>{title}</title>\n"
        f'  <rect width="100%" height="100%" fill="{_BACKGROUND}"/>\n'
        f'  <g fill="none" stroke="{_STROKE}" '
        f'stroke-width="{_fmt(_STROKE_WIDTH)}" stroke-linecap="round">\n'
        f"{body}\n"
        f"  </g>\n"
        f"</svg>\n"
    )
