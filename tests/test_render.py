"""SVG rendering: structure and the byte-determinism contract."""

import hashlib
import pathlib
import random
import xml.etree.ElementTree as ET

import helpers
from lagsurf.dsl import parse_front
from lagsurf.fronts import FrontDiagram
from lagsurf.render import render_svg

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def test_rendering_is_deterministic():
    diagram = FrontDiagram.from_word("L1 L2 X1 X3 R2 R1")
    assert render_svg(diagram) == render_svg(diagram)


def test_trivial_front_is_two_tips():
    svg = render_svg(FrontDiagram.from_word("L1 R1"))
    assert svg.count("<path") == 2
    assert svg.count("<line") == 0


def test_crossing_breaks_only_the_ascending_strand():
    svg = render_svg(FrontDiagram.from_word("L1 X1 R1"))
    # two cusp tips, plus three segments at the crossing: the ascending
    # strand in two pieces and the descending strand unbroken
    assert svg.count("<path") == 2
    assert svg.count("<line") == 3


def test_canvas_tracks_word_size():
    svg = render_svg(FrontDiagram.from_word("L1 L2 R2 R1"))
    assert 'width="232.0"' in svg  # 2*20 + 4*48
    assert 'height="124.0"' in svg  # 2*20 + (4-1)*28


def test_svg_bytes_are_pinned():
    # one digest over the corpus and 400 random words: any change to the
    # drawing rules, sizes, colours or number format changes it
    digest = hashlib.sha256()
    for path in sorted(CORPUS.glob("*.front")):
        digest.update(render_svg(parse_front(path.read_text()).to_diagram()).encode())
    rng = random.Random(7)
    for _ in range(400):
        digest.update(render_svg(FrontDiagram(helpers.random_word(rng))).encode())
    assert digest.hexdigest() == (
        "029c6dd544fac483ebd6d539e15af6dbb41c5302dc84dbc32e30a35d3159d26a"
    )


def test_corpus_renders_to_wellformed_svg():
    for path in sorted(CORPUS.glob("*.front")):
        diagram = parse_front(path.read_text()).to_diagram()
        svg = render_svg(diagram)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert diagram.notation() in svg or "(empty)" in svg
