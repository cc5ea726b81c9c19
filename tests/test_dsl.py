"""Parser and serializer for the front text format."""

import json
import pathlib

import pytest
from hypothesis import given

from lagsurf.dsl import (
    FrontDocument,
    FrontSemanticError,
    FrontSyntaxError,
    document_from_diagram,
    parse_front,
    serialize_front,
)
from lagsurf.fronts import EventKind, FrontEvent

from helpers import front_diagrams

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def test_parse_basic_document():
    doc = parse_front("front unknot\nL 1\nR 1\n")
    assert doc.name == "unknot"
    assert doc.events == (
        FrontEvent(EventKind.LEFT_CUSP, 1),
        FrontEvent(EventKind.RIGHT_CUSP, 1),
    )
    assert doc.orient_directives == ()


def test_parse_skips_comments_and_blanks():
    text = "# a comment\n\nfront demo\nL 1   # trailing note\n\nR 1\n"
    doc = parse_front(text)
    assert doc.name == "demo"
    assert len(doc.events) == 2


def test_parse_orient_lines():
    doc = parse_front("front h\nL 1\nL 2\nX 1\nX 3\nR 2\nR 1\norient 1 -\n")
    assert doc.orient_directives == ((1, -1),)
    diagram = doc.to_diagram()
    assert diagram.orientations == (1, -1)


def test_headerless_document_is_normalized():
    doc = parse_front("L 1\nR 1\n")
    assert doc.name == "unnamed"
    again = parse_front(serialize_front(doc))
    assert again == doc


def test_bad_position_token_carries_location():
    with pytest.raises(FrontSyntaxError) as err:
        parse_front("L one\n")
    assert err.value.line == 1
    assert err.value.column == 3
    assert "position" in err.value.expected
    assert err.value.found == "one"


@pytest.mark.parametrize(
    "text",
    [
        "wobble 1\n",
        "front a b\n",
        "front a/b\n",
        "front\n",
        "L 1\nfront late\n",
        "L 0\n",
        "L 1 2\n",
        "orient 0 *\n",
        "orient zero +\n",
        "orient 0\n",
    ],
)
def test_syntax_rejections(text):
    with pytest.raises(FrontSyntaxError):
        parse_front(text)


def test_syntax_error_message_format():
    with pytest.raises(FrontSyntaxError, match=r"line 2, column 1: expected"):
        parse_front("front ok\nnonsense\n")


def test_unclosed_word_is_semantic_not_syntactic():
    doc = parse_front("front open\nL 1\n")
    with pytest.raises(FrontSemanticError, match="open"):
        doc.to_diagram()


def test_orient_out_of_range_is_semantic():
    doc = parse_front("front u\nL 1\nR 1\norient 3 -\n")
    with pytest.raises(FrontSemanticError, match="component 3"):
        doc.to_diagram()


def test_corpus_round_trips_and_matches_manifest():
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    files = sorted(CORPUS.glob("*.front"))
    assert len(files) == 20
    for path in files:
        doc = parse_front(path.read_text())
        assert parse_front(serialize_front(doc)) == doc, path.name
        diagram = doc.to_diagram()
        entry = manifest["files"][doc.name]
        assert diagram.component_count == entry["components"]
        assert [list(p) for p in diagram.classical_invariants()] == entry["invariants"]
        assert [list(r) for r in diagram.linking_matrix()] == entry["linking"]


@given(front_diagrams())
def test_any_diagram_survives_the_text_format(diagram):
    doc = document_from_diagram("probe", diagram)
    again = parse_front(serialize_front(doc))
    assert again == doc
    rebuilt = again.to_diagram()
    assert rebuilt.events == diagram.events
    assert rebuilt.orientations == diagram.orientations


def test_serialize_explicit_example():
    doc = FrontDocument(
        "kink",
        (
            FrontEvent(EventKind.LEFT_CUSP, 1),
            FrontEvent(EventKind.CROSSING, 1),
            FrontEvent(EventKind.RIGHT_CUSP, 1),
        ),
        ((0, -1),),
    )
    assert serialize_front(doc) == "front kink\nL 1\nX 1\nR 1\norient 0 -\n"
