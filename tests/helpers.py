"""Shared generators for the test suite (plain-random and hypothesis flavors)."""

from __future__ import annotations

import heapq
import random

import hypothesis.strategies as st

from lagsurf.fronts import EventKind, FrontDiagram, FrontEvent
from lagsurf.moves import commute_pair


def random_word(
    rng: random.Random, max_events: int = 12, max_strands: int = 6
) -> tuple[FrontEvent, ...]:
    """A valid closed word built by simulating the strand stack."""
    events: list[FrontEvent] = []
    n = 0
    target = rng.randint(2, max_events)
    while True:
        if n == 0:
            if len(events) >= target:
                break
            kind = "L"
        elif len(events) >= target:
            kind = "R"
        else:
            options = ["X", "R", "R"]
            if n < max_strands:
                options += ["L", "L"]
            kind = rng.choice(options)
        if kind == "L":
            pos = rng.randint(1, n + 1)
            n += 2
        else:
            pos = rng.randint(1, n - 1)
            if kind == "R":
                n -= 2
        events.append(FrontEvent(EventKind(kind), pos))
    return tuple(events)


def random_diagram(rng: random.Random, **kwargs) -> FrontDiagram:
    base = FrontDiagram(random_word(rng, **kwargs))
    orientations = tuple(rng.choice((1, -1)) for _ in range(base.component_count))
    return base.with_orientations(orientations)


def random_knot(rng: random.Random, **kwargs) -> FrontDiagram:
    while True:
        diagram = random_diagram(rng, **kwargs)
        if diagram.component_count == 1:
            return diagram


@st.composite
def front_words(draw, max_events: int = 12, max_strands: int = 6):
    events: list[FrontEvent] = []
    n = 0
    target = draw(st.integers(min_value=2, max_value=max_events))
    while True:
        if n == 0:
            if len(events) >= target:
                break
            kind = "L"
        elif len(events) >= target:
            kind = "R"
        else:
            options = ["X", "R", "R"]
            if n < max_strands:
                options += ["L", "L"]
            kind = draw(st.sampled_from(options))
        if kind == "L":
            pos = draw(st.integers(min_value=1, max_value=n + 1))
            n += 2
        else:
            pos = draw(st.integers(min_value=1, max_value=n - 1))
            if kind == "R":
                n -= 2
        events.append(FrontEvent(EventKind(kind), pos))
    return tuple(events)


@st.composite
def front_diagrams(draw, **kwargs):
    base = FrontDiagram(draw(front_words(**kwargs)))
    orientations = tuple(
        draw(st.sampled_from((1, -1))) for _ in range(base.component_count)
    )
    return base.with_orientations(orientations)


def knot_diagrams(**kwargs):
    return front_diagrams(**kwargs).filter(lambda d: d.component_count == 1)


def reference_slide_closure(
    events: tuple[FrontEvent, ...], cap: int = 2048
) -> set[tuple[FrontEvent, ...]]:
    """Slide relatives of a word by a plain heap BFS over ``commute_pair``.

    Works on ``FrontEvent`` words throughout and pops the least word first,
    stopping once ``cap`` words are seen, so a capped class keeps exactly the
    words the library's closure keeps.
    """
    seen = {events}
    heap = [events]
    while heap and len(seen) < cap:
        current = heapq.heappop(heap)
        for i in range(len(current) - 1):
            swapped = commute_pair(current[i], current[i + 1])
            if swapped is None:
                continue
            nxt = current[:i] + swapped + current[i + 2 :]
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, nxt)
    return seen
