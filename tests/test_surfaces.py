import random

import pytest

from lagsurf.classify import InvalidSurface, massey_set
from lagsurf.fronts import FrontDiagram
from lagsurf.moves import equivalent_within
from lagsurf.surfaces import (
    AlreadyBasic,
    BoundaryNotUnknotCompatible,
    CuspsNotInwardFacing,
    DiskBundle,
    InvalidWitness,
    NoBoundaryComponent,
    NoConePoint,
    NotBasicSingularity,
    OpenBoundary,
    OrientableSurface,
    Singularity,
    SurfaceComplex,
    TrivialCone,
    cone_cap,
    euler_number,
    genus_chain,
    glue_mobius_three_umbrellas,
    isotopy_cylinder,
    klein_base,
    mark_umbrella,
    mobius_smoothing,
    one_handle,
    split_cone,
    standard_pieces,
)

TRIVIAL = FrontDiagram.from_word("L1 R1")
KINK = FrontDiagram.from_word("L1 X1 R1")  # (-2, -1)


def cone_over(front: FrontDiagram) -> SurfaceComplex:
    ((tb, rot),) = front.classical_invariants()
    return SurfaceComplex(
        chi=1,
        orientable=True,
        boundary=front,
        singularities=(Singularity(tb, rot),),
    )


def sing_values(s: SurfaceComplex) -> list[tuple[int, int]]:
    return [(x.model_tb, x.model_rot) for x in s.singularities]


# -- catalog ----------------------------------------------------------------


def test_standard_pieces_catalog():
    pieces = standard_pieces()
    assert set(pieces) == {"cylinder2", "mobius3", "cylinder4"}

    a = pieces["cylinder2"]
    assert (a.chi, a.orientable) == (0, True)
    assert sing_values(a) == [(-2, 1), (-2, -1)]
    assert a.boundary.classical_invariants() == ((-1, 0), (-1, 0))
    assert a.boundary.linking_number(0, 1) == 0

    b = pieces["mobius3"]
    assert (b.chi, b.orientable) == (0, False)
    assert sing_values(b) == [(-2, 1), (-2, 1), (-2, -1)]
    assert b.boundary.classical_invariants() == ((-1, 0),)

    c = pieces["cylinder4"]
    assert (c.chi, c.orientable) == (0, True)
    assert sing_values(c) == [(-2, 1), (-2, 1), (-2, -1), (-2, -1)]
    assert c.boundary.classical_invariants() == ((-1, 0), (-1, 0))
    assert abs(c.boundary.linking_number(0, 1)) == 1


def test_klein_base():
    k = klein_base()
    assert k.is_closed and not k.orientable and k.chi == 0
    assert len(k.singularities) == 4
    assert euler_number(k) == -4


def test_genus_chain():
    torus = genus_chain(1)
    assert (torus.chi, torus.orientable, torus.singularities) == (0, True, ())
    assert euler_number(torus) == 0
    for g in range(1, 7):
        s = genus_chain(g)
        assert s.chi == 2 - 2 * g
        assert len(s.singularities) == 2 * g - 2
        assert euler_number(s) == 0
    with pytest.raises(ValueError):
        genus_chain(0)


# -- euler_number -----------------------------------------------------------


def test_euler_number_requires_closed():
    with pytest.raises(OpenBoundary):
        euler_number(standard_pieces()["cylinder2"])


def test_euler_number_formula():
    s = SurfaceComplex(0, False, FrontDiagram(()), (Singularity(-2, 1),) * 4)
    assert euler_number(s) == -4
    s = SurfaceComplex(-2, True, FrontDiagram(()), (Singularity(-3, 0),))
    assert euler_number(s) == 2 + (-2)


# -- cone_cap ---------------------------------------------------------------


def test_cone_cap_trivial_is_smooth():
    disk = SurfaceComplex(1, True, TRIVIAL)
    capped = cone_cap(disk, 0, TRIVIAL)
    assert capped.is_closed and capped.chi == 2
    assert capped.singularities == ()


def test_cone_cap_records_model():
    capped = cone_cap(cone_over(KINK), 0, KINK)
    assert capped.chi == 2 and capped.is_closed
    assert sing_values(capped) == [(-2, -1), (-2, -1)]
    assert euler_number(capped) == -2 + 2 * (-1)


def test_cone_cap_mismatch():
    disk = SurfaceComplex(1, True, TRIVIAL)
    with pytest.raises(BoundaryNotUnknotCompatible):
        cone_cap(disk, 0, KINK)
    hopf_piece = standard_pieces()["cylinder4"]
    with pytest.raises(BoundaryNotUnknotCompatible):
        cone_cap(hopf_piece, 0, TRIVIAL)  # linked boundary component
    with pytest.raises(BoundaryNotUnknotCompatible):
        cone_cap(disk, 0, FrontDiagram.from_word("L1 R1 L1 R1"))  # not a knot
    trefoil = FrontDiagram.from_word("L1 L2 X1 X1 X1 R2 R1")  # (1, 0)
    with pytest.raises(BoundaryNotUnknotCompatible, match="outside the unknot range"):
        cone_cap(disk, 0, trefoil)


def test_indices_out_of_range_are_typed():
    # negative indices name no cone point or component: none counts from the end
    k = klein_base()
    for operation in (split_cone, mark_umbrella, mobius_smoothing):
        for index in (-1, len(k.singularities)):
            with pytest.raises(NoConePoint, match=f"no cone point {index}"):
                operation(k, index)
    disk = SurfaceComplex(1, True, TRIVIAL)
    for index in (-1, 1):
        with pytest.raises(NoBoundaryComponent, match=f"no boundary component {index}"):
            cone_cap(disk, index, TRIVIAL)


def test_cone_cap_closes_catalog_pieces():
    a = standard_pieces()["cylinder2"]
    once = cone_cap(a, 0, TRIVIAL)
    twice = cone_cap(once, 0, TRIVIAL)
    assert twice.is_closed and twice.chi == 2
    assert euler_number(twice) == -2 + 2 * (-1)

    b = standard_pieces()["mobius3"]
    capped = cone_cap(b, 0, TRIVIAL)
    assert capped.is_closed and capped.chi == 1 and not capped.orientable
    assert euler_number(capped) == -1 + 3 * (-1)


# -- split_cone -------------------------------------------------------------


def test_split_cone_examples():
    two = split_cone(cone_over(FrontDiagram.from_word("L1 L2 R1 L1 R2 R1")), 0)
    assert sing_values(two) == [(-2, 1), (-2, -1)]

    three = split_cone(cone_over(FrontDiagram.from_word("L1 L2 R3 L3 X1 R2 R1")), 0)
    assert sing_values(three) == [(-2, 1), (-2, 1), (-2, -1)]


def test_split_cone_preserves_euler_number():
    big = cone_cap(cone_over(KINK), 0, KINK)  # closed, two (-2,-1) points
    widened = SurfaceComplex(0, True, FrontDiagram(()), (Singularity(-5, 0),))
    assert euler_number(split_cone(widened, 0)) == euler_number(widened)
    assert (split_cone(widened, 0).chi, split_cone(widened, 0).orientable) == (0, True)
    with pytest.raises(AlreadyBasic):
        split_cone(big, 0)
    trivial_cone = SurfaceComplex(0, True, FrontDiagram(()), (Singularity(-1, 0),))
    with pytest.raises(TrivialCone):
        split_cone(trivial_cone, 0)


# -- one_handle -------------------------------------------------------------


def test_one_handle_joins_components():
    pair = SurfaceComplex(2, True, FrontDiagram.from_word("L1 R1 L1 R1"))
    joined = one_handle(pair, 1, 2)
    assert joined.chi == 1
    assert joined.boundary.component_count == 1
    assert joined.orientable
    assert one_handle(pair, 2, 1) == joined  # the birth cusp named first


def test_one_handle_bad_cusps():
    pair = SurfaceComplex(2, True, FrontDiagram.from_word("L1 R1 L1 R1"))
    with pytest.raises(CuspsNotInwardFacing):
        one_handle(pair, 0, 2)  # two birth cusps
    with pytest.raises(CuspsNotInwardFacing):
        one_handle(pair, 1, 9)


def test_one_handle_alignment_failure():
    # facing cusps separated by an interacting crossing cannot slide together
    front = FrontDiagram.from_word("L1 L2 X1 R2 R1")
    s = SurfaceComplex(1, True, front)
    with pytest.raises(CuspsNotInwardFacing):
        one_handle(s, 3, 1)


def test_one_handle_slides_cusps_face_to_face():
    # the merge (event 5) reaches the birth (event 2) only after several slides
    s = SurfaceComplex(1, True, FrontDiagram.from_word("L1 X1 L3 X3 R3 R1"))
    joined = one_handle(s, 5, 2)
    assert joined.boundary.events == FrontDiagram.from_word("L1 X1 X1 R1").events
    assert (joined.chi, joined.orientable) == (0, True)
    assert joined.boundary.component_count == 1


# -- isotopy_cylinder -------------------------------------------------------


def test_isotopy_cylinder_identity():
    s = SurfaceComplex(1, True, TRIVIAL)
    assert isotopy_cylinder(s, TRIVIAL, []).boundary == TRIVIAL


def test_isotopy_cylinder_with_found_witness():
    zig = FrontDiagram.from_word("L1 L1 R2 R1")
    other = FrontDiagram.from_word("L1 L2 X1 X2 R2 R1")
    witness = equivalent_within(zig, other, depth=3)
    assert witness is not None
    s = SurfaceComplex(1, True, zig, (Singularity(-2, -1),))
    moved = isotopy_cylinder(s, other, witness)
    assert moved.boundary == other
    assert (moved.chi, moved.orientable, moved.singularities) == (
        1,
        True,
        (Singularity(-2, -1),),
    )


def test_isotopy_cylinder_rejects_bad_witness():
    zig = FrontDiagram.from_word("L1 L1 R2 R1")
    other = FrontDiagram.from_word("L1 L2 X1 X2 R2 R1")
    witness = equivalent_within(zig, other, depth=3)
    s = SurfaceComplex(1, True, zig)
    with pytest.raises(InvalidWitness):
        isotopy_cylinder(s, zig, witness)  # lands on other, not zig
    with pytest.raises(InvalidWitness):
        isotopy_cylinder(s, other, [])  # stays on zig
    with pytest.raises(InvalidWitness):
        isotopy_cylinder(s, other, witness + witness)  # overshoots the target
    with pytest.raises(InvalidWitness, match="orientations"):
        isotopy_cylinder(s, zig.reverse(), [])  # same word, rot negated


# -- mobius_smoothing and the strip gluing ----------------------------------


def test_mobius_smoothing_steps():
    k = klein_base()
    smoothed = mobius_smoothing(k, 0)
    assert (smoothed.chi, len(smoothed.singularities)) == (-1, 3)
    assert euler_number(smoothed) == -2
    with pytest.raises(OrientableSurface):
        mobius_smoothing(genus_chain(2), 0)
    with pytest.raises(NotBasicSingularity):
        mobius_smoothing(SurfaceComplex(0, False, FrontDiagram(())), 0)
    widened = SurfaceComplex(0, False, FrontDiagram(()), (Singularity(-3, 0),))
    with pytest.raises(NotBasicSingularity, match="needs a basic cone point"):
        mobius_smoothing(widened, 0)


def test_glue_strip_steps():
    k = klein_base()
    glued = glue_mobius_three_umbrellas(k)
    assert (glued.chi, len(glued.singularities)) == (-1, 7)
    assert euler_number(glued) == -6

    torus = genus_chain(1)
    glued = glue_mobius_three_umbrellas(torus)
    assert (glued.chi, glued.orientable) == (-1, False)
    assert euler_number(glued) == -2
    with pytest.raises(OpenBoundary):
        glue_mobius_three_umbrellas(standard_pieces()["mobius3"])


def test_mark_umbrella_roundtrip():
    k = klein_base()
    marked = mark_umbrella(k, 2)
    assert marked.singularities[2].umbrella
    assert (marked.chi, marked.orientable) == (k.chi, k.orientable)
    assert euler_number(marked) == euler_number(k)
    assert not mark_umbrella(marked, 2, False).singularities[2].umbrella
    widened = SurfaceComplex(0, True, FrontDiagram(()), (Singularity(-3, 0),))
    with pytest.raises(NotBasicSingularity):
        mark_umbrella(widened, 0)


# -- type validation --------------------------------------------------------


def test_singularity_validation():
    with pytest.raises(ValueError):
        Singularity(0, 1)
    with pytest.raises(ValueError):
        Singularity(-2, 0)  # parity
    with pytest.raises(ValueError):
        Singularity(-2, 3)  # range
    with pytest.raises(ValueError):
        Singularity(-3, 0, umbrella=True)


def test_closed_surface_validation():
    with pytest.raises(ValueError):
        SurfaceComplex(1, True, FrontDiagram(()))  # odd chi, two-sided
    with pytest.raises(ValueError):
        SurfaceComplex(4, True, FrontDiagram(()))
    with pytest.raises(ValueError):
        SurfaceComplex(2, False, FrontDiagram(()))
    SurfaceComplex(1, False, FrontDiagram(()))  # projective plane is fine


def test_disk_bundle_validation():
    DiskBundle(0, -4)
    DiskBundle(2, 0, orientable=True)
    with pytest.raises(ValueError):
        DiskBundle(1, 0, orientable=True)
    with pytest.raises(ValueError):
        DiskBundle(2, 0)



@pytest.mark.parametrize("orientable", [True, False])
@pytest.mark.parametrize("chi", range(-6, 5))
def test_one_closed_surface_rule(chi, orientable):
    builders = [
        lambda: DiskBundle(chi, 0, orientable),
        lambda: SurfaceComplex(chi, orientable, FrontDiagram(())),
        lambda: massey_set(chi, orientable),
    ]
    exists = chi <= 2 and chi % 2 == 0 if orientable else chi <= 1
    for build in builders:
        if exists:
            build()
        else:
            with pytest.raises(InvalidSurface):
                build()

# -- random assembly bookkeeping ---------------------------------------------


def test_random_assembly_replays_match_deltas():
    rng = random.Random(2024)
    for _ in range(120):
        roll = rng.randrange(3)
        if roll == 0:
            s = klein_base()
        elif roll == 1:
            s = genus_chain(rng.randint(1, 5))
        else:
            width = rng.randint(2, 5)
            rot = rng.choice([r for r in range(-width, width + 1) if (r - width) % 2 == 0])
            s = SurfaceComplex(
                0, False, FrontDiagram(()), (Singularity(-1 - width, rot),)
            )
        expected = euler_number(s)
        for _ in range(rng.randint(1, 8)):
            options = ["glue"]
            if not s.orientable and any(x.model_tb == -2 for x in s.singularities):
                options.append("smooth")
            if any(x.model_tb <= -3 for x in s.singularities):
                options.append("split")
            if any(x.model_tb == -2 for x in s.singularities):
                options.append("mark")
            op = rng.choice(options)
            if op == "glue":
                s = glue_mobius_three_umbrellas(s)
                expected -= 2
            elif op == "smooth":
                index = rng.choice(
                    [i for i, x in enumerate(s.singularities) if x.model_tb == -2]
                )
                s = mobius_smoothing(s, index)
                expected += 2
            elif op == "split":
                index = rng.choice(
                    [i for i, x in enumerate(s.singularities) if x.model_tb <= -3]
                )
                s = split_cone(s, index)
            else:
                index = rng.choice(
                    [i for i, x in enumerate(s.singularities) if x.model_tb == -2]
                )
                s = mark_umbrella(s, index)
            assert euler_number(s) == expected
        # closed one-sided surfaces made only of basic points: count = -e - chi
        if all(x.model_tb == -2 for x in s.singularities):
            assert len(s.singularities) == -euler_number(s) - s.chi
