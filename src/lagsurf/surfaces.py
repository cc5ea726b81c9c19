"""Assembly bookkeeping for singular Lagrangian surfaces bounded by fronts.

A :class:`SurfaceComplex` records exactly the data the classification layer
consumes: Euler characteristic, orientability, one (possibly empty) front
diagram holding every boundary component together with its linking data, and
a list of cone points, each modeled on a Legendrian unknot with classical
invariants ``(tb, rot)``.  The geometry itself is abstracted away; each
operation rewrites the records the way the corresponding surgery would, and
the Euler number of the associated disk bundle is always

    e = -chi + sum(tb_i + 1)    over the cone points.

Two front-level operations do real diagram work: attaching a tube between
two facing cusps (which rewrites the boundary word and can disorient the
surface) and replaying a rewrite witness along a cylinder.

A complex keeps no log of how it was built, so two complexes with the same
records are equal; a surface script (``lagsurf surface build``) is the
record of a construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .classify import check_closed_surface
from .fronts import FrontDiagram, FrontError
from .moves import MoveInstance, MoveNotApplicable, align_facing_cusps, replay_moves


class SurfaceError(Exception):
    """Base class for surface assembly errors."""


class OpenBoundary(SurfaceError):
    """Operation needs a closed surface but the boundary is nonempty."""


class BoundaryNotUnknotCompatible(SurfaceError):
    """Capped boundary component does not match the unknot-range model."""


class AlreadyBasic(SurfaceError):
    """Cone point already has tb = -2; nothing to split."""


class TrivialCone(SurfaceError):
    """Cone point with tb = -1 is a smooth point; splitting is meaningless."""


class CuspsNotInwardFacing(SurfaceError):
    """Designated events are not a merge/birth pair that can face each other."""


class InvalidWitness(SurfaceError):
    """Rewrite witness does not take the boundary front to the target."""


class OrientableSurface(SurfaceError):
    """Smoothing a single cone point is only supported on one-sided surfaces."""


class NotBasicSingularity(SurfaceError):
    """Operation needs a cone point with tb = -2."""


class NoConePoint(NotBasicSingularity):
    """The index names no cone point of the complex, so no basic one either."""


class NoBoundaryComponent(SurfaceError):
    """The index names no component of the boundary front."""


def _unknot_range(tb: int, rot: int) -> bool:
    return tb <= -1 and abs(rot) <= -tb - 1 and (rot - tb - 1) % 2 == 0


@dataclass(frozen=True)
class Singularity:
    """An isolated cone point, modeled on a Legendrian unknot.

    ``umbrella`` is a display flag: a basic cone point (tb = -2, rot = +-1)
    may equivalently be presented as an open Whitney umbrella.  The flag
    never affects any computed quantity.
    """

    model_tb: int
    model_rot: int
    umbrella: bool = False

    def __post_init__(self) -> None:
        if not _unknot_range(self.model_tb, self.model_rot):
            raise ValueError(
                f"({self.model_tb}, {self.model_rot}) is outside the unknot range"
            )
        if self.umbrella and self.model_tb != -2:
            raise ValueError("only basic cone points can be marked as umbrellas")


BASIC_POSITIVE = Singularity(-2, 1)
BASIC_NEGATIVE = Singularity(-2, -1)


@dataclass(frozen=True)
class SurfaceComplex:
    """One singular surface: characteristic, sidedness, boundary, cone points.

    ``boundary`` is a single front diagram whose components are the boundary
    curves; linking between them is read off the diagram.  An empty diagram
    means a closed surface.
    """

    chi: int
    orientable: bool
    boundary: FrontDiagram
    singularities: tuple[Singularity, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "singularities", tuple(self.singularities))
        if self.is_closed:
            check_closed_surface(self.chi, self.orientable)

    @property
    def is_closed(self) -> bool:
        return self.boundary.component_count == 0


@dataclass(frozen=True)
class DiskBundle:
    """A disk bundle over a closed surface, up to isomorphism: (chi, e)."""

    chi: int
    euler: int
    orientable: bool = False

    def __post_init__(self) -> None:
        check_closed_surface(self.chi, self.orientable)


def euler_number(s: SurfaceComplex) -> int:
    """Euler number of the disk bundle a closed complex sits inside."""
    if not s.is_closed:
        raise OpenBoundary("euler_number needs an empty boundary")
    return -s.chi + sum(sing.model_tb + 1 for sing in s.singularities)


def cone_cap(s: SurfaceComplex, boundary_index: int, model: FrontDiagram) -> SurfaceComplex:
    """Cap a boundary component with the cone over an unknot model.

    The component must carry the model's invariants (rot up to the sign
    flipped by re-orienting the collar) and be unlinked from every other
    boundary component.  Capping with the trivial model (-1, 0) is a smooth
    disk and records no cone point.
    """
    if model.component_count != 1:
        raise BoundaryNotUnknotCompatible("cap model must be a knot")
    ((model_tb, model_rot),) = model.classical_invariants()
    if not _unknot_range(model_tb, model_rot):
        raise BoundaryNotUnknotCompatible(
            f"model invariants ({model_tb}, {model_rot}) outside the unknot range"
        )
    invariants = s.boundary.classical_invariants()
    if not 0 <= boundary_index < len(invariants):
        raise NoBoundaryComponent(f"no boundary component {boundary_index}")
    tb, rot = invariants[boundary_index]
    if (tb, abs(rot)) != (model_tb, abs(model_rot)):
        raise BoundaryNotUnknotCompatible(
            f"boundary ({tb}, {rot}) does not match model ({model_tb}, {model_rot})"
        )
    if any(s.boundary.linking_matrix()[boundary_index]):
        raise BoundaryNotUnknotCompatible("capped component must be unlinked")
    sings = s.singularities
    if (model_tb, model_rot) != (-1, 0):
        sings = sings + (Singularity(model_tb, model_rot),)
    return replace(
        s,
        chi=s.chi + 1,
        boundary=s.boundary.delete_component(boundary_index),
        singularities=sings,
    )


def _cone_point(s: SurfaceComplex, singularity_index: int) -> Singularity:
    """The cone point at ``singularity_index``; negative indices name none."""
    if not 0 <= singularity_index < len(s.singularities):
        raise NoConePoint(f"no cone point {singularity_index}")
    return s.singularities[singularity_index]


def split_cone(s: SurfaceComplex, singularity_index: int) -> SurfaceComplex:
    """Replace one cone point of tb = -1-n by n basic cone points.

    The basic points carry rot = +-1 summing to the original rot; nothing
    else changes, and the Euler number is preserved since each contributes
    tb + 1 = -1.
    """
    sing = _cone_point(s, singularity_index)
    if sing.model_tb == -1:
        raise TrivialCone("tb = -1 cone is a smooth point")
    if sing.model_tb == -2:
        raise AlreadyBasic("cone point is already basic")
    n = -1 - sing.model_tb
    positives = (n + sing.model_rot) // 2
    pieces = (BASIC_POSITIVE,) * positives + (BASIC_NEGATIVE,) * (n - positives)
    sings = (
        s.singularities[:singularity_index]
        + pieces
        + s.singularities[singularity_index + 1 :]
    )
    return replace(s, singularities=sings)


def mark_umbrella(s: SurfaceComplex, singularity_index: int, umbrella: bool = True) -> SurfaceComplex:
    """Toggle the umbrella presentation flag on a basic cone point."""
    sing = _cone_point(s, singularity_index)
    if sing.model_tb != -2:
        raise NotBasicSingularity("only basic cone points have an umbrella form")
    sings = list(s.singularities)
    sings[singularity_index] = replace(sing, umbrella=umbrella)
    return replace(s, singularities=tuple(sings))


def one_handle(s: SurfaceComplex, cusp_a: int, cusp_b: int) -> SurfaceComplex:
    """Attach a tube between two facing cusps of the boundary front.

    ``cusp_a`` and ``cusp_b`` are event indices of one merge (right) cusp
    and one birth (left) cusp, in either order.  The events are slid until
    adjacent at one height and then cancelled, which threads the four arcs
    straight through.  chi drops by one.  When both cusps lie on a single
    component and their traversal senses agree, the tube is disorienting and
    the result is one-sided.
    """
    events = s.boundary.events
    for index in (cusp_a, cusp_b):
        if not 0 <= index < len(events):
            raise CuspsNotInwardFacing(f"no event {index}")
    kinds = {events[cusp_a].kind.value, events[cusp_b].kind.value}
    if kinds != {"L", "R"}:
        raise CuspsNotInwardFacing("need one merge cusp and one birth cusp")
    if events[cusp_a].kind.value == "R":
        right_index, left_index = cusp_a, cusp_b
    else:
        right_index, left_index = cusp_b, cusp_a

    by_event = {c.event: c for c in s.boundary.cusps()}
    right_cusp, left_cusp = by_event[right_index], by_event[left_index]
    disorienting = (
        right_cusp.component == left_cusp.component
        and right_cusp.sense == left_cusp.sense
    )

    aligned = align_facing_cusps(events, right_index, left_index)
    if aligned is None:
        raise CuspsNotInwardFacing("cusps cannot be brought face to face by slides")
    word, j = aligned
    rewritten = FrontDiagram(word[:j] + word[j + 2 :])
    return replace(
        s,
        chi=s.chi - 1,
        orientable=s.orientable and not disorienting,
        boundary=rewritten,
    )


def isotopy_cylinder(
    s: SurfaceComplex, target: FrontDiagram, witness: list[MoveInstance]
) -> SurfaceComplex:
    """Replace the boundary front by a rewrite-equivalent target.

    ``witness`` must replay from the current boundary word exactly to the
    target's word; the cylinder changes no surface data.
    """
    try:
        final = replay_moves(s.boundary.events, witness)
    except (MoveNotApplicable, FrontError) as exc:
        raise InvalidWitness(str(exc)) from exc
    if final != target.events:
        raise InvalidWitness("witness does not reach the target word")
    if sorted(s.boundary.classical_invariants()) != sorted(target.classical_invariants()):
        raise InvalidWitness("target orientations change the boundary invariants")
    return replace(s, boundary=target)


def mobius_smoothing(s: SurfaceComplex, singularity_index: int) -> SurfaceComplex:
    """Trade a basic cone point on a one-sided surface for a cross-cap.

    The cone point disappears into an embedded one-sided strip: chi drops by
    one and (on closed surfaces) the Euler number rises by two.  Two-sided
    surfaces are rejected: smoothing there needs extra pairing data that the
    bookkeeping does not carry.
    """
    if s.orientable:
        raise OrientableSurface("smoothing needs a one-sided surface")
    sing = _cone_point(s, singularity_index)
    if sing.model_tb != -2:
        raise NotBasicSingularity("smoothing needs a basic cone point")
    sings = (
        s.singularities[:singularity_index] + s.singularities[singularity_index + 1 :]
    )
    return replace(s, chi=s.chi - 1, singularities=sings)


def glue_mobius_three_umbrellas(s: SurfaceComplex) -> SurfaceComplex:
    """Swap a smooth disk of a closed complex for the three-cone strip.

    Removing a disk and gluing in the one-sided strip with three basic cone
    points and trivial boundary drops chi by one, makes the surface
    one-sided, and lowers the Euler number by two.
    """
    if not s.is_closed:
        raise OpenBoundary("gluing the strip needs a closed complex")
    return replace(
        s,
        chi=s.chi - 1,
        orientable=False,
        singularities=s.singularities + (BASIC_POSITIVE, BASIC_POSITIVE, BASIC_NEGATIVE),
    )


# -- catalog ---------------------------------------------------------------

# Connected sums of basic unknots, pinned as explicit words, with the event
# indices of the facing cusp pair used for the tube in each construction.
_PIECE_RECIPES = {
    "cylinder2": ("L1 L2 R1 L1 R2 R1", (2, 3)),
    "mobius3": ("L1 L2 R3 L3 X1 R2 R1", (2, 3)),
    "cylinder4": ("L1 L2 X1 X3 R1 L1 R2 R1", (4, 5)),
}


def piece(name: str) -> SurfaceComplex:
    """The catalog fragment ``name``, one of :func:`standard_pieces`."""
    if name not in _PIECE_RECIPES:
        raise ValueError(f"unknown piece {name!r}; have {sorted(_PIECE_RECIPES)}")
    recipe_word, handle = _PIECE_RECIPES[name]
    knot = FrontDiagram.from_word(recipe_word)
    ((tb, rot),) = knot.classical_invariants()
    cone = SurfaceComplex(
        chi=1,
        orientable=True,
        boundary=knot,
        singularities=(Singularity(tb, rot),),
    )
    return one_handle(split_cone(cone, 0), *handle)


def standard_pieces() -> dict[str, SurfaceComplex]:
    """The three catalog fragments used to assemble every table entry.

    * ``cylinder2``: two-sided, chi 0, two basic cone points, two unlinked
      trivial boundary circles.
    * ``mobius3``: one-sided, chi 0, three basic cone points, one trivial
      boundary circle.
    * ``cylinder4``: two-sided, chi 0, four basic cone points, two once
      linked trivial boundary circles.
    """
    return {name: piece(name) for name in _PIECE_RECIPES}


def klein_base() -> SurfaceComplex:
    """The closed one-sided chi = 0 complex with four basic cone points."""
    return SurfaceComplex(
        chi=0,
        orientable=False,
        boundary=FrontDiagram(()),
        singularities=(BASIC_POSITIVE, BASIC_POSITIVE, BASIC_NEGATIVE, BASIC_NEGATIVE),
    )


def genus_chain(genus: int) -> SurfaceComplex:
    """Closed two-sided surface of the given genus, chained from tori.

    Linking ``genus`` standard tori through 2*(genus-1) basic cone points
    gives chi = 2 - 2*genus with 2*genus - 2 cone points and Euler number 0.
    """
    if genus < 1:
        raise ValueError("genus_chain needs genus >= 1")
    count = 2 * genus - 2
    sings = tuple(
        BASIC_POSITIVE if i % 2 == 0 else BASIC_NEGATIVE for i in range(count)
    )
    return SurfaceComplex(
        chi=2 - 2 * genus,
        orientable=True,
        boundary=FrontDiagram(()),
        singularities=sings,
    )
