"""Embeddability tables for disk bundles over closed surfaces.

For a closed surface of Euler characteristic ``chi`` (two-sided or not),
three nested sets of Euler numbers ``e`` are computable in closed form: the
values realized by smooth embeddings in complex 2-space, the values realized
by Stein-domain embeddings, and the values realized by rationally convex
embeddings.  The last differs from the Stein set by exactly two excluded
one-sided pairs, ``(chi, e) = (1, -2)`` and ``(0, 0)``.  A fourth set
translates Euler numbers into allowed counts of basic cone points,
:func:`umbrella_count`, ``k = -chi - e``.

All four are arithmetic progressions of step 4 before exclusions.  Invalid
``(chi, orientable)`` pairs are rejected with :class:`InvalidSurface` rather
than returning an empty set, to keep "no such surface" distinct from
"surface exists but embeds nowhere".  :func:`check_closed_surface` is the
one statement of which closed surfaces exist; the surface layer's closed
complexes and disk bundles call it too.
"""

from __future__ import annotations


class InvalidSurface(ValueError):
    """No closed surface has this (chi, orientable) combination."""


def check_closed_surface(chi: int, orientable: bool) -> None:
    """Raise :class:`InvalidSurface` unless a closed surface has this chi.

    Two-sided closed surfaces have even chi of at most 2; one-sided ones
    have chi of at most 1.
    """
    if orientable and (chi % 2 or chi > 2):
        raise InvalidSurface(f"no closed two-sided surface has chi = {chi}")
    if not orientable and chi > 1:
        raise InvalidSurface(f"no closed one-sided surface has chi = {chi}")


def massey_set(chi: int, orientable: bool = False) -> set[int]:
    """Euler numbers of smooth embeddings.

    Two-sided surfaces embed only with e = 0; one-sided surfaces realize the
    progression 2*chi - 4, ..., 4 - 2*chi.
    """
    check_closed_surface(chi, orientable)
    if orientable:
        return {0}
    return {2 * chi - 4 + 4 * j for j in range(2 - chi + 1)}


def stein_set(chi: int, orientable: bool = False) -> set[int]:
    """Euler numbers of Stein-domain embeddings.

    The one-sided progression keeps the smooth lower end 2*chi - 4 but is
    truncated above at -2*chi + 4*floor(chi/4); floor is toward minus
    infinity, which is what makes the chi = -5 row end at e = 2.
    """
    check_closed_surface(chi, orientable)
    if orientable:
        return {0} if chi <= 0 else set()
    top = -2 * chi + 4 * (chi // 4)
    return set(range(2 * chi - 4, top + 1, 4))


def rationally_convex_set(chi: int, orientable: bool = False) -> set[int]:
    """Euler numbers of rationally convex embeddings.

    The Stein set minus the two exceptional one-sided pairs (1, -2) and
    (0, 0); for two-sided surfaces the sphere (chi = 2) is excluded and all
    other Stein values survive.
    """
    values = stein_set(chi, orientable)
    if not orientable and chi == 1:
        values -= {-2}
    if not orientable and chi == 0:
        values -= {0}
    return values


def umbrella_count(chi: int, e: int) -> int:
    """The count of basic cone points, k = -chi - e, of the bundle (chi, e).

    Each basic cone point contributes -1 to e on a surface whose smooth part
    contributes -chi.
    """
    return -chi - e


def umbrella_set(chi: int, orientable: bool = False) -> set[int]:
    """Allowed counts of basic cone points: the image of
    :func:`rationally_convex_set` under :func:`umbrella_count`.
    """
    return {umbrella_count(chi, e) for e in rationally_convex_set(chi, orientable)}


def lai_relative(
    e_plus: int, e_minus: int, h_plus: int, h_minus: int, chi: int
) -> tuple[int, int]:
    """Boundary invariants of a surface with marked complex tangencies.

    Given counts of elliptic and hyperbolic tangency points split by sign,
    the boundary knot of a chi-characteristic piece satisfies

        tb = e+ + e- - h+ - h- - chi
        rot = e+ - e- - h+ + h-

    Example: one negative hyperbolic point on a disk gives (-2, 1).
    """
    counts = (e_plus, e_minus, h_plus, h_minus)
    if any(c < 0 for c in counts):
        raise ValueError(f"tangency counts must be nonnegative, got {counts}")
    tb = e_plus + e_minus - h_plus - h_minus - chi
    rot = e_plus - e_minus - h_plus + h_minus
    return tb, rot
