"""Sphere-side integer oracles: linking, contact framing, tangent winding.

Curves live on the unit sphere in (q1, p1, q2, p2)-space and are passed
around as (N, 4) sample arrays, closed implicitly (sample N wraps to 0).
Linking numbers are computed combinatorially: stereographic projection to
3-space away from both curves, then a generic planar projection with signed
crossings.  A Gauss-integral route over the same 3-space images is provided
separately as a cross-check; the two must agree and are never merged.

Sign conventions are pinned by one anchor: two distinct fibres of the
circle action (z1, z2) -> e^{i eps}(z1, z2) link +1.  With that choice the
contact-framing number of the flat real circle comes out -1, as it must.

The contact-framing oracle pushes a curve off along the circle action (the
Reeb flow of the radial contact form) and links it with its own push-off.
The tangent-winding oracle trivializes the contact planes by the global
complex line field spanned by (-conj(z2), conj(z1)); in that frame a curve's
tangent is the complex scalar h(s) = z1 T2 - z2 T1, and the oracle returns
its winding number.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class DegenerateProjection(RuntimeError):
    """No tried projection separated the curves' crossings cleanly."""


class SelfIntersectingSamples(ValueError):
    """Input samples are not embedded at their own resolution."""


class TangentDegenerate(ValueError):
    """Discrete tangent (or its contact-frame image) vanishes somewhere."""


_VIEW_SEEDS = (0.0, 0.37, 0.71, 1.13, 1.62, 2.31)

# Elements per block of an all-pairs scan, and candidate pairs per chunk.
_TILE_ELEMENTS = 1 << 16
_CHUNK = 1 << 16


def _require_embedded(curve: np.ndarray) -> None:
    """Reject sample sets whose non-neighbours collide at sample resolution.

    A self-join of the samples at ``threshold``, half the longest step: the
    pairs :func:`_near_pairs` finds that are more than two steps apart along
    the curve get their exact 4-D distances compared with it.  A non-finite
    sample makes the threshold non-finite, and then no pair is compared.
    """
    n = len(curve)
    if n < 8:
        raise SelfIntersectingSamples("too few samples to resolve a closed curve")
    gaps = np.linalg.norm(np.roll(curve, -1, axis=0) - curve, axis=1)
    threshold = 0.5 * float(np.max(gaps))
    if not math.isfinite(threshold):
        return
    for i, j in _near_pairs(curve, curve, threshold, self_join=True):
        band = np.abs(i - j)
        band = np.minimum(band, n - band)
        i, j = i[band > 2], j[band > 2]
        dist = np.linalg.norm(curve[i] - curve[j], axis=-1)
        if dist.size and float(np.min(dist)) < threshold:
            raise SelfIntersectingSamples(
                "non-adjacent samples closer than half a sample step"
            )


def _near_pairs(a: np.ndarray, b: np.ndarray, reach: float, self_join: bool = False):
    """Yield index arrays ``(i, j)`` of rows of ``a`` and ``b`` in neighbouring cells.

    A join on a grid of cells a hair over ``reach`` wide, so a pair of rows
    within ``reach`` on every axis sits in the same cell or in neighbouring
    ones and comes exactly once; pairs somewhat farther apart come too, and
    callers test each pair exactly.  Every row is keyed once and ``b``'s
    keys are sorted; a row probes the 3**(d-1) rows of cells around its
    own, three consecutive keys along the last axis per probe.  With
    ``self_join`` (``b`` is ``a``) a row probes its own cell from the next
    row on and the lexicographically positive rows of cells only, so each
    unordered pair comes once and no row meets itself.  Rows with a
    non-finite entry meet nothing.  Pairs come in chunks of at most
    ``_CHUNK``, so memory stays bounded when many rows share a cell.
    """
    dim = a.shape[1]
    rows_a, a, origin, top = _finite_rows(a)
    if self_join:
        rows_b, b = rows_a, a
    else:
        rows_b, b, low_b, top_b = _finite_rows(b)
        origin, top = np.minimum(origin, low_b), np.maximum(top, top_b)
    if len(a) == 0 or len(b) == 0:
        return
    span = float(np.max(top - origin))
    # a hair over reach, so rounding cannot put a pair within reach two cells
    # apart; at most 2**15 cells per axis keeps that rounding far under the
    # hair, and 2**(60 // dim) keeps the int64 key from overflowing
    cell = max(reach * (1.0 + 1e-6), span / 2.0 ** min(15, 60 // dim))
    if not cell > 0:
        cell = 1.0
    # one empty cell on each side, so a probe one cell out never wraps
    stride = (int(span / cell) + 3) ** np.arange(dim - 1, -1, -1, dtype=np.int64)

    def keys(rows):
        return (np.floor((rows - origin) / cell).astype(np.int64) + 1) @ stride

    key = keys(b)
    order = np.argsort(key, kind="stable")
    key = key[order]
    # row numbers stand for themselves when no row was filtered out
    target = order if rows_b is None else rows_b[order]
    probe, source = (key, target) if self_join else (keys(a), rows_a)
    for row in itertools.product((-1, 0, 1), repeat=dim - 1):
        if self_join and row < (0,) * (dim - 1):
            continue
        base = probe + int(np.dot(row, stride[:-1]))
        if self_join and not any(row):
            # the own cell from the next row on, then the cell after it
            start = np.arange(1, len(key) + 1)
        else:
            start = np.searchsorted(key, base - 1)
        stop = np.searchsorted(key, base + 1, side="right")
        for owner, index in _ranges(start, stop - start):
            yield owner if source is None else source[owner], target[index]


def _finite_rows(rows: np.ndarray):
    """The indices of the rows with every entry finite, those rows, and their
    column minima and maxima.

    The column bounds are finite exactly when every entry is, and then the
    rows are taken as they are, with no filter and no copy, and the indices
    are ``None``: every row keeps its own number.
    """
    low, top = _column_bounds(rows)
    if np.isfinite(low).all() and np.isfinite(top).all():
        return None, rows, low, top
    index = np.flatnonzero(np.isfinite(rows).all(1))
    rows = rows[index]
    return index, rows, *_column_bounds(rows)


def _column_bounds(rows: np.ndarray):
    """Column minima and maxima, taken on a contiguous transpose (infinite if empty)."""
    columns = np.ascontiguousarray(rows.T)
    return columns.min(1, initial=np.inf), columns.max(1, initial=-np.inf)


def _ranges(start: np.ndarray, count: np.ndarray):
    """Yield ``(owner, index)`` chunks of every ``start[k] + r``, ``r < count[k]``.

    ``owner`` is the ``k`` each index came from; a chunk holds at most
    ``_CHUNK`` indices, so memory stays bounded however many there are.
    """
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    for lo_flat in range(0, total, _CHUNK):
        flat = np.arange(lo_flat, min(lo_flat + _CHUNK, total))
        owner = np.searchsorted(ends, flat, side="right")
        yield owner, start[owner] + flat - (ends[owner] - count[owner])


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise vertices of the convex hull of 2-D ``points``.

    Andrew's monotone chain; points on an edge are dropped.  Points on one
    line give the two ends of the line, or one point twice if they coincide.
    """
    ordered = points[np.lexsort((points[:, 1], points[:, 0]))].tolist()
    if len(ordered) < 3:
        return np.array(ordered)

    def chain(seq):
        kept: list = []
        for x, y in seq:
            while len(kept) >= 2:
                (ox, oy), (px, py) = kept[-2], kept[-1]
                if (px - ox) * (y - oy) - (py - oy) * (x - ox) > 0:
                    break
                kept.pop()
            kept.append((x, y))
        return kept

    lower, upper = chain(ordered), chain(reversed(ordered))
    return np.array(lower[:-1] + upper[:-1])


def _crossing_scale(da: np.ndarray, db: np.ndarray) -> float:
    """max |da_i x db_j| over the (x, y) components of every pair of rows.

    For fixed ``da_i`` the cross product is the linear function
    v -> (-da_i.y, da_i.x) . v of ``v = db_j``, so its largest and smallest
    values are attained at the vertices of the hull of the ``db_j`` that
    support that direction and its opposite.  Each direction finds its
    vertex by binary search over the sorted outward normals of the hull's
    edges; the vertex and both its neighbours are evaluated, so a direction
    rounding onto an edge's normal still meets the best one.  Every
    candidate is the float a dense scan computes, and the two agree unless
    more than two points tie for the support up to rounding, where the
    result can fall an ulp or so short.  Rows with a non-finite component
    are left out, as in :func:`_overlapping_boxes`; when there are none the
    (x, y) slices are used as they are.  Each candidate vertex array is
    folded into the maximum as it is made, so one is held at a time.
    """
    a = _finite_rows(da[:, :2])[1]
    b = _finite_rows(db[:, :2])[1]
    if a.size == 0 or b.size == 0:
        return 0.0
    hull = _convex_hull(b)
    if len(hull) < 3:
        candidates = [np.broadcast_to(corner, a.shape) for corner in hull]
    else:
        edge = np.roll(hull, -1, axis=0) - hull
        # The outward normal of a counter-clockwise edge (ex, ey) is (ey, -ex).
        # Its angle climbs through [-pi, 0] on the lower chain, where ex >= 0,
        # and [0, pi] on the upper one; 0.0 - ex, not -ex, so that a vertical
        # edge of the upper chain reads pi, not -pi.
        normal = np.arctan2(0.0 - edge[:, 0], edge[:, 1])
        vertices = (
            np.searchsorted(normal, np.arctan2(a[:, 0], -a[:, 1])),
            np.searchsorted(normal, np.arctan2(-a[:, 0], a[:, 1])),
        )
        candidates = (
            hull[(vertex + shift) % len(hull)] for vertex in vertices for shift in (-1, 0, 1)
        )
    scale = 0.0
    for v in candidates:
        cross = a[:, 0] * v[:, 1] - a[:, 1] * v[:, 0]
        scale = max(scale, float(np.max(np.abs(cross))))
    return scale


def _overlapping_boxes(lo_a, hi_a, lo_b, hi_b):
    """Yield index arrays ``(i, j)`` of every pair of overlapping closed boxes.

    Boxes are rows of ``lo``/``hi`` in any dimension.  The low corners of two
    overlapping boxes lie within the wider box's width on every axis, so the
    pairs are :func:`_near_pairs` of the low corners at the widest finite
    box, kept only if the boxes really overlap; each comes once.  Boxes with
    a non-finite corner meet nothing.
    """
    reach = max(_widest(lo_a, hi_a), _widest(lo_b, hi_b))
    # a non-finite high corner leaves out its box, as a non-finite low one
    # does; when every high corner is finite the low corners serve as they are
    corners = (
        lo if np.isfinite(hi).all()
        else np.where(np.isfinite(hi).all(1, keepdims=True), lo, np.nan)
        for lo, hi in ((lo_a, hi_a), (lo_b, hi_b))
    )
    for i, j in _near_pairs(*corners, reach):
        meet = np.all((lo_a[i] <= hi_b[j]) & (lo_b[j] <= hi_a[i]), axis=1)
        yield i[meet], j[meet]


def _widest(lo: np.ndarray, hi: np.ndarray) -> float:
    """The largest finite ``hi - lo`` of the boxes, 0.0 if there is none."""
    widths = hi - lo
    return float(np.max(widths, initial=0.0, where=np.isfinite(widths)))


def reeb_pushoff(curve: np.ndarray, epsilon: float) -> np.ndarray:
    """Flow every sample by e^{i epsilon} in both complex coordinates."""
    z1 = curve[:, 0] + 1j * curve[:, 1]
    z2 = curve[:, 2] + 1j * curve[:, 3]
    phase = complex(math.cos(epsilon), math.sin(epsilon))
    z1, z2 = phase * z1, phase * z2
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


def _candidate_poles() -> np.ndarray:
    eye = np.eye(4)
    oblique = np.array(
        [
            [0.5, 0.5, 0.5, 0.5],
            [0.5, -0.5, 0.5, -0.5],
            [0.5, 0.5, -0.5, -0.5],
            [0.1, -0.3, 0.9, 0.28],
        ]
    )
    oblique /= np.linalg.norm(oblique, axis=1, keepdims=True)
    return np.concatenate([eye, -eye, oblique, -oblique])


def _projection_basis(pole: np.ndarray) -> np.ndarray:
    """Rows b1, b2, b3 spanning pole-perp, with det(b1, b2, b3, pole) = +1."""
    basis = [pole]
    for seed in np.eye(4):
        vec = seed - sum(np.dot(seed, b) * b for b in basis)
        norm = np.linalg.norm(vec)
        if norm > 1e-8:
            basis.append(vec / norm)
        if len(basis) == 4:
            break
    frame = np.array(basis[1:])
    if np.linalg.det(np.vstack([frame, pole[None, :]])) < 0:
        frame[2] = -frame[2]
    return frame


def stereographic(curve: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """Project sphere samples to 3-space from the given unit pole."""
    frame = _projection_basis(pole)
    height = curve @ pole
    if np.any(np.abs(1.0 - height) < 1e-6):
        raise DegenerateProjection("curve passes through the projection pole")
    return (curve @ frame.T) / (1.0 - height)[:, None]


def _choose_pole(curves) -> np.ndarray:
    """The candidate pole farthest from every curve; one curve's heights at a time."""
    poles = _candidate_poles()
    closest = np.max([np.max(curve @ poles.T, axis=0) for curve in curves], axis=0)
    best = int(np.argmin(closest))
    if closest[best] > 1.0 - 1e-4:
        raise DegenerateProjection("every candidate pole sits on a curve")
    return poles[best]


def _view_rotation(angle: float) -> np.ndarray:
    ca, sa = math.cos(angle), math.sin(angle)
    tilt = math.cos(0.6 * angle), math.sin(0.6 * angle)
    spin = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    nod = np.array([[1.0, 0.0, 0.0], [0.0, tilt[0], -tilt[1]], [0.0, tilt[1], tilt[0]]])
    return nod @ spin


def _planar_crossings(a3: np.ndarray, b3: np.ndarray) -> int:
    """Signed inter-curve crossing sum in the (x, y) view of two 3-space loops.

    Raises DegenerateProjection on parallel overlaps, endpoint grazes, or
    height ties, so callers can retry with a rotated view.

    Only segment pairs whose (x, y) bounding boxes meet can cross or graze,
    so those pairs alone get the crossing arithmetic.  The boxes are padded
    by a millionth of the widest one, far beyond the 1e-9 grazing tolerance.
    ``scale`` is still the largest |denom| over every pair, found by a hull
    query in :func:`_crossing_scale`.

    Each full-width array is built once: the segment vectors ``da`` and
    ``db`` and the (x, y) box corners, padded in place, 7 floats per sample
    of each loop; the rolled loops are dropped as soon as these are built.
    The hull query and one chunk of candidate pairs come on top.  A view of
    two 4096-sample loops peaks near 1.3 MiB besides its inputs.
    """
    pa, qa = a3, np.roll(a3, -1, axis=0)
    pb, qb = b3, np.roll(b3, -1, axis=0)
    da, db = qa - pa, qb - pb
    lo_a, hi_a = np.minimum(pa[:, :2], qa[:, :2]), np.maximum(pa[:, :2], qa[:, :2])
    lo_b, hi_b = np.minimum(pb[:, :2], qb[:, :2]), np.maximum(pb[:, :2], qb[:, :2])
    del qa, qb

    scale = _crossing_scale(da, db) + 1e-30

    pad = 1e-6 * max(_widest(lo_a, hi_a), _widest(lo_b, hi_b))
    for lo, hi in ((lo_a, hi_a), (lo_b, hi_b)):
        lo -= pad
        hi += pad
    hits: list[tuple[np.ndarray, ...]] = []
    for ia, ib in _overlapping_boxes(lo_a, hi_a, lo_b, hi_b):
        denom = da[ia, 0] * db[ib, 1] - da[ia, 1] * db[ib, 0]
        offset = pb[ib, :2] - pa[ia, :2]
        cross_a = offset[:, 0] * db[ib, 1] - offset[:, 1] * db[ib, 0]
        cross_b = offset[:, 0] * da[ia, 1] - offset[:, 1] * da[ia, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = cross_a / denom
            u = cross_b / denom
        parallel = np.abs(denom) < 1e-12 * scale
        inside = (~parallel) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
        grazing = (~parallel) & (
            ((np.abs(t) < 1e-9) | (np.abs(t - 1) < 1e-9)
             | (np.abs(u) < 1e-9) | (np.abs(u - 1) < 1e-9))
            & (t > -1e-9) & (t < 1 + 1e-9) & (u > -1e-9) & (u < 1 + 1e-9)
        )
        if np.any(grazing):
            raise DegenerateProjection("crossing lands on a segment endpoint")
        hits.append((ia[inside], ib[inside], t[inside], u[inside], denom[inside]))

    if not hits:
        return 0
    ia, ib, t, u, denom = (np.concatenate(parts) for parts in zip(*hits))
    za = a3[ia, 2] + t * da[ia, 2]
    zb = b3[ib, 2] + u * db[ib, 2]
    gap = za - zb
    if np.any(np.abs(gap) < 1e-9 * (1.0 + np.abs(za) + np.abs(zb))):
        raise DegenerateProjection("strands tie in height at a crossing")

    sign_turn = np.sign(denom).astype(int)
    over_a = gap > 0
    # det(over, under): when b is over, swap the pair, flipping the sign
    signs = np.where(over_a, sign_turn, -sign_turn)
    return int(np.sum(signs))


def linking_number(first: np.ndarray, second: np.ndarray) -> int:
    """Combinatorial linking number of two disjoint sphere loops."""
    pole = _choose_pole((first, second))
    a3 = stereographic(first, pole)
    b3 = stereographic(second, pole)
    last_error: Exception | None = None
    for angle in _VIEW_SEEDS:
        view = _view_rotation(angle)
        try:
            total = _planar_crossings(a3 @ view.T, b3 @ view.T)
        except DegenerateProjection as err:
            last_error = err
            continue
        if total % 2:
            last_error = DegenerateProjection("odd crossing sum, view missed a pair")
            continue
        return total // 2
    raise DegenerateProjection(f"all views degenerate: {last_error}")


def gauss_linking(first: np.ndarray, second: np.ndarray) -> float:
    """Gauss double-integral route over the stereographic images (unrounded).

    Kept independent of :func:`linking_number` so the two can validate each
    other; midpoint rule over segment pairs.  With midpoints ``m`` and
    segment vectors ``d``, the triple product of a pair is the rank-6 sum

        (da_i x db_j) . (ma_i - mb_j) = (ma_i x da_i) . db_j - da_i . (db_j x mb_j),

    so each tile is one matrix product: some rows of an (N, 6) factor times
    a (6, M) one.  Its terms are of size |m| |d|^2 where the triple is of size
    |sep| |d|^2, so its rounding error, relative to the triple, grows as
    |m| / |sep|.  The separations ``sep`` in the denominator are taken
    componentwise, as exact differences.  The working set is two tiles of
    about ``_TILE_ELEMENTS`` floats, allocated once per call: a tile's
    ``|sep|^3`` is built in one, and its separations and then its triple
    products in the other.  Besides the tiles, only the row midpoints ``ma``
    and the three factors ``left``, ``right`` and ``columns`` stay bound
    during the loop.  Raises SelfIntersectingSamples when two midpoints
    coincide or the sum is not finite.
    """
    pole = _choose_pole((first, second))
    a3 = stereographic(first, pole)
    da = np.roll(a3, -1, axis=0) - a3
    ma = a3 + 0.5 * da
    left = np.concatenate([np.cross(ma, da), -da], axis=1)
    del a3, da
    b3 = stereographic(second, pole)
    db = np.roll(b3, -1, axis=0) - b3
    mb = b3 + 0.5 * db
    right = np.ascontiguousarray(np.concatenate([db, np.cross(db, mb)], axis=1).T)
    # unit-stride rows for the outer differences below
    columns = np.ascontiguousarray(mb.T)
    del b3, db, mb
    # row tiles of about _TILE_ELEMENTS pairs each
    step = max(1, _TILE_ELEMENTS // max(len(second), 1))
    sep_tile, norm_tile = np.empty((2, min(step, len(ma)), len(second)))
    total = 0.0
    with np.errstate(all="ignore"):
        for start in range(0, len(ma), step):
            rows = slice(start, min(start + step, len(ma)))
            sep, norm = sep_tile[: rows.stop - start], norm_tile[: rows.stop - start]
            # |sep|^3 from sep = ma - mb, one component at a time
            np.subtract.outer(ma[rows, 0], columns[0], out=sep)
            np.multiply(sep, sep, out=norm)
            for k in (1, 2):
                np.subtract.outer(ma[rows, k], columns[k], out=sep)
                sep *= sep
                norm += sep
            np.sqrt(norm, out=sep)
            norm *= sep
            # the triple products overwrite the spent root
            triple = np.matmul(left[rows], right, out=sep)
            triple /= norm
            total += float(np.sum(triple))
    if not math.isfinite(total):
        raise SelfIntersectingSamples("Gauss sum not finite: the curves' midpoints meet")
    return total / (4 * math.pi)


def contact_framing(curve: np.ndarray, epsilon: float = 1e-2) -> int:
    """Link a closed Legendrian with its Reeb push-off (its framing number).

    The push-off e^{i epsilon} never meets the curve, so any positive epsilon
    works; halving it must not change the answer, which tests exploit.
    """
    _require_embedded(curve)
    return linking_number(curve, reeb_pushoff(curve, epsilon))


def tangent_winding(curve: np.ndarray) -> int:
    """Winding of the tangent in the global contact-plane trivialization.

    The discrete tangent uses central differences.  The frame scalar
    h = z1 T2 - z2 T1 must stay away from zero; the summed angle increments
    must close up to an integer multiple of 2 pi.
    """
    tangent = (np.roll(curve, -1, axis=0) - np.roll(curve, 1, axis=0)) * 0.5
    speed = np.linalg.norm(tangent, axis=1)
    if float(np.min(speed)) < 1e-12:
        raise TangentDegenerate("sampled tangent vanishes")
    z1 = curve[:, 0] + 1j * curve[:, 1]
    z2 = curve[:, 2] + 1j * curve[:, 3]
    t1 = tangent[:, 0] + 1j * tangent[:, 1]
    t2 = tangent[:, 2] + 1j * tangent[:, 3]
    frame = z1 * t2 - z2 * t1
    if float(np.min(np.abs(frame))) < 1e-9 * float(np.max(np.abs(frame))):
        raise TangentDegenerate("tangent leaves the contact plane frame")
    angles = np.angle(frame)
    steps = np.diff(np.concatenate([angles, angles[:1]]))
    steps = (steps + math.pi) % (2 * math.pi) - math.pi
    turns = float(np.sum(steps)) / (2 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.01:
        raise TangentDegenerate(f"winding {turns} failed to close up")
    return int(nearest)
