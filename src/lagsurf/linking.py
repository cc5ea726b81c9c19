"""Sphere-side integer oracles: linking, contact framing, tangent winding.

Curves live on the unit sphere in (q1, p1, q2, p2)-space and are passed
around as (N, 4) sample arrays, closed implicitly (sample N wraps to 0).
Each public oracle checks its samples once, on entry, without a copy: N >= 1
and every entry finite, else InvalidSamples.  The kernels take that as given.
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


class InvalidSamples(ValueError):
    """Samples are not a non-empty (N, 4) array of finite numbers."""


class DegenerateProjection(RuntimeError):
    """No tried projection separated the curves' crossings cleanly."""


class SelfIntersectingSamples(ValueError):
    """Input samples are not embedded at their own resolution."""


class TangentDegenerate(ValueError):
    """Discrete tangent (or its contact-frame image) vanishes somewhere."""


_VIEW_SEEDS = (0.0, 0.37, 0.71, 1.13, 1.62, 2.31)

# Elements per tile of the Gauss sum, and candidate pairs per chunk of a join.
_TILE_ELEMENTS = 1 << 15
_CHUNK = 1 << 12


def _samples(*curves: np.ndarray) -> None:
    """Raise InvalidSamples unless every curve is (N, 4), N >= 1, and finite."""
    for curve in curves:
        if np.ndim(curve) != 2 or np.shape(curve)[1] != 4 or len(curve) < 1:
            raise InvalidSamples(f"samples must be (N, 4) with N >= 1, not {np.shape(curve)}")
        if not np.isfinite(curve).all():
            raise InvalidSamples("samples must be finite")


def _require_embedded(curve: np.ndarray) -> None:
    """Reject sample sets whose non-neighbours collide at sample resolution.

    A self-join of the samples at ``threshold``, half the longest step: the
    pairs :func:`_near_pairs` finds that are more than two steps apart along
    the curve get their exact 4-D distances compared with it.
    """
    n = len(curve)
    if n < 8:
        raise SelfIntersectingSamples("too few samples to resolve a closed curve")
    gaps = np.linalg.norm(np.roll(curve, -1, axis=0) - curve, axis=1)
    threshold = 0.5 * float(np.max(gaps))
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
    unordered pair comes once and no row meets itself.  Every entry must be
    finite, and neither side empty.  Pairs come in chunks of at most
    ``_CHUNK``, so memory stays bounded when many rows share a cell.
    """
    dim = a.shape[1]
    origin, top = _column_bounds(a)
    if not self_join:
        low_b, top_b = _column_bounds(b)
        origin, top = np.minimum(origin, low_b), np.maximum(top, top_b)
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
    probe = key if self_join else keys(a)
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
            yield (order[owner] if self_join else owner), order[index]


def _column_bounds(rows: np.ndarray):
    """Column minima and maxima, taken on a contiguous transpose."""
    columns = np.ascontiguousarray(rows.T)
    return columns.min(1), columns.max(1)


def _ranges(start: np.ndarray, count: np.ndarray):
    """Yield ``(owner, index)`` chunks of every ``start[k] + r``, ``r < count[k]``.

    ``owner`` is the ``k`` each index came from; a chunk holds at most
    ``_CHUNK`` indices, so memory stays bounded however many there are.
    """
    ends = np.cumsum(count)
    total = int(ends[-1])
    for lo_flat in range(0, total, _CHUNK):
        flat = np.arange(lo_flat, min(lo_flat + _CHUNK, total))
        owner = np.searchsorted(ends, flat, side="right")
        yield owner, start[owner] + flat - (ends[owner] - count[owner])


def _overlapping_boxes(lo_a, hi_a, lo_b, hi_b):
    """Yield index arrays ``(i, j)`` of every pair of overlapping closed boxes.

    Boxes are rows of ``lo``/``hi`` in any dimension.  The low corners of two
    overlapping boxes lie within the wider box's width on every axis, so the
    pairs are :func:`_near_pairs` of the low corners at the widest box, kept
    only if the boxes really overlap; each comes once.
    """
    reach = max(_widest(lo_a, hi_a), _widest(lo_b, hi_b))
    for i, j in _near_pairs(lo_a, lo_b, reach):
        meet = np.all((lo_a[i] <= hi_b[j]) & (lo_b[j] <= hi_a[i]), axis=1)
        yield i[meet], j[meet]


def _widest(lo: np.ndarray, hi: np.ndarray) -> float:
    """The largest ``hi - lo`` of the boxes."""
    return float(np.max(hi - lo))


def _crossing_bound(da: np.ndarray, db: np.ndarray) -> float:
    """max |da_i| times max |db_j|, over the (x, y) parts of the rows.

    By Cauchy-Schwarz no |da_i x db_j| exceeds it, and a relative hair of
    1e-12 keeps it above their rounded values too.  On the views of the
    boundary curve and its push-off it is 1.3-23% above the largest of
    them, and on those of the flat circle up to 5.2 times.
    """
    longest = (float(np.max(np.hypot(d[:, 0], d[:, 1]))) for d in (da, db))
    return (1 + 1e-12) * math.prod(longest)


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
    A pair is parallel when its |denom| is under 1e-12 of ``scale``, the
    bound of :func:`_crossing_bound` on every pair's |denom|.

    Each full-width array is built once: the segment vectors ``da`` and
    ``db`` and the (x, y) box corners, padded in place, 7 floats per sample
    of each loop; the rolled loops are dropped as soon as these are built.
    One chunk of candidate pairs comes on top.  A view of two 4096-sample
    loops peaks near 1.1 MiB besides its inputs.
    """
    pa, qa = a3, np.roll(a3, -1, axis=0)
    pb, qb = b3, np.roll(b3, -1, axis=0)
    da, db = qa - pa, qb - pb
    lo_a, hi_a = np.minimum(pa[:, :2], qa[:, :2]), np.maximum(pa[:, :2], qa[:, :2])
    lo_b, hi_b = np.minimum(pb[:, :2], qb[:, :2]), np.maximum(pb[:, :2], qb[:, :2])
    del qa, qb

    scale = _crossing_bound(da, db) + 1e-30

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
    _samples(first, second)
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
    _samples(first, second)
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
    step = max(1, _TILE_ELEMENTS // len(second))
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
    _samples(curve)
    _require_embedded(curve)
    return linking_number(curve, reeb_pushoff(curve, epsilon))


def tangent_winding(curve: np.ndarray) -> int:
    """Winding of the tangent in the global contact-plane trivialization.

    The discrete tangent uses central differences.  The frame scalar
    h = z1 T2 - z2 T1 must stay away from zero; the summed angle increments
    must close up to an integer multiple of 2 pi.
    """
    _samples(curve)
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
