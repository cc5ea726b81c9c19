"""Sphere-side integer oracles: linking, contact framing, tangent winding.

Curves live on the unit sphere in (q1, p1, q2, p2)-space, read as (z1, z2) =
(q1 + i p1, q2 + i p2) by :func:`_split` and :func:`_pack`, and are passed
around as (N, 4) sample arrays, closed implicitly (sample N wraps to 0).
Each public oracle checks its samples once, on entry, without a copy: N >= 1
and every sample on the sphere, else InvalidSamples.  The kernels take that
as given.
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

import contextlib
import itertools
import math

import numpy as np


class InvalidSamples(ValueError):
    """Samples are not a non-empty (N, 4) array of points on the unit sphere."""


class DegenerateProjection(RuntimeError):
    """No tried projection separated the curves' crossings cleanly."""


class SelfIntersectingSamples(ValueError):
    """Input samples are not embedded at their own resolution."""


class TangentDegenerate(ValueError):
    """Discrete tangent (or its contact-frame image) vanishes somewhere."""


_VIEW_SEEDS = (0.0, 0.37, 0.71, 1.13, 1.62, 2.31)

# Elements per tile of the Gauss sum, and candidate pairs per chunk of a join.
_TILE_ELEMENTS = 1 << 15
_CHUNK = 1 << 10

# numpy's default ufunc buffer, in elements.
_BUFSIZE = 8192


@contextlib.contextmanager
def _tile_loop(row: int):
    """Run a tile loop over rows of ``row`` elements: warnings off, one-row buffer.

    numpy copies the broadcast operands of a ufunc into its buffer when the
    rows are much shorter than the buffer, which makes short-row tiles
    several times slower.  The buffer is set to the largest power of two
    <= ``row``, at least 16 (a multiple of 16, as numpy needs) and at most
    numpy's default; the caller's buffer size and error state come back on
    exit, also when the loop raises.
    """
    old = np.setbufsize(min(_BUFSIZE, 1 << max(4, row.bit_length() - 1)))
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        np.setbufsize(old)


def _samples(*curves: np.ndarray) -> None:
    """Raise InvalidSamples unless every curve is (N, 4), N >= 1, on the unit sphere.

    Every entry must lie in [-2, 2], which rejects NaN and keeps the squares
    finite, and every |x|^2 within 1e-2 of 1.  The tolerance covers the input
    dtype's rounding: ``test_framing_is_linking_with_the_pushoff[boundary_float16]``
    needs it, because float16 samples carry a radius error of about 1e-3.
    """
    for curve in curves:
        if np.ndim(curve) != 2 or np.shape(curve)[1] != 4 or len(curve) < 1:
            raise InvalidSamples(f"samples must be (N, 4) with N >= 1, not {np.shape(curve)}")
        if not -2.0 <= float(np.min(curve)) <= float(np.max(curve)) <= 2.0:
            raise InvalidSamples("samples must lie in [-2, 2]")
        if not float(np.max(np.abs(np.einsum("ij,ij->i", curve, curve) - 1.0))) <= 1e-2:
            raise InvalidSamples("samples must lie on the unit sphere, |x|^2 within 1e-2 of 1")


def _split(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2) of (q1, p1, q2, p2) points along a trailing axis of 4."""
    return points[..., 0] + 1j * points[..., 1], points[..., 2] + 1j * points[..., 3]


def _pack(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """(q1, p1, q2, p2) points along a trailing axis of 4, from (z1, z2)."""
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


def _steps(loop: np.ndarray) -> np.ndarray:
    """Segment vectors of a closed loop, row i from sample i to i + 1 (N - 1 to 0)."""
    d = np.empty_like(loop)
    np.subtract(loop[1:], loop[:-1], out=d[:-1])
    np.subtract(loop[:1], loop[-1:], out=d[-1:])
    return d


def _require_embedded(curve: np.ndarray) -> None:
    """Reject sample sets whose non-neighbours collide at sample resolution.

    A self-join of the samples at ``threshold``, half the longest step: the
    pairs :func:`_near_pairs` finds that are more than two steps apart along
    the curve get their exact 4-D distances compared with it.
    """
    n = len(curve)
    if n < 8:
        raise SelfIntersectingSamples("too few samples to resolve a closed curve")
    threshold = 0.5 * float(np.max(np.linalg.norm(_steps(curve), axis=1)))
    if threshold == 0:
        raise SelfIntersectingSamples("every sample is the same point")
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
    z1, z2 = _split(curve)
    phase = complex(math.cos(epsilon), math.sin(epsilon))
    return _pack(phase * z1, phase * z2)


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


def _project(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both curves' stereographic images from the pole :func:`_choose_pole` picks."""
    pole = _choose_pole((first, second))
    return stereographic(first, pole), stereographic(second, pole)


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

    Each full-width array is built once, by :func:`_segments`: the segment
    vectors ``da`` and ``db`` and the (x, y) box corners, padded in place,
    7 floats per sample of each loop.  One chunk of at most ``_CHUNK``
    candidate pairs comes on top.  A view of two 4096-sample loops peaks
    near 0.8 MiB besides its inputs.
    """
    da, lo_a, hi_a = _segments(a3)
    db, lo_b, hi_b = _segments(b3)
    scale = _crossing_bound(da, db) + 1e-30

    pad = 1e-6 * max(_widest(lo_a, hi_a), _widest(lo_b, hi_b))
    for lo, hi in ((lo_a, hi_a), (lo_b, hi_b)):
        lo -= pad
        hi += pad
    hits: list[tuple[np.ndarray, ...]] = []
    for ia, ib in _overlapping_boxes(lo_a, hi_a, lo_b, hi_b):
        denom = da[ia, 0] * db[ib, 1] - da[ia, 1] * db[ib, 0]
        offset = b3[ib, :2] - a3[ia, :2]
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


def _segments(loop: np.ndarray):
    """Segment vectors and (x, y) box corners ``lo``, ``hi`` of a closed loop.

    The segments are :func:`_steps`, and the corners are taken column by
    column, so neither a rolled copy of the loop nor a buffered copy of its
    strided (x, y) columns is made.
    """
    d = _steps(loop)
    lo, hi = np.empty((2, len(loop), 2))
    for k in (0, 1):
        column = loop[:, k]
        for corner, extreme in ((lo, np.minimum), (hi, np.maximum)):
            extreme(column[:-1], column[1:], out=corner[:-1, k])
            extreme(column[-1:], column[:1], out=corner[-1:, k])
    return d, lo, hi


def linking_number(first: np.ndarray, second: np.ndarray) -> int:
    """Combinatorial linking number of two disjoint sphere loops."""
    _samples(first, second)
    return _view_linking(*_project(first, second))


def _view_linking(a3: np.ndarray, b3: np.ndarray) -> int:
    """Half the crossing sum of the first rotated view that resolves cleanly."""
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
    products in the other.  Besides the tiles, only the row midpoints ``ma``,
    kept as a contiguous (3, N) transpose, and the three factors ``left``,
    ``right`` and ``columns`` stay bound during the loop, which runs in
    :func:`_tile_loop` with a one-row ufunc buffer.  Raises
    SelfIntersectingSamples when two midpoints coincide or the sum is not
    finite.
    """
    _samples(first, second)
    a3, b3 = _project(first, second)
    da = _steps(a3)
    ma = a3 + 0.5 * da
    left = np.concatenate([np.cross(ma, da), -da], axis=1)
    # unit-stride rows for the outer differences below
    ma = np.ascontiguousarray(ma.T)
    del a3, da
    db = _steps(b3)
    mb = b3 + 0.5 * db
    right = np.ascontiguousarray(np.concatenate([db, np.cross(db, mb)], axis=1).T)
    columns = np.ascontiguousarray(mb.T)
    del b3, db, mb
    # row tiles of about _TILE_ELEMENTS pairs each
    count = len(first)
    step = max(1, _TILE_ELEMENTS // len(second))
    sep_tile, norm_tile = np.empty((2, min(step, count), len(second)))
    total = 0.0
    with _tile_loop(len(second)):
        for start in range(0, count, step):
            rows = slice(start, min(start + step, count))
            sep, norm = sep_tile[: rows.stop - start], norm_tile[: rows.stop - start]
            # |sep|^3 from sep = ma - mb, one component at a time
            np.subtract.outer(ma[0, rows], columns[0], out=norm)
            norm *= norm
            for k in (1, 2):
                np.subtract.outer(ma[k, rows], columns[k], out=sep)
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
    works; halving it must not change the answer, which tests exploit.  The
    flow is unitary, so the push-off of samples on the sphere is on it too.
    This is :func:`linking_number` of the curve and its push-off, except that
    the push-off is dropped once it is projected, so the planar views run
    without it.
    """
    _samples(curve)
    _require_embedded(curve)
    pushoff = reeb_pushoff(curve, epsilon)
    a3, b3 = _project(curve, pushoff)
    del pushoff
    return _view_linking(a3, b3)


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
    (z1, z2), (t1, t2) = _split(curve), _split(tangent)
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
