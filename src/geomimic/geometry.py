"""Homogeneous-coordinate primitives and geometric error signals.

Error signals are the raw control quantities consumed by training and by
the servo loop: pixel offsets for point coincidence, signed point-line
distances, endpoint residuals for line alignment, and algebraic conic
residuals. An error is a plain (d,) float array, d = 2 for p2p and l2l
and 1 for p2l and p2c; K of them are a (K, d) array.

Every construction and error works on K rows at once, over (K, 2) pixel
arrays: ``lines_through``, ``conics_through`` and the ``p2*_errors``
functions. A line (a, b, c), a*u + b*v + c = 0, is scaled to
a^2 + b^2 = 1 with the first nonzero of (a, b) positive, so ``p2l_errors``
is a true signed distance. A conic is a symmetric 3x3 matrix scaled to
unit Frobenius norm with its entry of largest magnitude positive.
Degenerate rows do not raise; they come back as NaN with False in a
mask, so one bad candidate cannot fail a whole frame.
"""

from __future__ import annotations

import enum
import math

import numpy as np

# Below this pixel distance two points cannot define a line.
COINCIDENT_TOL_PX = 1e-9
_DEGENERATE_NORM = 1e-12
_SQRT2 = math.sqrt(2.0)


class KernelKind(str, enum.Enum):
    """Families of geometric association constraints."""

    P2P = "p2p"
    P2L = "p2l"
    L2L = "l2l"
    P2C = "p2c"


class FeatureClass(str, enum.Enum):
    """The kind of entity a tracked feature belongs to."""

    POINT = "point"
    SEGMENT_ENDPOINT = "segment_endpoint"
    CONIC_SAMPLE = "conic_sample"


# Features one entity of each class holds, on consecutive ids: a point is
# one feature, a segment two endpoints, a conic five samples.
ENTITY_SIZE = {
    FeatureClass.POINT: 1,
    FeatureClass.SEGMENT_ENDPOINT: 2,
    FeatureClass.CONIC_SAMPLE: 5,
}

# The two entity classes each kind associates, mover first.
KIND_ENTITIES = {
    KernelKind.P2P: (FeatureClass.POINT, FeatureClass.POINT),
    KernelKind.P2L: (FeatureClass.POINT, FeatureClass.SEGMENT_ENDPOINT),
    KernelKind.L2L: (FeatureClass.SEGMENT_ENDPOINT, FeatureClass.SEGMENT_ENDPOINT),
    KernelKind.P2C: (FeatureClass.POINT, FeatureClass.CONIC_SAMPLE),
}


class GeometryError(ValueError):
    """Invalid geometric construction."""


def _unit_conics(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize (K, 3, 3) conic matrices, scale to unit Frobenius norm
    and make each one's entry of largest magnitude positive.

    Also returns each symmetrized matrix's norm.
    """
    sym = 0.5 * (m + m.transpose(0, 2, 1))
    flat = sym.reshape(-1, 9)
    # A stacked (1, 9) @ (9, 1) matmul is the BLAS dot np.linalg.norm uses.
    norm = np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        unit = sym / norm[:, None, None]
    flat = unit.reshape(-1, 9)
    lead = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    np.negative(unit, out=unit, where=(lead < 0)[:, None, None])
    return unit, norm


def _square_excess(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^2 + b^2 - 1 over (K,) arrays, exact up to one final rounding.

    Each square is split into its rounded product and that product's
    error (Dekker's two-product: the Veltkamp split makes every partial
    product exact for |x| <= 1), and ``math.fsum`` rounds their sum once.
    """
    terms = [np.full(a.shape, -1.0)]
    for x in (a, b):
        square = x * x
        scaled = 134217729.0 * x  # 2**27 + 1
        hi = scaled - (scaled - x)
        lo = x - hi
        terms += [square, ((hi * hi - square) + 2.0 * hi * lo) + lo * lo]
    return np.array([math.fsum(row) for row in np.stack(terms, axis=1).tolist()]).reshape(-1)


def distinct_points(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(K,) mask: row k of p and of q are not within COINCIDENT_TOL_PX."""
    gap = [math.hypot(du, dv) for du, dv in (p - q).tolist()]
    return ~(np.array(gap).reshape(-1) < COINCIDENT_TOL_PX)


def lines_through(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized lines through K point pairs at once.

    Args:
        p, q: (K, 2) pixel arrays.

    Returns:
        (K, 3) line coefficients (a, b, c) with a^2 + b^2 = 1 and the
        first nonzero of (a, b) positive, and the (K,) ``distinct_points``
        mask. Rows whose points coincide are NaN.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # Homogeneous cross product (u1, v1, 1) x (u2, v2, 1), written out:
    # np.cross computes exactly these products and differences.
    raw = np.empty((len(p), 3))
    np.subtract(p[:, 1], q[:, 1], out=raw[:, 0])
    np.subtract(q[:, 0], p[:, 0], out=raw[:, 1])
    np.subtract(p[:, 0] * q[:, 1], p[:, 1] * q[:, 0], out=raw[:, 2])
    # hypot(a, b) is |p - q| bit for bit, so its mask is distinct_points'.
    # ``math.hypot`` is correctly rounded, ``np.hypot`` is not always.
    norm = np.array([math.hypot(a, b) for a, b, _ in raw.tolist()]).reshape(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        unit = raw / norm[:, None]
        # Dividing by the rounded norm leaves a^2 + b^2 up to two ulps
        # off 1; one Newton step on the exact excess brings it within one.
        half = _square_excess(unit[:, 0], unit[:, 1]) / 2
        unit -= unit * half[:, None]
    lead = np.where(np.abs(unit[:, 0]) > _DEGENERATE_NORM, unit[:, 0], unit[:, 1])
    np.negative(unit, out=unit, where=(lead < 0)[:, None])
    ok = ~(norm < COINCIDENT_TOL_PX)
    unit[~ok] = np.nan
    return unit, ok


def _fit_conics(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized conic matrices through (K, 5, 2) point sets.

    Points are shifted and scaled before solving so the fit stays
    well-conditioned at pixel scale; each conic is mapped back
    afterwards. Returns the (K, 3, 3) matrices and a (K,) mask of the
    point sets that are finite, not all coincident and determine a unique
    conic.
    """
    pts = np.asarray(points, dtype=float)
    k = len(pts)
    center = pts.mean(axis=1)
    spread = np.sqrt(((pts - center[:, None, :]) ** 2).sum(axis=2).mean(axis=1))
    coincident = spread < _DEGENERATE_NORM
    scale = _SQRT2 / np.where(coincident, 1.0, spread)
    x = scale[:, None] * (pts[:, :, 0] - center[:, None, 0])
    y = scale[:, None] * (pts[:, :, 1] - center[:, None, 1])
    design = np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=2)
    finite = np.isfinite(design).all(axis=(1, 2))
    design[~finite] = 0.0
    _, svals, vt = np.linalg.svd(design)
    # Rank < 5 means several conics fit (e.g. repeated or collinear points).
    ok = ~coincident & finite & ~(svals[:, -1] < 1e-9 * svals[:, 0])
    av, bv, cv, dv, ev, fv = vt[:, -1].T
    normed = np.stack(
        [av, bv / 2.0, dv / 2.0, bv / 2.0, cv, ev / 2.0, dv / 2.0, ev / 2.0, fv], axis=1
    ).reshape(k, 3, 3)
    # Undo the normalizing similarity: C = T^T C' T with x' = T x.
    t = np.zeros((k, 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = scale
    t[:, 0, 2] = -scale * center[:, 0]
    t[:, 1, 2] = -scale * center[:, 1]
    t[:, 2, 2] = 1.0
    return np.matmul(np.matmul(t.transpose(0, 2, 1), normed), t), ok


def conics_through(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized conics through K sets of five points at once.

    Args:
        points: (K, 5, 2) pixel arrays.

    Returns:
        (K, 3, 3) symmetric conic matrices with unit Frobenius norm and
        their entry of largest magnitude positive, and a (K,) mask of the
        point sets that determine a unique conic. Other rows are NaN.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[1:] != (5, 2):
        raise GeometryError(f"conic construction needs (K, 5, 2) points, got {pts.shape}")
    raw, fit = _fit_conics(pts)
    unit, norm = _unit_conics(raw)
    ok = fit & (norm >= _DEGENERATE_NORM)
    unit[~ok] = np.nan
    return unit, ok


def p2p_errors(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """(K, 2) pixel offsets p1 - p2 of K point pairs."""
    return np.asarray(p1, dtype=float) - np.asarray(p2, dtype=float)


def p2l_errors(p: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """(K,) signed distances of K points from K normalized lines."""
    return lines[:, 0] * p[:, 0] + lines[:, 1] * p[:, 1] + lines[:, 2]


def l2l_errors(p: np.ndarray, q: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """(K, 2) signed distances of K segments' endpoints from K lines.

    Whether the endpoints are distinct, which a residual that really
    constrains an alignment needs, is ``distinct_points(p, q)``.
    """
    return np.stack([p2l_errors(p, lines), p2l_errors(q, lines)], axis=1)


def p2c_errors(p: np.ndarray, conics: np.ndarray) -> np.ndarray:
    """(K,) algebraic residuals x^T C x of K points against K conics."""
    x = np.ones((len(p), 3))
    x[:, :2] = p
    # Stacked matmuls make the same BLAS calls, item by item, as x @ C @ x.
    return np.matmul(np.matmul(x[:, None, :], conics), x[:, :, None])[:, 0, 0]
