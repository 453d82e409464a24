"""Homogeneous-coordinate primitives and geometric error signals.

Error signals are the raw control quantities consumed by training and by
the servo loop: pixel offsets for point coincidence, signed point-line
distances, endpoint residuals for line alignment, and algebraic conic
residuals. An error is a plain (d,) float array, d = 2 for p2p and l2l
and 1 for p2l and p2c; K of them are a (K, d) array.

Every construction and error exists once, in batched form over K rows of
(K, 2) pixel arrays: ``lines_through``, ``conics_through`` and the
``p2*_errors`` functions. Degenerate rows do not raise there; they come
back as NaN with False in a mask, so one bad candidate cannot fail a
whole frame. The scalar ``line_through``, ``conic_through`` and
``p2*_error`` functions and the ``HomLine`` and ``Conic`` constructors
run the same code on one row and raise ``GeometryError`` where a row is
degenerate. Scalar and batched results are bit-identical.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

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


class CoincidentPointsError(GeometryError):
    """Two points expected to be distinct nearly coincide."""


@dataclass(frozen=True)
class ImagePoint:
    """A 2D pixel location."""

    u: float
    v: float


def _rows(*points: ImagePoint) -> np.ndarray:
    """(K, 2) pixel array of K image points."""
    return np.array([[p.u, p.v] for p in points])


def _unit_lines(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale (K, 3) line coefficients to a^2 + b^2 = 1, sign-fixed.

    The first nonzero of (a, b) becomes positive. Also returns each row's
    norm hypot(a, b); rows with a ~zero norm come back as NaN or inf.
    ``math.hypot`` is correctly rounded, ``np.hypot`` is not always.
    """
    norm = np.array([math.hypot(a, b) for a, b, _ in raw.tolist()]).reshape(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        unit = raw / norm[:, None]
    lead = np.where(np.abs(unit[:, 0]) > _DEGENERATE_NORM, unit[:, 0], unit[:, 1])
    np.negative(unit, out=unit, where=(lead < 0)[:, None])
    return unit, norm


@dataclass(frozen=True)
class HomLine:
    """Line a*u + b*v + c = 0 in normalized homogeneous form.

    Coefficients are rescaled on construction so that a^2 + b^2 = 1 and
    the first nonzero of (a, b) is positive; with that convention
    ``p2l_error`` returns a true signed distance and equal lines compare
    equal coefficient-wise.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        unit, norm = _unit_lines(np.array([[self.a, self.b, self.c]], dtype=float))
        if norm[0] < _DEGENERATE_NORM:
            raise GeometryError("degenerate line: a and b are both ~0")
        a, b, c = unit[0].tolist()
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def _of_unit(cls, coeffs: np.ndarray) -> "HomLine":
        """A line from coefficients ``_unit_lines`` already normalized;
        normalizing them again could move their last bits."""
        line = object.__new__(cls)
        for name, value in zip("abc", coeffs.tolist()):
            object.__setattr__(line, name, value)
        return line

    def coeffs(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def _unit_conics(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrize (K, 3, 3) conic matrices, scale to unit Frobenius norm
    and make each one's entry of largest magnitude positive.

    Also returns a (K,) mask of the inputs that were symmetric to
    rounding, and each symmetrized matrix's norm.
    """
    mt = m.transpose(0, 2, 1)
    atol = 1e-9 * np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
    # np.allclose(m, m.T, atol=atol), one matrix per row.
    symmetric = (np.abs(m - mt) <= atol[:, None, None] + 1e-5 * np.abs(mt)).all(axis=(1, 2))
    sym = 0.5 * (m + mt)
    flat = sym.reshape(-1, 9)
    # A stacked (1, 9) @ (9, 1) matmul is the BLAS dot np.linalg.norm uses.
    norm = np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        unit = sym / norm[:, None, None]
    flat = unit.reshape(-1, 9)
    lead = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    np.negative(unit, out=unit, where=(lead < 0)[:, None, None])
    return unit, symmetric, norm


@dataclass(frozen=True)
class Conic:
    """Symmetric 3x3 conic matrix with unit Frobenius norm.

    The overall sign is fixed by making the entry of largest magnitude
    positive, so a conic constructed from the same point set is unique.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise GeometryError(f"conic matrix must be 3x3, got {m.shape}")
        unit, symmetric, norm = _unit_conics(m[None])
        if not symmetric[0]:
            raise GeometryError("conic matrix must be symmetric")
        if norm[0] < _DEGENERATE_NORM:
            raise GeometryError("degenerate conic: zero matrix")
        m = unit[0]
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def distinct_points(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(K,) mask: row k of p and of q are not within COINCIDENT_TOL_PX."""
    gap = [math.hypot(du, dv) for du, dv in (p - q).tolist()]
    return ~(np.array(gap).reshape(-1) < COINCIDENT_TOL_PX)


def lines_through(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized lines through K point pairs at once.

    Args:
        p, q: (K, 2) pixel arrays.

    Returns:
        (K, 3) line coefficients (a, b, c), normalized as ``HomLine``
        normalizes them, and the (K,) ``distinct_points`` mask. Rows whose
        points coincide are NaN.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # Homogeneous cross product (u1, v1, 1) x (u2, v2, 1), written out:
    # np.cross computes exactly these products and differences.
    raw = np.empty((len(p), 3))
    np.subtract(p[:, 1], q[:, 1], out=raw[:, 0])
    np.subtract(q[:, 0], p[:, 0], out=raw[:, 1])
    np.subtract(p[:, 0] * q[:, 1], p[:, 1] * q[:, 0], out=raw[:, 2])
    ok = distinct_points(p, q)
    unit, _ = _unit_lines(raw)
    unit[~ok] = np.nan
    return unit, ok


def line_through(p: ImagePoint, q: ImagePoint) -> HomLine:
    """Line through two distinct image points via the homogeneous cross product.

    Raises:
        CoincidentPointsError: if the points are closer than COINCIDENT_TOL_PX.
    """
    coeffs, ok = lines_through(_rows(p), _rows(q))
    if not ok[0]:
        raise CoincidentPointsError(f"cannot build a line through coincident points {p} and {q}")
    return HomLine._of_unit(coeffs[0])


# Why _fit_conics rejects a row, by code.
_CONIC_FAULTS = {
    1: "conic points are all coincident",
    2: "points do not determine a unique conic",
    3: "conic points must be finite",
}


def _fit_conics(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized conic matrices through (K, 5, 2) point sets.

    Points are shifted and scaled before solving so the fit stays
    well-conditioned at pixel scale; each conic is mapped back
    afterwards. Returns the (K, 3, 3) matrices and a (K,) fault code,
    0 where the fit is valid (see _CONIC_FAULTS).
    """
    pts = np.asarray(points, dtype=float)
    k = len(pts)
    center = pts.mean(axis=1)
    spread = np.sqrt(((pts - center[:, None, :]) ** 2).sum(axis=2).mean(axis=1))
    fault = np.zeros(k, dtype=int)
    coincident = spread < _DEGENERATE_NORM
    fault[coincident] = 1
    scale = _SQRT2 / np.where(coincident, 1.0, spread)
    x = scale[:, None] * (pts[:, :, 0] - center[:, None, 0])
    y = scale[:, None] * (pts[:, :, 1] - center[:, None, 1])
    design = np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=2)
    finite = np.isfinite(design).all(axis=(1, 2))
    fault[~finite] = 3
    design[~finite] = 0.0
    _, svals, vt = np.linalg.svd(design)
    # Rank < 5 means several conics fit (e.g. repeated or collinear points).
    fault[(fault == 0) & (svals[:, -1] < 1e-9 * svals[:, 0])] = 2
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
    return np.matmul(np.matmul(t.transpose(0, 2, 1), normed), t), fault


def conics_through(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized conics through K sets of five points at once.

    Args:
        points: (K, 5, 2) pixel arrays.

    Returns:
        (K, 3, 3) conic matrices, normalized as ``Conic`` normalizes them,
        and a (K,) mask of the point sets that determine a unique conic.
        Other rows are NaN.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[1:] != (5, 2):
        raise GeometryError(f"conic construction needs (K, 5, 2) points, got {pts.shape}")
    raw, fault = _fit_conics(pts)
    unit, symmetric, norm = _unit_conics(raw)
    ok = (fault == 0) & symmetric & (norm >= _DEGENERATE_NORM)
    unit[~ok] = np.nan
    return unit, ok


def conic_through(points: Sequence[ImagePoint]) -> Conic:
    """Conic through exactly five points in general position."""
    if len(points) != 5:
        raise GeometryError(f"conic construction needs exactly 5 points, got {len(points)}")
    raw, fault = _fit_conics(_rows(*points)[None])
    if fault[0]:
        raise GeometryError(_CONIC_FAULTS[int(fault[0])])
    return Conic(raw[0])


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


def p2p_error(p1: ImagePoint, p2: ImagePoint) -> np.ndarray:
    """Pixel offset (du, dv) between two points; zero iff they coincide."""
    return p2p_errors(_rows(p1), _rows(p2))[0]


def p2l_error(p: ImagePoint, line: HomLine) -> np.ndarray:
    """(1,) signed perpendicular distance of a point from a normalized line."""
    return p2l_errors(_rows(p), line.coeffs()[None])


def l2l_error(segment: tuple[ImagePoint, ImagePoint], line: HomLine) -> np.ndarray:
    """Signed distances of both segment endpoints from a line.

    Zero iff the segment lies on the line. The endpoints must be distinct
    so the residual really constrains an alignment.
    """
    p, q = _rows(segment[0]), _rows(segment[1])
    if not distinct_points(p, q)[0]:
        raise CoincidentPointsError("segment endpoints coincide")
    return l2l_errors(p, q, line.coeffs()[None])[0]


def p2c_error(p: ImagePoint, conic: Conic) -> np.ndarray:
    """(1,) algebraic residual x^T C x of a point against a normalized conic."""
    return p2c_errors(_rows(p), conic.matrix[None])
