"""Geometric constraint primitives: constructions, errors, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from geomimic.geometry import (
    COINCIDENT_TOL_PX,
    GeometryError,
    conics_through,
    distinct_points,
    l2l_errors,
    lines_through,
    p2c_errors,
    p2l_errors,
    p2p_errors,
)

# The hand-worked cases below each run one row through the batched calls.
# A degenerate row is NaN, with False in the mask.

U_AXIS = np.array([[0.0, 1.0, 0.0]])  # v = 0, already normalized


def rows(*points):
    """(K, 2) float pixel array of K (u, v) points."""
    return np.array(points, dtype=float).reshape(-1, 2)


def circle_points(cx, cy, r, angles_deg):
    t = np.radians(angles_deg)
    return np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=1)


def line(p, q):
    """(1, 3) line through pixels p and q, which must be distinct."""
    coeffs, ok = lines_through(rows(p), rows(q))
    assert ok.all()
    return coeffs


def conic(points):
    """(1, 3, 3) conic through five pixels, which must determine one."""
    mats, ok = conics_through(points[None])
    assert ok.all()
    return mats


class TestHomLine:
    # Each point pair's homogeneous cross product is the line in the
    # comment, so these check the normalization lines_through applies.
    def test_normalization_unit_normal(self):
        coeffs = line((-1, 2), (3, -1))[0]  # 3u + 4v - 5 = 0
        assert coeffs[0] ** 2 + coeffs[1] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert coeffs == pytest.approx([0.6, 0.8, -1.0])

    def test_sign_convention_first_nonzero_positive(self):
        assert line((0, -0.25), (4, 2.75))[0, 0] > 0  # -3u + 4v + 1 = 0
        # a ~ 0: the b coefficient carries the sign convention
        assert line((2, 2), (0, 2))[0, 1] > 0  # -2v + 4 = 0

    def test_degenerate_rejected(self):
        # Equal points: the cross product is (0, 0, 0), with no normal.
        coeffs, ok = lines_through(rows((3, 4)), rows((3, 4)))
        assert not ok[0] and np.isnan(coeffs[0]).all()

    def test_equal_lines_compare_equal(self):
        # u + v + 2 = 0, from cross products (-2, -2, -4) and (-4, -4, -8)
        assert np.array_equal(line((0, -2), (-2, 0)), line((1, -3), (-3, 1)))


class TestLineThrough:
    def test_diagonal(self):
        expect = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert line((0, 0), (2, 2))[0] == pytest.approx(expect, abs=1e-12)

    def test_u_axis(self):
        assert line((0, 0), (1, 0))[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_horizontal_v_equals_1(self):
        assert line((0, 1), (2, 1))[0] == pytest.approx([0.0, 1.0, -1.0], abs=1e-12)

    def test_coincident_points_rejected(self):
        coeffs, ok = lines_through(rows((5.0, 5.0)), rows((5.0, 5.0 + 0.5 * COINCIDENT_TOL_PX)))
        assert not ok[0] and np.isnan(coeffs[0]).all()

    def test_endpoints_lie_on_line(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = rows(rng.uniform(-500, 500, 2))
            q = rows(rng.uniform(-500, 500, 2))
            if np.hypot(*(p - q)[0]) < 1e-6:
                continue
            coeffs = line(p, q)
            assert abs(p2l_errors(p, coeffs)[0]) < 1e-9
            assert abs(p2l_errors(q, coeffs)[0]) < 1e-9


class TestPointErrors:
    def test_p2p_coincident_zero(self):
        assert p2p_errors(rows((3, 4)), rows((3, 4)))[0] == pytest.approx([0, 0])

    def test_p2p_offset_and_norm(self):
        err = p2p_errors(rows((0, 0)), rows((3, 4)))[0]
        assert err == pytest.approx([-3.0, -4.0])
        assert np.linalg.norm(err) == pytest.approx(5.0)

    def test_p2p_fractional(self):
        err = p2p_errors(rows((1.5, 2.0)), rows((0.5, 1.0)))[0]
        assert err == pytest.approx([1.0, 1.0])

    def test_p2p_antisymmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rows(rng.uniform(0, 640, 2))
            q = rows(rng.uniform(0, 640, 2))
            assert p2p_errors(p, q)[0] == pytest.approx(-p2p_errors(q, p)[0])

    def test_p2l_point_on_line(self):
        err = p2l_errors(rows((1, 1)), line((0, 0), (2, 2)))
        assert err[0] == pytest.approx(0.0, abs=1e-12)

    def test_p2l_unit_distance(self):
        assert p2l_errors(rows((0, 1)), U_AXIS)[0] == pytest.approx(1.0)

    def test_p2l_normalizes_input_scale(self):
        # 3u + 4v - 5 = 0 scaled down by the normal's length 5
        err = p2l_errors(rows((2, 3)), line((-1, 2), (3, -1)))
        assert err[0] == pytest.approx(2.6)

    def test_p2l_is_euclidean_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = rows(rng.uniform(-100, 100, 2))
            q = rows(rng.uniform(-100, 100, 2))
            x = rows(rng.uniform(-100, 100, 2))
            if np.hypot(*(p - q)[0]) < 1e-3:
                continue
            d = abs(p2l_errors(x, line(p, q))[0])
            # distance from x to the infinite line through p, q
            ab, ax = (q - p)[0], (x - p)[0]
            expect = abs(ab[0] * ax[1] - ab[1] * ax[0]) / np.linalg.norm(ab)
            assert d == pytest.approx(expect, abs=1e-9)


class TestSegmentErrors:
    def test_collinear_zero(self):
        err = l2l_errors(rows((0, 0)), rows((1, 1)), line((2, 2), (3, 3)))[0]
        assert err == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_parallel_offset(self):
        err = l2l_errors(rows((0, 1)), rows((1, 1)), U_AXIS)[0]
        assert err == pytest.approx([1.0, 1.0])

    def test_perpendicular(self):
        err = l2l_errors(rows((0, 0)), rows((0, 2)), U_AXIS)[0]
        assert err == pytest.approx([0.0, 2.0])

    def test_coincident_endpoints_rejected(self):
        assert not distinct_points(rows((1, 1)), rows((1, 1)))[0]


class TestConic:
    # The circle u^2 + v^2 = 1/4: its unit conic is diag(1, 1, -1/4) / (sqrt(33) / 4).
    # (On the unit circle the sign would hang on a rounding-level tie.)
    def test_unit_circle_residuals(self):
        c = conic(circle_points(0, 0, 0.5, [0, 70, 140, 210, 280]))
        s33 = math.sqrt(33.0)
        assert p2c_errors(rows((0.5, 0)), c)[0] == pytest.approx(0.0, abs=1e-12)
        assert p2c_errors(rows((0, 0)), c)[0] == pytest.approx(-1.0 / s33)
        assert p2c_errors(rows((1, 0)), c)[0] == pytest.approx(3.0 / s33)

    def test_normalization(self):
        m = conic(circle_points(0, 0, 0.5, [10, 100, 150, 200, 300]))[0]
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
        expect = np.diag([1.0, 1.0, -0.25]) / (math.sqrt(33.0) / 4.0)
        assert m == pytest.approx(expect, abs=1e-12)

    def test_zero_matrix_rejected(self):
        # Five equal points leave every conic through them: no matrix.
        mats, ok = conics_through(rows(*[(3, 4)] * 5)[None])
        assert not ok[0] and np.isnan(mats[0]).all()

    def test_through_five_circle_points(self):
        pts = circle_points(320, 240, 80, [0, 70, 140, 210, 280])
        c = conic(pts)
        for p in pts:
            assert abs(p2c_errors(rows(p), c)[0]) < 1e-9
        # a sixth point of the same circle also fits
        assert abs(p2c_errors(circle_points(320, 240, 80, [333]), c)[0]) < 1e-9
        # the center clearly does not
        assert abs(p2c_errors(rows((320, 240)), c)[0]) > 1e-4

    def test_through_rejects_wrong_count(self):
        with pytest.raises(GeometryError):
            conics_through(circle_points(0, 0, 1, [0, 60, 120, 180])[None])

    def test_through_rejects_collinear(self):
        mats, ok = conics_through(rows(*[(float(i), 2.0 * i + 1.0) for i in range(5)])[None])
        assert not ok[0] and np.isnan(mats[0]).all()


# ---------------------------------------------------------------- batched
# The batched constructions against the scalar code they replaced
# (tests/reference.py), bit for bit, including which inputs degenerate.

coord = st.floats(-2000.0, 2000.0, allow_nan=False, allow_infinity=False)
pixel = st.tuples(coord, coord)
# Nearby second points reach the coincidence tolerance and beyond.
offset = st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-6, 1.0, 300.0])


@st.composite
def point_pairs(draw):
    rows = draw(st.lists(st.tuples(pixel, pixel, offset, st.booleans()), min_size=1, max_size=8))
    p = np.array([r[0] for r in rows])
    q = np.array([r[1] if r[3] else (r[0][0] + r[2], r[0][1] - r[2]) for r in rows])
    return p, q


@st.composite
def five_point_sets(draw):
    def one_set():
        kind = draw(st.sampled_from(["free", "ellipse", "collinear", "repeated"]))
        if kind == "free":
            return [draw(pixel) for _ in range(5)]
        cx, cy = draw(pixel)
        if kind == "ellipse":
            rx, ry = draw(st.floats(1.0, 400.0)), draw(st.floats(1.0, 400.0))
            angles = draw(st.lists(st.floats(0.0, 6.28), min_size=5, max_size=5))
            return [(cx + rx * math.cos(a), cy + ry * math.sin(a)) for a in angles]
        if kind == "collinear":
            ts = draw(st.lists(st.floats(-300.0, 300.0), min_size=5, max_size=5))
            return [(cx + t, cy + 2.0 * t) for t in ts]
        return [(cx, cy)] * 5

    return np.array([one_set() for _ in range(draw(st.integers(1, 4)))])


class TestBatchedLines:
    @given(point_pairs())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_reference(self, pq):
        p, q = pq
        coeffs, ok = lines_through(p, q)
        for k in range(len(p)):
            try:
                expect = reference.line_through(p[k], q[k])
            except reference.Degenerate:
                assert not ok[k] and np.isnan(coeffs[k]).all()
                continue
            assert ok[k]
            assert np.array_equal(coeffs[k], expect)

    @given(point_pairs())
    @settings(max_examples=100, deadline=None)
    def test_unit_normal_and_sign(self, pq):
        coeffs, ok = lines_through(*pq)
        a, b = coeffs[ok, 0], coeffs[ok, 1]
        assert np.allclose(a * a + b * b, 1.0, rtol=0.0, atol=4e-16)
        assert ((a > 0) | ((np.abs(a) <= 1e-12) & (b > 0))).all()

    @given(point_pairs(), st.lists(pixel, min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_point_and_segment_errors(self, pq, xs):
        p, q = pq
        x = np.array(xs[: len(p)])
        coeffs, ok = lines_through(p, q)
        d1, d2 = p2l_errors(x, coeffs), l2l_errors(x, p, coeffs)
        for k in np.flatnonzero(ok):
            line = reference.line_through(p[k], q[k])
            assert d1[k] == reference.p2l(x[k], line)[0]
            assert d2[k, 0] == d1[k] and d2[k, 1] == reference.p2l(p[k], line)[0]
        assert np.array_equal(p2p_errors(p, q)[:, 0], p[:, 0] - q[:, 0])

    def test_random_sweep_bit_equal(self):
        # Uniform random pixels at three scales: np.hypot in place of
        # math.hypot, for one, changes about 0.5% of these lines.
        rng = np.random.default_rng(0)
        p = rng.uniform(-700, 700, (4000, 2)) * rng.choice([1e-3, 1.0, 1e3], (4000, 1))
        q = p + rng.normal(0, 300, p.shape)
        coeffs, ok = lines_through(p, q)
        assert ok.all()
        expect = np.array([reference.line_through(a, b) for a, b in zip(p, q)])
        assert np.array_equal(coeffs, expect)

    def test_segment_coincidence_mask(self):
        p = np.array([[1.0, 1.0], [1.0, 1.0]])
        q = np.array([[1.0, 1.0 + 0.5 * COINCIDENT_TOL_PX], [1.0, 2.0]])
        assert distinct_points(p, q).tolist() == [False, True]


class TestBatchedConics:
    @given(five_point_sets(), st.lists(pixel, min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_reference(self, pts, xs):
        mats, ok = conics_through(pts)
        x = np.array(xs[: len(pts)])
        residuals = p2c_errors(x, mats)
        for k in range(len(pts)):
            try:
                expect = reference.conic_through(pts[k])
            except reference.Degenerate:
                assert not ok[k] and np.isnan(mats[k]).all()
                continue
            assert ok[k]
            assert np.array_equal(mats[k], expect)
            assert residuals[k] == reference.p2c(x[k], expect)[0]

    def test_random_sweep_bit_equal(self):
        rng = np.random.default_rng(1)
        center = rng.uniform(0, 640, (500, 1, 2))
        radii = rng.uniform(5, 200, (500, 1, 2))
        angles = rng.uniform(0, 2 * np.pi, (500, 5))
        pts = center + radii * np.stack([np.cos(angles), np.sin(angles)], axis=2)
        pts += rng.normal(0, 1, pts.shape)
        mats, ok = conics_through(pts)
        assert ok.all()
        assert np.array_equal(mats, np.array([reference.conic_through(p) for p in pts]))

    def test_non_finite_points_rejected(self):
        pts = circle_points(320, 240, 80, [0, 70, 140, 210, 280])
        bad = pts.copy()
        bad[4] = (float("nan"), 1.0)
        mats, ok = conics_through(np.stack([pts, bad]))
        assert ok.tolist() == [True, False]
        assert np.isnan(mats[1]).all()

    def test_wrong_shape_rejected(self):
        with pytest.raises(GeometryError):
            conics_through(np.zeros((2, 4, 2)))
