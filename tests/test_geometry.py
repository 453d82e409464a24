"""Geometric constraint primitives: constructions, errors, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from geomimic.geometry import (
    COINCIDENT_TOL_PX,
    Conic,
    CoincidentPointsError,
    GeometryError,
    HomLine,
    ImagePoint,
    conic_through,
    conics_through,
    distinct_points,
    l2l_error,
    l2l_errors,
    line_through,
    lines_through,
    p2c_error,
    p2c_errors,
    p2l_error,
    p2l_errors,
    p2p_error,
    p2p_errors,
)


def circle_points(cx, cy, r, angles_deg):
    return [
        ImagePoint(cx + r * math.cos(math.radians(a)), cy + r * math.sin(math.radians(a)))
        for a in angles_deg
    ]


class TestHomLine:
    def test_normalization_unit_normal(self):
        line = HomLine(3.0, 4.0, -5.0)
        assert line.a**2 + line.b**2 == pytest.approx(1.0, abs=1e-12)
        assert line.coeffs() == pytest.approx([0.6, 0.8, -1.0])

    def test_sign_convention_first_nonzero_positive(self):
        assert HomLine(-3.0, 4.0, 1.0).a > 0
        # a ~ 0: the b coefficient carries the sign convention
        assert HomLine(0.0, -2.0, 4.0).b > 0

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            HomLine(0.0, 0.0, 1.0)

    def test_equal_lines_compare_equal(self):
        assert HomLine(1.0, 1.0, 2.0) == HomLine(2.0, 2.0, 4.0)


class TestLineThrough:
    def test_diagonal(self):
        line = line_through(ImagePoint(0, 0), ImagePoint(2, 2))
        expect = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert line.coeffs() == pytest.approx(expect, abs=1e-12)

    def test_u_axis(self):
        line = line_through(ImagePoint(0, 0), ImagePoint(1, 0))
        assert line.coeffs() == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_horizontal_v_equals_1(self):
        line = line_through(ImagePoint(0, 1), ImagePoint(2, 1))
        assert line.coeffs() == pytest.approx([0.0, 1.0, -1.0], abs=1e-12)

    def test_coincident_points_rejected(self):
        p = ImagePoint(5.0, 5.0)
        with pytest.raises(CoincidentPointsError):
            line_through(p, ImagePoint(5.0, 5.0 + 0.5 * COINCIDENT_TOL_PX))

    def test_endpoints_lie_on_line(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = ImagePoint(*rng.uniform(-500, 500, 2))
            q = ImagePoint(*rng.uniform(-500, 500, 2))
            if math.hypot(p.u - q.u, p.v - q.v) < 1e-6:
                continue
            line = line_through(p, q)
            assert abs(p2l_error(p, line)[0]) < 1e-9
            assert abs(p2l_error(q, line)[0]) < 1e-9


class TestPointErrors:
    def test_p2p_coincident_zero(self):
        assert p2p_error(ImagePoint(3, 4), ImagePoint(3, 4)) == pytest.approx([0, 0])

    def test_p2p_offset_and_norm(self):
        err = p2p_error(ImagePoint(0, 0), ImagePoint(3, 4))
        assert err == pytest.approx([-3.0, -4.0])
        assert np.linalg.norm(err) == pytest.approx(5.0)

    def test_p2p_fractional(self):
        err = p2p_error(ImagePoint(1.5, 2.0), ImagePoint(0.5, 1.0))
        assert err == pytest.approx([1.0, 1.0])

    def test_p2p_antisymmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = ImagePoint(*rng.uniform(0, 640, 2))
            q = ImagePoint(*rng.uniform(0, 640, 2))
            assert p2p_error(p, q) == pytest.approx(-p2p_error(q, p))

    def test_p2l_point_on_line(self):
        line = line_through(ImagePoint(0, 0), ImagePoint(2, 2))
        assert p2l_error(ImagePoint(1, 1), line)[0] == pytest.approx(0.0, abs=1e-12)

    def test_p2l_unit_distance(self):
        line = HomLine(0.0, 1.0, 0.0)
        assert p2l_error(ImagePoint(0, 1), line)[0] == pytest.approx(1.0)

    def test_p2l_normalizes_input_scale(self):
        # 3u + 4v - 5 = 0 scaled down by the normal's length 5
        err = p2l_error(ImagePoint(2, 3), HomLine(3.0, 4.0, -5.0))
        assert err[0] == pytest.approx(2.6)

    def test_p2l_is_euclidean_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = ImagePoint(*rng.uniform(-100, 100, 2))
            q = ImagePoint(*rng.uniform(-100, 100, 2))
            x = ImagePoint(*rng.uniform(-100, 100, 2))
            if math.hypot(p.u - q.u, p.v - q.v) < 1e-3:
                continue
            line = line_through(p, q)
            d = abs(p2l_error(x, line)[0])
            # distance from x to the infinite line through p, q
            ab = np.array([q.u - p.u, q.v - p.v])
            ax = np.array([x.u - p.u, x.v - p.v])
            expect = abs(ab[0] * ax[1] - ab[1] * ax[0]) / np.linalg.norm(ab)
            assert d == pytest.approx(expect, abs=1e-9)


class TestSegmentErrors:
    def test_collinear_zero(self):
        line = line_through(ImagePoint(2, 2), ImagePoint(3, 3))
        err = l2l_error((ImagePoint(0, 0), ImagePoint(1, 1)), line)
        assert err == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_parallel_offset(self):
        axis = HomLine(0.0, 1.0, 0.0)
        err = l2l_error((ImagePoint(0, 1), ImagePoint(1, 1)), axis)
        assert err == pytest.approx([1.0, 1.0])

    def test_perpendicular(self):
        axis = HomLine(0.0, 1.0, 0.0)
        err = l2l_error((ImagePoint(0, 0), ImagePoint(0, 2)), axis)
        assert err == pytest.approx([0.0, 2.0])

    def test_coincident_endpoints_rejected(self):
        axis = HomLine(0.0, 1.0, 0.0)
        with pytest.raises(CoincidentPointsError):
            l2l_error((ImagePoint(1, 1), ImagePoint(1, 1)), axis)


class TestConic:
    def test_unit_circle_residuals(self):
        c = Conic(np.diag([1.0, 1.0, -1.0]))
        s3 = math.sqrt(3.0)
        assert p2c_error(ImagePoint(1, 0), c)[0] == pytest.approx(0.0, abs=1e-12)
        assert p2c_error(ImagePoint(0, 0), c)[0] == pytest.approx(-1.0 / s3)
        assert p2c_error(ImagePoint(2, 0), c)[0] == pytest.approx(3.0 / s3)

    def test_normalization(self):
        c = Conic(np.diag([2.0, 2.0, -2.0]))
        assert np.linalg.norm(c.matrix) == pytest.approx(1.0, abs=1e-12)
        assert c.matrix == pytest.approx(np.diag([1.0, 1.0, -1.0]) / math.sqrt(3.0))

    def test_asymmetric_rejected(self):
        m = np.diag([1.0, 1.0, -1.0])
        m[0, 1] = 0.5
        with pytest.raises(GeometryError):
            Conic(m)

    def test_zero_matrix_rejected(self):
        with pytest.raises(GeometryError):
            Conic(np.zeros((3, 3)))

    def test_through_five_circle_points(self):
        pts = circle_points(320, 240, 80, [0, 70, 140, 210, 280])
        conic = conic_through(pts)
        for p in pts:
            assert abs(p2c_error(p, conic)[0]) < 1e-9
        # a sixth point of the same circle also fits
        extra = circle_points(320, 240, 80, [333])[0]
        assert abs(p2c_error(extra, conic)[0]) < 1e-9
        # the center clearly does not
        assert abs(p2c_error(ImagePoint(320, 240), conic)[0]) > 1e-4

    def test_through_rejects_wrong_count(self):
        pts = circle_points(0, 0, 1, [0, 60, 120, 180])
        with pytest.raises(GeometryError):
            conic_through(pts)

    def test_through_rejects_collinear(self):
        pts = [ImagePoint(float(i), 2.0 * i + 1.0) for i in range(5)]
        with pytest.raises(GeometryError):
            conic_through(pts)


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
                with pytest.raises(CoincidentPointsError):
                    line_through(ImagePoint(*p[k]), ImagePoint(*q[k]))
                continue
            assert ok[k]
            assert np.array_equal(coeffs[k], expect)
            scalar = line_through(ImagePoint(*p[k]), ImagePoint(*q[k]))
            assert np.array_equal(scalar.coeffs(), expect)

    @given(point_pairs())
    @settings(max_examples=100, deadline=None)
    def test_unit_normal_and_sign(self, pq):
        coeffs, ok = lines_through(*pq)
        a, b = coeffs[ok, 0], coeffs[ok, 1]
        assert np.allclose(a * a + b * b, 1.0, rtol=0.0, atol=4e-16)
        assert ((a > 0) | ((np.abs(a) <= 1e-12) & (b > 0))).all()

    @given(coord, coord, coord)
    def test_homline_matches_reference(self, a, b, c):
        try:
            expect = reference.unit_line(a, b, c)
        except reference.Degenerate:
            with pytest.raises(GeometryError):
                HomLine(a, b, c)
            return
        assert np.array_equal(HomLine(a, b, c).coeffs(), expect)

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
            scalar = p2l_error(ImagePoint(*x[k]), line_through(ImagePoint(*p[k]), ImagePoint(*q[k])))
            assert scalar[0] == d1[k]
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
            points = [ImagePoint(*p) for p in pts[k]]
            try:
                expect = reference.conic_through(pts[k])
            except reference.Degenerate:
                assert not ok[k] and np.isnan(mats[k]).all()
                with pytest.raises(GeometryError):
                    conic_through(points)
                continue
            assert ok[k]
            assert np.array_equal(mats[k], expect)
            assert residuals[k] == reference.p2c(x[k], expect)[0]
            scalar = conic_through(points)
            assert np.array_equal(scalar.matrix, expect)
            assert p2c_error(ImagePoint(*x[k]), scalar)[0] == residuals[k]

    @given(st.lists(coord, min_size=6, max_size=6), st.sampled_from([0.0, 1e-9, 1e-3, 50.0]))
    def test_conic_constructor_matches_reference(self, upper, skew):
        m = np.zeros((3, 3))
        m[np.triu_indices(3)] = upper
        m = m + np.triu(m, 1).T
        m[0, 1] += skew
        try:
            expect = reference.unit_conic(m)
        except reference.Degenerate:
            with pytest.raises(GeometryError):
                Conic(m)
            return
        got = Conic(m).matrix
        assert np.array_equal(got, expect)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)
        assert got.flat[int(np.argmax(np.abs(got)))] > 0

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
        bad = pts[:4] + [ImagePoint(float("nan"), 1.0)]
        with pytest.raises(GeometryError, match="finite"):
            conic_through(bad)
        _, ok = conics_through(np.array([[(p.u, p.v) for p in pts], [(p.u, p.v) for p in bad]]))
        assert ok.tolist() == [True, False]

    def test_wrong_shape_rejected(self):
        with pytest.raises(GeometryError):
            conics_through(np.zeros((2, 4, 2)))
