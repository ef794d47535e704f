"""Spaces: validation, analytic distances, sampling, moments, CSV round-trip."""
from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import equilateral_triangle, random_metric_space, shortest_path_completion
from mdslab.mds_core import double_center, eigendecompose, embed
from mdslab.products import product_space
from mdslab.spaces import (
    AsymmetricMatrix,
    BadWeights,
    FiniteSpace,
    GridUnsupported,
    NegativeDistance,
    NonFiniteValue,
    NonzeroDiagonal,
    PointOffManifold,
    ProductSpace,
    SampleSpec,
    Snowflake,
    Sphere,
    Torus,
    TriangleViolation,
    distance,
    finite_space_from_matrix,
    fourth_moment_norm,
    read_space_csv,
    sample,
    write_space_csv,
)
from mdslab.stability import (
    _image_space,
    circle_limit_map,
    nearest_grid_assignment,
    pullback_operator,
)


def named_triple(exc: TriangleViolation) -> tuple[int, int, int]:
    """The (i, j, k) a TriangleViolation message names."""
    found = re.search(r"\(i=(\d+), j=(\d+), k=(\d+)\)", str(exc))
    return tuple(int(v) for v in found.groups())


def unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


class TestFiniteSpaceValidation:
    def test_singleton(self):
        fs = finite_space_from_matrix([[0.0]], [1.0])
        assert fs.n == 1
        assert fs.diameter == 0.0

    def test_equilateral(self):
        fs = equilateral_triangle()
        assert fs.n == 3
        assert np.allclose(fs.D, fs.D.T)

    def test_asymmetric_rejected_with_indices(self):
        D = [[0.0, 1.0], [2.0, 0.0]]
        with pytest.raises(AsymmetricMatrix, match=r"D\[0,1\]"):
            finite_space_from_matrix(D, [0.5, 0.5])

    def test_negative_distance(self):
        D = [[0.0, -1.0], [-1.0, 0.0]]
        with pytest.raises(NegativeDistance, match=r"D\[0,1\]"):
            finite_space_from_matrix(D, [0.5, 0.5])

    def test_nonzero_diagonal(self):
        D = [[0.5, 1.0], [1.0, 0.0]]
        with pytest.raises(NonzeroDiagonal, match=r"D\[0,0\]"):
            finite_space_from_matrix(D, [0.5, 0.5])

    def test_triangle_violation(self):
        D = np.array([[0, 1, 1], [1, 0, 5], [1, 5, 0]], dtype=float)
        with pytest.raises(TriangleViolation):
            finite_space_from_matrix(D, [1 / 3] * 3)

    def test_triangle_violation_randomized_path(self, rng):
        n = 600
        fs = random_metric_space(rng, 64)
        D = np.zeros((n, n))
        block = fs.D
        D[:64, :64] = block
        # plant a gross violation in an otherwise near-degenerate big matrix
        D[:, :] = 1.0
        np.fill_diagonal(D, 0.0)
        D[0, 1] = D[1, 0] = 10.0
        with pytest.raises(TriangleViolation):
            finite_space_from_matrix(D, np.full(n, 1.0 / n))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_distance_rejected(self, bad):
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        D[1, 2] = D[2, 1] = bad
        with pytest.raises(NonFiniteValue, match=r"D\[1,2\]"):
            finite_space_from_matrix(D, [1 / 3] * 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(NonFiniteValue, match=r"w\[1\]"):
            finite_space_from_matrix([[0.0, 1.0], [1.0, 0.0]], [0.5, bad])

    def test_violation_through_pseudometric_zero(self):
        # Points 0 and 1 coincide, so D[0,2] = 5 > D[0,1] + D[1,2] = 1.
        D = np.array([[0, 0, 5], [0, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(TriangleViolation, match=r"\(i=0, j=2, k=1\)"):
            finite_space_from_matrix(D, [1 / 3] * 3)

    def test_planted_violation_found_and_named_at_1024(self):
        D = np.array(sample(Sphere(1), SampleSpec(mode="grid", n=1024)).D)
        D[0, 2] += 1e-6
        D[2, 0] = D[0, 2]
        with pytest.raises(TriangleViolation) as err:
            finite_space_from_matrix(D, np.full(1024, 1.0 / 1024))
        i, j, k = named_triple(err.value)
        assert D[i, j] > D[i, k] + D[k, j]

    def test_bad_weights(self):
        with pytest.raises(BadWeights):
            finite_space_from_matrix([[0.0, 1.0], [1.0, 0.0]], [0.7, 0.7])
        with pytest.raises(BadWeights):
            finite_space_from_matrix([[0.0, 1.0], [1.0, 0.0]], [1.5, -0.5])

    def test_matrices_frozen(self):
        fs = equilateral_triangle()
        with pytest.raises(ValueError):
            fs.D[0, 1] = 5.0


class TestAnalyticDistance:
    def test_circle_antipodal(self):
        assert distance(Sphere(1), unit(0.0), unit(math.pi)) == pytest.approx(math.pi)

    def test_snowflake_antipodal(self):
        snow = Snowflake(Sphere(1), 0.5)
        got = distance(snow, unit(0.0), unit(math.pi))
        assert got == pytest.approx(math.sqrt(math.pi))

    def test_product_right_angles(self):
        prod = ProductSpace(Sphere(1), Sphere(1))
        x = (unit(0.0), unit(0.0))
        y = (unit(math.pi / 2), unit(math.pi / 2))
        assert distance(prod, x, y) == pytest.approx(math.pi / math.sqrt(2.0))

    def test_snowflake_is_exact_power(self, rng):
        snow = Snowflake(Sphere(2), 0.37)
        for _ in range(50):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(3)
            y /= np.linalg.norm(y)
            base = distance(Sphere(2), x, y)
            assert distance(snow, x, y) == base**0.37

    def test_symmetry_and_zero_on_identical(self, rng):
        spaces = [
            Sphere(1),
            Sphere(3),
            Snowflake(Sphere(2), 0.5),
            Torus(2),
            ProductSpace(Sphere(1), Torus(2)),
        ]

        def draw(space):
            if isinstance(space, Sphere):
                v = rng.standard_normal(space.d + 1)
                return v / np.linalg.norm(v)
            if isinstance(space, Snowflake):
                return draw(space.base)
            if isinstance(space, ProductSpace):
                return (draw(space.left), draw(space.right))
            return rng.uniform(0.0, 2 * math.pi, size=space.k)

        for space in spaces:
            for _ in range(200):
                x, y = draw(space), draw(space)
                assert distance(space, x, y) == pytest.approx(distance(space, y, x), abs=1e-14)
                assert distance(space, x, x) == 0.0

    def test_product_triangle_inequality(self, rng):
        prod = ProductSpace(Sphere(1), Sphere(1))
        for _ in range(300):
            pts = [
                (unit(rng.uniform(0, 2 * math.pi)), unit(rng.uniform(0, 2 * math.pi)))
                for _ in range(3)
            ]
            dxy = distance(prod, pts[0], pts[1])
            dxz = distance(prod, pts[0], pts[2])
            dzy = distance(prod, pts[2], pts[1])
            assert dxy <= dxz + dzy + 1e-12

    def test_off_manifold_rejected(self):
        with pytest.raises(PointOffManifold):
            distance(Sphere(1), np.array([1.1, 0.0]), np.array([1.0, 0.0]))


class TestSampling:
    def test_circle_grid_4(self):
        fs = sample(Sphere(1), SampleSpec(mode="grid", n=4))
        assert fs.n == 4
        assert np.allclose(fs.w, 0.25)
        assert fs.D[0, 1] == pytest.approx(math.pi / 2)
        assert fs.D[0, 2] == pytest.approx(math.pi)

    def test_circle_grid_2(self):
        fs = sample(Sphere(1), SampleSpec(mode="grid", n=2))
        assert fs.D[0, 1] == pytest.approx(math.pi)

    def test_torus_grid_counts(self):
        fs = sample(Torus(2), SampleSpec(mode="grid", n=4))
        assert fs.n == 16
        assert np.allclose(fs.w, 1.0 / 16.0)

    def test_sphere2_grid_unsupported(self):
        with pytest.raises(GridUnsupported):
            sample(Sphere(2), SampleSpec(mode="grid", n=10))

    def test_random_reproducible(self):
        spec = SampleSpec(mode="uniform_random", n=20, seed=99)
        a = sample(Sphere(2), spec)
        b = sample(Sphere(2), spec)
        assert np.array_equal(a.D, b.D)
        c = sample(Sphere(2), SampleSpec(mode="uniform_random", n=20, seed=100))
        assert not np.array_equal(a.D, c.D)

    def test_grid_seed_independent(self):
        a = sample(Sphere(1), SampleSpec(mode="grid", n=8, seed=1))
        b = sample(Sphere(1), SampleSpec(mode="grid", n=8, seed=2))
        assert np.array_equal(a.D, b.D)

    def test_snowflake_sampling_matches_power(self):
        base = sample(Sphere(1), SampleSpec(mode="grid", n=8))
        snow = sample(Snowflake(Sphere(1), 0.5), SampleSpec(mode="grid", n=8))
        assert np.array_equal(snow.D, base.D**0.5)


class TestFourthMoment:
    def test_singleton(self):
        assert fourth_moment_norm(finite_space_from_matrix([[0.0]], [1.0])) == 0.0

    def test_equilateral(self):
        assert fourth_moment_norm(equilateral_triangle()) == pytest.approx((2.0 / 3.0) ** 0.25)

    def test_circle_grid_limit(self):
        # continuum value of the L^4 distance moment is pi * 5^(-1/4)
        limit = math.pi * 5.0 ** (-0.25)
        prev_gap = math.inf
        for n in (8, 32, 128, 512):
            gap = abs(fourth_moment_norm(sample(Sphere(1), SampleSpec("grid", n))) - limit)
            assert gap < prev_gap or gap < 1e-12
            prev_gap = gap
        assert prev_gap < 1e-4


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        fs = random_metric_space(rng, 17, uniform=False)
        path = tmp_path / "space.csv"
        write_space_csv(fs, str(path))
        back = read_space_csv(str(path))
        assert np.array_equal(back.D, fs.D)
        assert np.array_equal(back.w, fs.w)

    def test_write_deterministic(self, tmp_path, rng):
        fs = random_metric_space(rng, 9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_space_csv(fs, str(p1))
        write_space_csv(fs, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def brute_force_violates(D: np.ndarray, tol: float) -> bool:
    n = D.shape[0]
    return any(D[i, j] - D[i, k] - D[k, j] > tol
               for i, j, k in itertools.product(range(n), repeat=3))


@st.composite
def symmetric_matrices(draw):
    """Symmetric nonnegative matrices with zero diagonal and n <= 10: raw
    integer matrices (off-diagonal zeros included), optionally closed under
    shortest paths, optionally with one planted violation."""
    n = draw(st.integers(1, 10))
    D = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        D[i, j] = D[j, i] = draw(st.integers(0, 6))
    if draw(st.booleans()):
        D = shortest_path_completion(D)
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        D[i, j] += draw(st.sampled_from([1e-6, 0.5, 3.0]))
        D[j, i] = D[i, j]
    return D * draw(st.sampled_from([1.0, 0.1, 1e4]))


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_exact_check_agrees_with_all_triples_oracle(D):
    n = D.shape[0]
    expect = brute_force_violates(D, 1e-12 * max(1.0, float(D.max())))
    try:
        finite_space_from_matrix(D, np.full(n, 1.0 / n))
        rejected = False
    except TriangleViolation as exc:
        rejected = True
        i, j, k = named_triple(exc)
        assert D[i, j] > D[i, k] + D[k, j]
    assert rejected == expect


def _circle_image(n: int, limit: bool):
    fs = sample(Sphere(1), SampleSpec(mode="grid", n=n))
    points = (circle_limit_map(2.0 * math.pi * np.arange(n) / n, 4) if limit
              else embed(eigendecompose(double_center(fs)), 4))
    return _image_space(points, fs.w)


def _pullback_space():
    fine = sample(Sphere(1), SampleSpec(mode="grid", n=128))
    coarse = sample(Sphere(1), SampleSpec(mode="grid", n=32))
    op = pullback_operator(fine, coarse, nearest_grid_assignment(128, 32))
    # kernel_matrix is -D**2 / 2; the round trip through it is exact.
    return FiniteSpace(D=np.sqrt(-2.0 * op.kernel_matrix), w=op.w)


# Every kind of space the library builds without the triangle check.
METRIC_BY_CONSTRUCTION = {
    "circle_grid_512": lambda: sample(Sphere(1), SampleSpec(mode="grid", n=512)),
    "sphere2_random_640": lambda: sample(
        Sphere(2), SampleSpec(mode="uniform_random", n=640, seed=1)),
    "torus2_grid": lambda: sample(Torus(2), SampleSpec(mode="grid", n=16)),
    "snowflake_circle_0.5_grid": lambda: sample(
        Snowflake(Sphere(1), 0.5), SampleSpec(mode="grid", n=256)),
    "product_space": lambda: product_space(
        sample(Sphere(1), SampleSpec(mode="grid", n=20)),
        sample(Sphere(2), SampleSpec(mode="uniform_random", n=32, seed=1))),
    "image_space_embedding": lambda: _circle_image(256, limit=False),
    "image_space_limit_map": lambda: _circle_image(256, limit=True),
    "pullback_operator": _pullback_space,
}


@pytest.mark.parametrize("name", sorted(METRIC_BY_CONSTRUCTION))
def test_metric_by_construction_passes_exact_check(name):
    built = METRIC_BY_CONSTRUCTION[name]()
    finite_space_from_matrix(built.D, built.w)
