"""Spaces: validation, circle arcs, sampling, moments, CSV round-trip."""
from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import equilateral_triangle, random_metric_space, shortest_path_completion
from mdslab.mds_core import (
    EmbeddingResult,
    double_center,
    eigendecompose,
    embed,
    spectral_embedding,
    write_embedding_csv,
)
from mdslab.products import product_space
from mdslab.spaces import (
    AsymmetricMatrix,
    BadWeights,
    FiniteSpace,
    GridUnsupported,
    NegativeDistance,
    NonFiniteValue,
    NonzeroDiagonal,
    SampleSpec,
    Snowflake,
    Sphere,
    Torus,
    TriangleViolation,
    _circle_arc,
    _dist_sq_matrix,
    _fmt,
    _metric_space,
    _read_csv,
    finite_space_from_matrix,
    fourth_moment_norm,
    read_space_csv,
    sample,
    write_space_csv,
)
from mdslab.stability import circle_limit_map


def named_triple(exc: TriangleViolation) -> tuple[int, int, int]:
    """The (i, j, k) a TriangleViolation message names."""
    found = re.search(r"\(i=(\d+), j=(\d+), k=(\d+)\)", str(exc))
    return tuple(int(v) for v in found.groups())


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

    def test_sub_tolerance_chain_accepted(self):
        # Five collinear points with every unit step shortened by 0.3 tol:
        # the worst triple (i, i+2, i+1) is off by 0.6 tol, so every triple
        # holds within tol, though the defects add up to 1.2 tol along the
        # path from 0 to 4.
        tol = 1e-12 * 4.0
        x = np.arange(5.0)
        D = np.abs(x[:, None] - x[None, :])
        for i in range(4):
            D[i, i + 1] = D[i + 1, i] = 1.0 - 0.3 * tol
        assert not brute_force_violates(D, tol)
        assert brute_force_violates(D, 0.5 * tol)
        finite_space_from_matrix(D, np.full(5, 0.2))

    def test_violation_named_through_swapped_rows(self):
        # For each worst pair (i, k), i < k, the large row difference is
        # D[k,j] - D[i,j], so the named triple starts from the larger index.
        D = np.array([[0, 1, 1], [1, 0, 5], [1, 5, 0]], dtype=float)
        with pytest.raises(TriangleViolation) as err:
            finite_space_from_matrix(D, [1 / 3] * 3)
        i, j, k = named_triple(err.value)
        assert i > k
        assert D[i, j] > D[i, k] + D[k, j]

    @pytest.mark.parametrize("gap", [0.0, 1e-300, 1.0, 1e300])
    def test_two_points_pass(self, gap):
        fs = finite_space_from_matrix([[0.0, gap], [gap, 0.0]], [0.25, 0.75])
        assert fs.n == 2 and fs.diameter == gap

    def test_bad_weights(self):
        with pytest.raises(BadWeights):
            finite_space_from_matrix([[0.0, 1.0], [1.0, 0.0]], [0.7, 0.7])
        with pytest.raises(BadWeights):
            finite_space_from_matrix([[0.0, 1.0], [1.0, 0.0]], [1.5, -0.5])

    def test_matrices_frozen(self):
        fs = equilateral_triangle()
        with pytest.raises(ValueError):
            fs.D[0, 1] = 5.0


def _arc_modulo_form(a, b):
    """The arc as written before angles were required to lie in [0, 2 pi]."""
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % (2 * math.pi)
    return np.minimum(delta, 2 * math.pi - delta)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4096), st.data())
def test_circle_arc_on_grid_angles_equals_modulo_form(n, data):
    theta = 2 * math.pi * np.arange(n) / n
    cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    a, b = theta[:, None], theta[cols][None, :]
    assert np.array_equal(_circle_arc(a, b), _arc_modulo_form(a, b))


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
        spec = SampleSpec(mode="random", n=20, seed=99)
        a = sample(Sphere(2), spec)
        b = sample(Sphere(2), spec)
        assert np.array_equal(a.D, b.D)
        c = sample(Sphere(2), SampleSpec(mode="random", n=20, seed=100))
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


def reference_csv_row(row: np.ndarray) -> str:
    """The per-cell formatting the array writer must reproduce byte for byte."""
    return ",".join(map(_fmt, row.tolist()))


def bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22, 0.1]


@st.composite
def float_tables(draw):
    """A float64 matrix of shape 1x1, 1xk or kxk (k <= 6) and a length-k row."""
    k = draw(st.integers(1, 6))
    rows = draw(st.sampled_from([1, k]))
    cells = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False, width=64),
                      st.integers(-10**6, 10**6).map(float))
    return (draw(arrays(np.float64, (rows, k), elements=cells)),
            draw(arrays(np.float64, k, elements=cells)))


@settings(max_examples=200, deadline=None)
@given(float_tables())
def test_csv_codec_lossless_and_matches_cell_format(tmp_path_factory, table):
    """Both array writers emit exactly the per-cell ``_fmt`` bytes, and the
    reader gives back the same bits."""
    M, row = table
    tmp = tmp_path_factory.mktemp("codec")
    space_path, emb_path = tmp / "space.csv", tmp / "emb.csv"

    write_space_csv(FiniteSpace(D=M, w=row), str(space_path))
    want = [f"n,{M.shape[0]}"] + [reference_csv_row(r) for r in M] + [reference_csv_row(row)]
    assert space_path.read_bytes() == ("\n".join(want) + "\n").encode()
    (header,), back = _read_csv(str(space_path), 1)
    assert header == want[0]
    assert bits(back) == bits(np.vstack([M, row]))

    write_embedding_csv(EmbeddingResult(eigenvalues=row, U=M, w=row, positive_count=0,
                                        negative_count=0), str(emb_path))
    want = [reference_csv_row(row)] + [reference_csv_row(r) for r in M]
    assert emb_path.read_bytes() == ("\n".join(want) + "\n").encode()
    _, back = _read_csv(str(emb_path), 0)
    assert bits(back) == bits(np.vstack([row, M]))


LAYOUTS = {
    "blank_lines": lambda text: "\n" + text.replace("\n", "\n\n"),
    "whitespace_lines": lambda text: " \t\n" + text.replace("\n", "\n   \n"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    # The header key stays exact ("n ,5" is rejected); its count may be padded.
    "padded_cells": lambda text: "\n".join(
        f"  {ln.replace(',', ', ' if ln.startswith('n,') else ' , ')} " for ln in text.split("\n")),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", ["space", "embedding"])
def test_readers_accept_layout_variants(tmp_path, rng, kind, layout):
    fs = random_metric_space(rng, 5, uniform=False)
    canon, variant = tmp_path / "canon.csv", tmp_path / "variant.csv"
    if kind == "space":
        write_space_csv(fs, str(canon))

        def read(path):
            back = read_space_csv(str(path))
            return back.D, back.w
    else:
        write_embedding_csv(spectral_embedding(fs), str(canon))

        def read(path):
            return _read_csv(str(path), 0)
    variant.write_bytes(LAYOUTS[layout](canon.read_text()).encode())
    assert variant.read_bytes() != canon.read_bytes()
    for got, want in zip(read(variant), read(canon)):
        assert bits(got) == bits(want)


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


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.data())
def test_exact_check_accepts_exactly_the_shortest_path_closed(n, data):
    # Integer matrices scaled by a power of two, so the closure is exact and
    # every defect is at least the scale, far above tol.
    D = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        D[i, j] = D[j, i] = data.draw(st.integers(0, 8))
    if data.draw(st.booleans()):
        D = shortest_path_completion(D)
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        D[i, j] = D[j, i] = max(0.0, D[i, j] + data.draw(st.integers(-2, 2)))
    D *= data.draw(st.sampled_from([1.0, 0.25, 2.0**20]))
    closed = np.array_equal(shortest_path_completion(D), D)
    try:
        finite_space_from_matrix(D, np.full(n, 1.0 / n))
        accepted = True
    except TriangleViolation:
        accepted = False
    assert accepted == closed


def _image_space(points: np.ndarray, w: np.ndarray) -> FiniteSpace:
    """Euclidean distances between embedded points: a metric by construction."""
    D = np.sqrt(_dist_sq_matrix(points))
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return _metric_space(D, w)


def _circle_image(n: int, limit: bool):
    fs = sample(Sphere(1), SampleSpec(mode="grid", n=n))
    points = (circle_limit_map(2.0 * math.pi * np.arange(n) / n, 4) if limit
              else embed(eigendecompose(double_center(fs)), 4))
    return _image_space(points, fs.w)


# Every kind of space the library builds without the triangle check.
METRIC_BY_CONSTRUCTION = {
    "circle_grid_512": lambda: sample(Sphere(1), SampleSpec(mode="grid", n=512)),
    "sphere2_random_640": lambda: sample(
        Sphere(2), SampleSpec(mode="random", n=640, seed=1)),
    "torus2_grid": lambda: sample(Torus(2), SampleSpec(mode="grid", n=16)),
    "snowflake_circle_0.5_grid": lambda: sample(
        Snowflake(Sphere(1), 0.5), SampleSpec(mode="grid", n=256)),
    "product_space": lambda: product_space(
        sample(Sphere(1), SampleSpec(mode="grid", n=20)),
        sample(Sphere(2), SampleSpec(mode="random", n=32, seed=1))),
    "image_space_embedding": lambda: _circle_image(256, limit=False),
    "image_space_limit_map": lambda: _circle_image(256, limit=True),
}


@pytest.mark.parametrize("name", sorted(METRIC_BY_CONSTRUCTION))
def test_metric_by_construction_passes_exact_check(name):
    built = METRIC_BY_CONSTRUCTION[name]()
    finite_space_from_matrix(built.D, built.w)
