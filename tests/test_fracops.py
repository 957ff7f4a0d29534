import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracstar import (
    EdgeCoefficients,
    Grid1D,
    StarGraphProblem,
    TimeGrid,
    assemble_graph_system,
    assemble_stiffness,
    frac_integral_weights,
    junction_rows,
    left_rl_derivative,
    right_caputo_nodal,
    singular_mode,
    trace_functional,
)
from fracstar.fracops import _derivative_blocks

EPS = np.finfo(float).eps


# The product-rule integrals themselves are not part of the package: the
# operators it builds are gathered from their weights.  These are the
# references those operators are checked against.


def left_integral(weights, samples):
    """Left fractional integral at the nodes of piecewise-constant data, by
    convolution: cell values are the left-node samples, ``out[0] = 0`` and
    ``out[j] = sum_k w[k] * samples[j-1-k]``."""
    M = len(samples) - 1
    out = np.zeros(M + 1)
    out[1:] = np.convolve(weights[:M], samples[:-1])[:M]
    return out


def right_integral(weights, samples):
    """Right fractional integral, the mirror of the left one under
    ``x -> a + b - x``; cell values are the right-node samples, ``out[M] = 0``."""
    return left_integral(weights, samples[::-1])[::-1]


def left_integral_matrix(weights):
    """Matrix of :func:`left_integral`, built row by row: row ``j`` hits
    cells ``< j``."""
    M = len(weights) - 1
    T = np.zeros((M + 1, M + 1))
    for j in range(1, M + 1):
        T[j, :j] = weights[j - 1 :: -1][:j]
    return T


class TestWeights:
    def test_formula(self):
        w = frac_integral_weights(0.5, 0.125, 8)
        k = np.arange(9)
        expected = (0.125**0.5 / math.gamma(1.5)) * ((k + 1) ** 0.5 - k**0.5)
        np.testing.assert_allclose(w, expected, rtol=1e-15)

    def test_alpha_one_is_rectangle_rule(self):
        w = frac_integral_weights(1.0, 0.3, 5)
        np.testing.assert_allclose(w, 0.3, rtol=1e-15)

    @given(
        alpha=st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
        M=st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_and_decreasing(self, alpha, M):
        w = frac_integral_weights(alpha, 0.01, M)
        assert np.all(w > 0.0)
        # as alpha approaches one the decrements drop below the rounding
        # error of (k+1)^a - k^a, which scales with k; allow ties at that
        # granularity
        assert np.all(np.diff(w) <= 8.0 * EPS * (M + 1) * w.max())
        if alpha <= 0.99:
            assert np.all(np.diff(w) < 0.0)

    @given(alpha=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_partial_sums_exact(self, alpha):
        h, M = 0.05, 40
        w = frac_integral_weights(alpha, h, M)
        for K in (1, 7, 40):
            exact = (K * h) ** alpha / math.gamma(alpha + 1.0)
            assert abs(np.sum(w[:K]) - exact) <= 10 * EPS * max(1.0, exact)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            frac_integral_weights(0.0, 0.1, 4)
        with pytest.raises(ValueError):
            frac_integral_weights(1.5, 0.1, 4)
        with pytest.raises(ValueError):
            frac_integral_weights(0.5, -0.1, 4)


class TestLeftIntegral:
    def test_zero(self):
        w = frac_integral_weights(0.5, 0.1, 6)
        np.testing.assert_array_equal(left_integral(w, np.zeros(7)), np.zeros(7))

    def test_alpha_one_cumulative(self, rng):
        grid = Grid1D(0.0, 1.0, 10)
        w = frac_integral_weights(1.0, grid.h, grid.M)
        y = rng.standard_normal(11)
        out = left_integral(w, y)
        expected = np.concatenate([[0.0], grid.h * np.cumsum(y[:-1])])
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_matches_naive_double_loop(self, rng):
        # brute-force evaluation of the product quadrature
        w = frac_integral_weights(0.7, 0.125, 8)
        y = rng.standard_normal(9)
        out = left_integral(w, y)
        naive = np.zeros(9)
        for j in range(1, 9):
            for c in range(j):
                naive[j] += w[j - 1 - c] * y[c]
        np.testing.assert_allclose(out, naive, atol=1e-14)

    @given(alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)), M=st.integers(2, 1024))
    @example(alpha=0.5, M=2)
    @example(alpha=0.5, M=1024)
    @example(alpha=1.0, M=2)
    @settings(max_examples=40, deadline=None)
    def test_last_row_is_the_trace_at_b(self, alpha, M):
        # the trace at b is the order 1 - alpha integral at the last node;
        # the order 0 integral of alpha = 1 is the identity
        grid = Grid1D(0.0, 1.0, M)
        if alpha == 1.0:
            T = np.eye(M + 1)
        else:
            T = left_integral_matrix(frac_integral_weights(1.0 - alpha, grid.h, M))
        assert trace_functional(alpha, grid, "b").tobytes() == T[-1].tobytes()

    def test_exact_on_constants(self):
        grid = Grid1D(0.0, 1.0, 10)
        w = frac_integral_weights(0.5, grid.h, grid.M)
        out = left_integral(w, np.ones(11))
        exact = grid.nodes**0.5 / math.gamma(1.5)
        assert np.abs(out - exact).max() <= 10 * EPS * exact.max()

    def test_linear_input_first_order(self):
        # closed-form power rule: I^0.5 x = x^1.5 / Gamma(2.5)
        errs = []
        for M in (16, 32, 64):
            grid = Grid1D(0.0, 1.0, M)
            w = frac_integral_weights(0.5, grid.h, M)
            out = left_integral(w, grid.nodes)
            errs.append(np.abs(out - grid.nodes**1.5 / math.gamma(2.5)).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 0.9)


class TestRightIntegral:
    def test_zero(self):
        w = frac_integral_weights(0.4, 0.1, 5)
        np.testing.assert_array_equal(right_integral(w, np.zeros(6)), np.zeros(6))

    def test_reflection_identity(self, rng):
        # the mirror of the trace at b is the right integral at a
        grid = Grid1D(0.0, 1.4, 7)
        alpha = 0.65
        w = frac_integral_weights(1.0 - alpha, grid.h, grid.M)
        y = rng.standard_normal(8)
        lhs = right_integral(w, y)
        np.testing.assert_array_equal(lhs, left_integral(w, y[::-1])[::-1])
        assert lhs[-1] == 0.0
        rb = trace_functional(alpha, grid, "b")
        assert abs(lhs[0] - rb @ y[::-1]) <= 1e-14

    def test_exact_on_constants(self):
        grid = Grid1D(0.0, 2.0, 8)
        alpha = 0.6
        w = frac_integral_weights(alpha, grid.h, grid.M)
        out = right_integral(w, np.ones(9))
        exact = (grid.b - grid.nodes) ** alpha / math.gamma(alpha + 1.0)
        assert np.abs(out - exact).max() <= 10 * EPS * exact.max()

    def test_mirror_transpose_operator(self, rng):
        w = frac_integral_weights(0.55, 0.125, 8)
        TL = left_integral_matrix(w)
        TR = TL[::-1, ::-1]  # the mirror image of the left operator
        np.testing.assert_array_equal(TR, TL.T)
        # left op is strictly lower triangular in the cell sense
        assert np.all(np.triu(TL) == 0.0)
        # the matrices realize the convolution rules
        y = rng.standard_normal(9)
        np.testing.assert_allclose(TL @ y, left_integral(w, y), atol=1e-14)
        np.testing.assert_allclose(TR @ y, right_integral(w, y), atol=1e-14)


class TestLeftDerivative:
    def test_alpha_one_backward_difference(self):
        grid = Grid1D(0.0, 1.0, 9)
        D = left_rl_derivative(1.0, grid)
        np.testing.assert_allclose(D @ grid.nodes, 1.0, atol=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_power_rule_first_order(self, alpha):
        # closed form: the derivative of (x-a)^alpha is the constant
        # Gamma(alpha+1); measured away from the singular endpoint where no
        # piecewise-constant product rule converges pointwise
        errs = []
        for M in (16, 32, 64, 128):
            grid = Grid1D(0.0, 1.0, M)
            D = left_rl_derivative(alpha, grid)
            vals = D @ (grid.nodes**alpha)
            mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
            errs.append(np.abs(vals - math.gamma(alpha + 1.0))[mids >= 0.125].max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 0.9)

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        M=st.integers(2, 600),
        b=st.floats(0.5, 2.0),
    )
    @example(alpha=1.0, M=2, b=1.0)
    @example(alpha=1e-3, M=600, b=2.0)
    @settings(max_examples=40, deadline=None)
    def test_gathered_from_the_integral_differences(self, alpha, M, b):
        # bitwise the backward difference of the integral's matrix, which the
        # gather from the differences of its Toeplitz column replaces; the
        # order 0 integral of alpha = 1 is the identity
        grid = Grid1D(0.0, b, M)
        if alpha == 1.0:
            T = np.eye(M + 1)
        else:
            T = left_integral_matrix(frac_integral_weights(1.0 - alpha, grid.h, M))
        ref = (T[1:] - T[:-1]) / grid.h
        assert left_rl_derivative(alpha, grid).tobytes() == ref.tobytes()

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        M=st.integers(2, 200),
        rows=st.integers(1, 70),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_of_rows_are_the_derivative(self, alpha, M, rows):
        # the blocks, in order, are bitwise the whole matrix's rows
        grid = Grid1D(0.0, 1.0, M)
        blocks = list(_derivative_blocks(alpha, grid, rows))
        assert [start for start, _ in blocks] == list(range(0, M, rows))
        assert all(len(block) <= rows for _, block in blocks)
        whole = np.vstack([block for _, block in blocks])
        assert whole.tobytes() == left_rl_derivative(alpha, grid).tobytes()

    def test_singular_mode_column_is_zero(self):
        # the assembled derivative ignores the mode coefficient: the operator
        # is assembled on the nodes alone, and the mode's row of the extended
        # stiffness holds the reaction mass alone, which for q = 1 is its row
        # of the mass
        grid = Grid1D(0.0, 1.0, 12)
        coeffs = EdgeCoefficients.constant(grid, 1.0, 1.0)
        op = assemble_stiffness(0.45, grid, coeffs)
        rows = junction_rows(0.45, grid, coeffs)
        assert op.K.shape == (grid.nnodes,) * 2
        assert rows.k.tobytes() == rows.w.tobytes()
        assert rows.k[:-1].tobytes() == (grid.trapezoid_weights() * rows.mode).tobytes()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            left_rl_derivative(1.2, Grid1D(0.0, 1.0, 4))


class TestRightCaputo:
    def test_zero(self):
        grid = Grid1D(0.0, 1.0, 6)
        out = right_caputo_nodal(0.5, grid, np.zeros(7))
        np.testing.assert_array_equal(out, np.zeros(7))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    def test_ibp_identity_flux(self, alpha, rng):
        # a cell flux g enters as the nodal np.append(g, g[-1]): its cells in
        # the volume term, its first and last cell in the bracket
        grid = Grid1D(0.0, 1.0, 8)
        wtr = grid.trapezoid_weights()
        D = left_rl_derivative(alpha, grid)
        rb = trace_functional(alpha, grid, "b")
        ra = trace_functional(alpha, grid, "a")
        for _ in range(20):
            g = rng.standard_normal(8)
            phi = rng.standard_normal(9)
            lhs = phi @ (wtr * right_caputo_nodal(alpha, grid, np.append(g, g[-1])))
            bracket = g[-1] * (rb @ phi) - g[0] * (ra @ phi)
            rhs = -bracket + grid.h * (g @ (D @ phi))
            assert abs(lhs - rhs) <= 1e-13

    def test_alpha_one_upwind(self, rng):
        grid = Grid1D(0.0, 1.0, 10)
        g = rng.standard_normal(10)
        out = right_caputo_nodal(1.0, grid, np.append(g, g[-1]))
        np.testing.assert_allclose(out[1:-1], (g[:-1] - g[1:]) / grid.h, atol=1e-12)
        # endpoint rows close the bracket
        assert abs(out[0]) <= 1e-12 and abs(out[-1]) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.4, 0.8, 1.0])
    def test_ibp_identity_nodal(self, alpha, rng):
        grid = Grid1D(0.0, 1.0, 9)
        wtr = grid.trapezoid_weights()
        D = left_rl_derivative(alpha, grid)
        rb = trace_functional(alpha, grid, "b")
        ra = trace_functional(alpha, grid, "a")
        for _ in range(10):
            y = rng.standard_normal(10)
            phi = rng.standard_normal(10)
            lhs = phi @ (wtr * right_caputo_nodal(alpha, grid, y))
            bracket = y[-1] * (rb @ phi) - y[0] * (ra @ phi)
            rhs = -bracket + grid.h * (y[:-1] @ (D @ phi))
            assert abs(lhs - rhs) <= 1e-13


class TestTraceFunctionals:
    def test_constant_at_b_exact(self):
        grid = Grid1D(0.5, 2.0, 12)
        alpha = 0.65
        r = trace_functional(alpha, grid, "b")
        exact = (grid.b - grid.a) ** (1 - alpha) / math.gamma(2 - alpha)
        assert abs(r @ np.ones(13) - exact) <= 10 * EPS * exact

    def test_zero_at_a_for_nodal(self, rng):
        grid = Grid1D(0.0, 1.0, 9)
        r = trace_functional(0.4, grid, "a")
        assert np.all(r == 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_telescoping_identity(self, alpha, rng):
        grid = Grid1D(0.0, 1.3, 11)
        rb = trace_functional(alpha, grid, "b")
        ra = trace_functional(alpha, grid, "a")
        D = left_rl_derivative(alpha, grid)
        for _ in range(10):
            y = rng.standard_normal(12)
            lhs = (rb - ra) @ y
            rhs = grid.h * np.sum(D @ y)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_alpha_one_point_evaluation(self):
        grid = Grid1D(0.0, 1.0, 5)
        np.testing.assert_array_equal(
            trace_functional(1.0, grid, "b"), np.eye(6)[-1]
        )
        np.testing.assert_array_equal(
            trace_functional(1.0, grid, "a"), np.eye(6)[0]
        )

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.0])
    def test_trace_bound(self, alpha, rng):
        # |trace_b(phi)| <= sqrt(b-a) ||D phi||_h for zero trace at a, by
        # telescoping plus Cauchy-Schwarz
        grid = Grid1D(0.0, 1.7, 13)
        rb = trace_functional(alpha, grid, "b")
        D = left_rl_derivative(alpha, grid)
        for _ in range(20):
            phi = rng.standard_normal(14)
            if alpha == 1.0:
                phi[0] = 0.0
            lhs = abs(rb @ phi)
            rhs = np.sqrt(grid.b - grid.a) * np.sqrt(grid.h * np.sum((D @ phi) ** 2))
            assert lhs <= rhs * (1.0 + 1e-12)


class TestSingularMode:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
    def test_integral_of_mode_is_one(self, alpha):
        # the order 1-alpha integral of the mode is the constant one, so the
        # assembled graph's trace rows hold one on the mode's coefficient, and
        # at a the mode carries the whole trace: the nodes' row is zero there,
        # or the pinned node's point value at alpha = 1
        grid = Grid1D(0.0, 1.0, 10)
        coeffs = EdgeCoefficients.constant(grid, 1.0, 1.0)
        problem = StarGraphProblem(
            alpha=alpha, time_grid=TimeGrid(1.0, 2), grids=[grid] * 2,
            coeffs=[coeffs] * 2, f=[None] * 2, y0=[np.zeros(grid.nnodes)] * 2,
            y_d=[None] * 2, m=2,
        )
        system = assemble_graph_system(problem)
        assert np.all(system.trace_b_rows[:, system.dofmap.c_index] == 1.0)
        nodes_at_a = np.zeros(grid.nnodes)
        nodes_at_a[0] = float(alpha == 1.0)
        assert trace_functional(alpha, grid, "a").tobytes() == nodes_at_a.tobytes()
        for rows in system.junctions:
            assert rows.mode.tobytes() == singular_mode(alpha, grid).tobytes()

    def test_node_zero_regularization(self):
        grid = Grid1D(0.0, 1.0, 8)
        mode = singular_mode(0.5, grid)
        expected0 = grid.h ** (-0.5) / math.gamma(1.5)
        assert abs(mode[0] - expected0) <= 1e-14 * expected0
        x = grid.nodes[1:]
        np.testing.assert_allclose(mode[1:], x ** (-0.5) / math.gamma(0.5), rtol=1e-14)

    def test_mode_constant_at_alpha_one(self):
        grid = Grid1D(0.0, 1.0, 6)
        np.testing.assert_array_equal(singular_mode(1.0, grid), np.ones(7))
