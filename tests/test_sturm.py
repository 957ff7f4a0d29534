import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracstar import (
    CoefficientError,
    EdgeCoefficients,
    Grid1D,
    TimeGrid,
    assemble_stiffness,
    left_rl_derivative,
    solve_forward_edge,
    trace_functional,
)
from conftest import flux_probe, random_coeffs


def classical_tridiagonal(grid, beta=1.0, q=1.0):
    """Hand-assembled P1/FV stiffness with natural closure at both ends."""
    M, h = grid.M, grid.h
    K = np.zeros((M + 1, M + 1))
    for j in range(M):
        K[j, j] += beta / h
        K[j + 1, j + 1] += beta / h
        K[j, j + 1] -= beta / h
        K[j + 1, j] -= beta / h
    w = np.full(M + 1, h)
    w[0] = w[-1] = h / 2
    return K + np.diag(q * w)


class TestCoefficients:
    def test_positivity_enforced(self):
        grid = Grid1D(0.0, 1.0, 4)
        with pytest.raises(CoefficientError):
            EdgeCoefficients(beta=np.full(5, -1.0), q=np.ones(5), beta0=-1.0, q0=1.0)
        with pytest.raises(CoefficientError):
            EdgeCoefficients(beta=np.ones(5), q=np.zeros(5), beta0=1.0, q0=0.0)
        with pytest.raises(CoefficientError):
            # stated lower bound above the actual minimum
            EdgeCoefficients(beta=np.ones(5), q=np.ones(5), beta0=2.0, q0=1.0)
        coeffs = EdgeCoefficients.constant(grid, 1.0, 1.0)
        with pytest.raises(CoefficientError):
            coeffs._replace(beta0=2.0)
        with pytest.raises(CoefficientError):
            coeffs._replace(q=np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        ok = np.ones(5)
        for i in range(5):
            spoilt = ok.copy()
            spoilt[i] = bad
            for beta, q in ((spoilt, ok), (ok, spoilt)):
                with pytest.raises(CoefficientError):
                    EdgeCoefficients(beta=beta, q=q, beta0=1.0, q0=1.0)
        with pytest.raises(CoefficientError):
            EdgeCoefficients(beta=ok, q=ok, beta0=np.nan, q0=1.0)


class TestAssembly:
    def test_symmetry(self, rng):
        grid = Grid1D(0.0, 1.0, 16)
        op = assemble_stiffness(0.55, grid, random_coeffs(rng, grid))
        assert np.abs(op.K - op.K.T).max() == 0.0

    def test_alpha_one_matches_classical(self):
        grid = Grid1D(0.0, 1.0, 8)
        coeffs = EdgeCoefficients.constant(grid, 1.0, 1.0)
        op = assemble_stiffness(1.0, grid, coeffs)
        np.testing.assert_allclose(op.K, classical_tridiagonal(grid), atol=1e-12)

    def test_coercivity_eigensolve(self, rng):
        # smallest generalized eigenvalue of (K, W) dominates q0
        grid = Grid1D(0.0, 1.0, 8)
        coeffs = EdgeCoefficients(
            beta=1.0 + rng.random(9), q=np.full(9, 0.7), beta0=1.0, q0=0.7
        )
        op = assemble_stiffness(0.6, grid, coeffs)
        lam = sla.eigh(op.K, np.diag(grid.trapezoid_weights()), eigvals_only=True)
        assert lam.min() >= 0.7 - 1e-10

    def test_coefficient_scaling(self, rng):
        grid = Grid1D(0.0, 1.0, 10)
        coeffs = random_coeffs(rng, grid)
        scaled = EdgeCoefficients(
            beta=4.0 * coeffs.beta, q=4.0 * coeffs.q, beta0=4.0, q0=2.0
        )
        K1 = assemble_stiffness(0.45, grid, coeffs).K
        K4 = assemble_stiffness(0.45, grid, scaled).K
        np.testing.assert_allclose(K4, 4.0 * K1, rtol=1e-13)

    def test_singular_dof_extension(self, rng):
        grid = Grid1D(0.0, 1.0, 9)
        coeffs = random_coeffs(rng, grid)
        op = assemble_stiffness(0.5, grid, coeffs, include_singular_dof=True)
        assert op.K.shape[0] == grid.nnodes + 1
        # the mode's tip trace is one; at a the nodes carry no trace, the mode
        # all of it
        assert op.trace_b[-1] == 1.0
        assert np.all(trace_functional(0.5, grid, "a") == 0.0)
        # extended stiffness stays SPD: the mode is distinguishable from its
        # nodal interpolant through the derivative term
        lam = np.linalg.eigvalsh(op.K)
        assert lam.min() > 0.0
        # derivative ignores the mode entirely: its column of K is the
        # reaction mass alone
        wq = grid.trapezoid_weights() * coeffs.q
        assert op.K[:-1, -1].tobytes() == (wq * op.mode).tobytes()

    def test_alpha_one_pins_first_node(self):
        grid = Grid1D(0.0, 1.0, 6)
        coeffs = EdgeCoefficients.constant(grid, 1.0, 1.0)
        op1 = assemble_stiffness(1.0, grid, coeffs)
        assert 0 not in op1.free
        op = assemble_stiffness(0.5, grid, coeffs)
        assert 0 in op.free


class TestDiagonalProducts:
    """``K`` and ``W`` are bitwise the dense ``A @ np.diag(d) @ B`` products
    that the scaled operand and the direct mass fills replace, except the
    junction corner: it is one dot product, whose summation order BLAS does
    not fix, so it agrees to roundoff."""

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        M=st.integers(2, 600),
        singular=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(alpha=0.05, M=33, singular=True, seed=0)
    @example(alpha=1.0, M=64, singular=False, seed=1)
    @example(alpha=1e-3, M=600, singular=True, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_bitwise_dense_diag_formula(self, alpha, M, singular, seed):
        rng = np.random.default_rng(seed)
        grid = Grid1D(0.0, float(rng.uniform(0.5, 2.0)), M)
        coeffs = random_coeffs(rng, grid)
        op = assemble_stiffness(alpha, grid, coeffs, include_singular_dof=singular)
        E = np.eye(grid.nnodes, op.K.shape[0])
        if singular:
            E[:, -1] = op.mode
        # the derivative on the extended vector: the mode's column is zero
        D = np.pad(left_rl_derivative(alpha, grid), ((0, 0), (0, int(singular))))
        wtrap = grid.trapezoid_weights()
        cell_beta = 0.5 * (coeffs.beta[:-1] + coeffs.beta[1:])
        K = D.T @ np.diag(grid.h * cell_beta) @ D
        K += E.T @ np.diag(wtrap * coeffs.q) @ E
        K = 0.5 * (K + K.T)
        W = E.T @ np.diag(wtrap) @ E
        for got, ref in ((op.K, K), (op.W, W)):
            if singular:
                assert abs(got[-1, -1] - ref[-1, -1]) <= 1e-13 * abs(ref[-1, -1])
                got, ref = got.copy(), ref.copy()
                got[-1, -1] = ref[-1, -1] = 0.0
            assert got.tobytes() == ref.tobytes()


class TestNeumannLoad:
    """The load of a Neumann control value ``v`` is ``v * op.trace_b``."""

    def test_zero(self, rng):
        # a zero control loads nothing: the state equals the uncontrolled one
        grid = Grid1D(0.0, 1.0, 7)
        op = assemble_stiffness(0.6, grid, random_coeffs(rng, grid))
        tg = TimeGrid(1.0, 5)
        f = rng.standard_normal((6, 8))
        y0 = rng.standard_normal(8)
        zero = solve_forward_edge(op, tg, f, y0, np.zeros(6))
        none = solve_forward_edge(op, tg, f, y0, None)
        np.testing.assert_array_equal(zero.y, none.y)

    def test_unit_control_pairs_with_constants(self):
        grid = Grid1D(0.0, 1.5, 12)
        alpha = 0.7
        op = assemble_stiffness(alpha, grid, EdgeCoefficients.constant(grid, 1.0, 1.0))
        load = 1.0 * op.trace_b
        exact = (grid.b - grid.a) ** (1 - alpha) / math.gamma(2 - alpha)
        assert abs(load @ np.ones(op.K.shape[0]) - exact) <= 1e-14 * exact

    def test_alpha_one_is_endpoint_load(self):
        grid = Grid1D(0.0, 1.0, 5)
        op = assemble_stiffness(1.0, grid, EdgeCoefficients.constant(grid, 1.0, 1.0))
        np.testing.assert_array_equal(1.0 * op.trace_b, np.eye(6)[-1])


class TestFluxIdentity:
    @pytest.mark.parametrize("alpha", [0.4, 0.8, 1.0])
    def test_steady_green_identity(self, alpha, rng):
        # solve K y = W f + v * trace_b^T and recover the natural boundary
        # value from the residual by the flux probe
        grid = Grid1D(0.0, 1.0, 14)
        op = assemble_stiffness(alpha, grid, random_coeffs(rng, grid))
        f = rng.standard_normal(grid.nnodes)
        v = 0.8321
        wtr = grid.trapezoid_weights()
        fr = op.free
        rhs = (wtr * f)[fr] + v * op.trace_b[fr]
        y = np.zeros(op.K.shape[0])
        y[fr] = np.linalg.solve(op.K[np.ix_(fr, fr)], rhs)
        recovered = flux_probe(op) @ (op.K @ y - wtr * f)
        assert abs(recovered - v) <= 1e-10
