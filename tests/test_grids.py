import math

import numpy as np
import pytest

from fracstar import Grid1D, TimeGrid

inf, nan = math.inf, math.nan


class TestGrid1D:
    def test_numpy_integer_cells(self):
        grid = Grid1D(0.0, 1.0, np.int64(4))
        assert grid.h == 0.25 and grid.nnodes == 5

    @pytest.mark.parametrize("a, b", [(-inf, 0.0), (nan, 0.0), (0.0, inf), (0.0, nan), (1.0, 1.0)])
    def test_interval_finite_and_nonempty(self, a, b):
        with pytest.raises(ValueError, match="finite nonempty interval"):
            Grid1D(a, b, 4)

    # finite endpoints whose distance overflows, or a nonempty interval whose
    # mesh size underflows to zero
    @pytest.mark.parametrize("a, b, M", [(-1e308, 1e308, 8), (0.0, 5e-324, 2)])
    def test_mesh_size_finite_and_positive(self, a, b, M):
        with pytest.raises(ValueError, match="mesh size must be finite and positive"):
            Grid1D(a, b, M)

    @pytest.mark.parametrize("M", [2.5, 4.0, nan, 1])
    def test_cells_a_whole_number_of_at_least_two(self, M):
        with pytest.raises(ValueError, match="whole number of at least 2 cells"):
            Grid1D(0.0, 1.0, M)

    def test_replace_and_make_are_checked(self):
        grid = Grid1D(0.0, 1.0, 4)
        assert grid._replace(M=8) == Grid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="at least 2 cells"):
            grid._replace(M=1)
        with pytest.raises(ValueError, match="finite nonempty interval"):
            Grid1D._make([1.0, 0.0, 4])


class TestTimeGrid:
    def test_numpy_integer_steps(self):
        assert TimeGrid(1.0, np.int32(4)).dt == 0.25

    @pytest.mark.parametrize("T", [inf, nan, 0.0, -1.0])
    def test_horizon_positive_and_finite(self, T):
        with pytest.raises(ValueError, match="positive and finite"):
            TimeGrid(T, 4)

    @pytest.mark.parametrize("Nt", [2.5, 4.0, 0])
    def test_steps_a_whole_number_of_at_least_one(self, Nt):
        with pytest.raises(ValueError, match="whole number of at least 1 time step"):
            TimeGrid(1.0, Nt)

    def test_replace_is_checked(self):
        assert TimeGrid(1.0, 4)._replace(Nt=8).dt == 0.125
        with pytest.raises(ValueError, match="positive and finite"):
            TimeGrid(1.0, 4)._replace(T=-1.0)
