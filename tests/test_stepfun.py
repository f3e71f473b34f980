import io
import json
import math

import numpy as np
import pytest
from scipy import integrate

from lorentz_forge.stepfun import (DivergentIntegralError, DyadicStep1D,
                                   DyadicStep2D, constant_grid, evaluate,
                                   indicator_grid, load_grid,
                                   power_weight_integral, refine, save_grid,
                                   weighted_integral_1d)


class TestPowerWeightIntegral:
    def test_sqrt_weight_unit_interval(self):
        assert power_weight_integral(0.5, 0.0, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_plain_measure(self):
        assert power_weight_integral(1.0, 0.0, 1.0) == 1.0

    def test_log_branch(self):
        assert power_weight_integral(0.0, 0.25, 0.5) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("c", [0.0, -0.5])
    def test_divergence_at_origin(self, c):
        with pytest.raises(DivergentIntegralError):
            power_weight_integral(c, 0.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            power_weight_integral(1.0, 0.5, 0.5)


class TestWeightedIntegral1D:
    def test_sqrt_weight_of_one(self):
        g = DyadicStep1D(0, np.array([1.0]))
        assert weighted_integral_1d(g, 0.5, 0.0, 1.0) == pytest.approx(2.0)

    def test_unit_weight_of_one(self):
        g = DyadicStep1D(0, np.array([1.0]))
        assert weighted_integral_1d(g, 1.0, 0.0, 1.0) == 1.0

    def test_half_supported(self):
        g = DyadicStep1D(1, np.array([2.0, 0.0]))
        assert weighted_integral_1d(g, 1.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_divergent_with_mass_at_origin(self):
        g = DyadicStep1D(1, np.array([1.0, 0.0]))
        with pytest.raises(DivergentIntegralError):
            weighted_integral_1d(g, -0.5, 0.0, 1.0)

    @pytest.mark.parametrize("c", [-0.5, 0.0, 0.5, 1.0, 2.0])
    def test_against_adaptive_quadrature(self, c, rng):
        g = DyadicStep1D(4, rng.random(16))
        a, b = (0.25, 0.875) if c <= 0 else (0.0, 0.875)

        def integrand(t):
            j = min(int(t * 16), 15)
            return t ** (c - 1) * g.values[j]

        expected = 0.0
        # integrate piecewise so quad never straddles a jump
        edges = np.arange(17) / 16.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            lo2, hi2 = max(lo, a), min(hi, b)
            if hi2 > lo2:
                expected += integrate.quad(integrand, lo2, hi2, epsabs=1e-13)[0]
        got = weighted_integral_1d(g, c, a, b)
        assert got == pytest.approx(expected, rel=1e-10)


class TestEvaluate:
    def test_constant(self):
        f = constant_grid(1.0, (2, 2))
        assert evaluate(f, 0.3, 0.7) == 1.0

    def test_zero_extension(self):
        f = constant_grid(5.0, (1, 1))
        assert evaluate(f, 1.5, 0.5) == 0.0
        assert evaluate(f, 0.5, 1.0) == 0.0

    def test_cell_lookup(self):
        f = DyadicStep2D((1, 1), [[1.0, 4.0], [3.0, 2.0]])
        assert evaluate(f, 0.75, 0.25) == 4.0
        assert evaluate(f, 0.25, 0.75) == 3.0

    @pytest.mark.parametrize("t1,t2", [(0.0, 0.5), (0.5, 0.0), (-1.0, 0.5)])
    def test_domain_error(self, t1, t2):
        f = constant_grid(1.0)
        with pytest.raises(ValueError):
            evaluate(f, t1, t2)


class TestRefine:
    def test_constant_refines_to_constant(self):
        f = constant_grid(3.0, (0, 0))
        g = refine(f, (1, 1))
        assert g.levels == (1, 1)
        assert np.all(g.values == 3.0)

    def test_replication_along_x2(self):
        f = DyadicStep2D((1, 0), [[1.0, 2.0]])
        g = refine(f, (1, 1))
        assert g.values.tolist() == [[1.0, 2.0], [1.0, 2.0]]

    def test_evaluation_agrees_at_random_points(self, rng):
        f = DyadicStep2D((2, 3), rng.random((8, 4)))
        g = refine(f, (4, 5))
        for _ in range(10):
            t1, t2 = rng.uniform(1e-6, 0.999, size=2)
            assert evaluate(g, t1, t2) == evaluate(f, t1, t2)

    def test_preserves_weighted_value_multiset(self, rng):
        f = DyadicStep2D((2, 2), rng.random((4, 4)))
        g = refine(f, (3, 4))
        for v in np.unique(f.values):
            area_f = np.count_nonzero(f.values == v) * f.widths[0] * f.widths[1]
            area_g = np.count_nonzero(g.values == v) * g.widths[0] * g.widths[1]
            assert area_g == pytest.approx(area_f, rel=1e-14)

    def test_coarsening_rejected(self):
        f = constant_grid(1.0, (2, 2))
        with pytest.raises(ValueError):
            refine(f, (1, 2))


class TestValidation:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            DyadicStep2D((1, 1), [[1.0, -1.0], [0.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DyadicStep2D((1, 1), [[1.0, 2.0, 3.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DyadicStep1D(0, np.array([np.inf]))

    @pytest.mark.parametrize("level", [True, False, 1.5, 1.0, "1", None, -1])
    def test_levels_must_be_integers(self, level):
        with pytest.raises(ValueError, match="level"):
            DyadicStep1D(level, np.ones(2))
        with pytest.raises(ValueError, match="level"):
            DyadicStep2D((level, 1), np.ones((2, 2)))
        with pytest.raises(ValueError, match="level"):
            DyadicStep2D((1, level), np.ones((2, 2)))

    @pytest.mark.parametrize("levels", [(-1, 0), (0, -1), (0.5, 1), (1, 1.0),
                                        (True, 1), (1, None)])
    def test_constant_grid_levels_must_be_integers(self, levels):
        # (-1, 0) raised a TypeError from np.full's shape
        with pytest.raises(ValueError, match="level"):
            constant_grid(1.0, levels)

    @pytest.mark.parametrize("level", [1, np.int64(1), np.uint8(1)])
    def test_integer_levels_accepted(self, level):
        assert DyadicStep1D(level, np.ones(2)).level == 1
        f = DyadicStep2D((level, level), np.ones((2, 2)))
        assert f.levels == (1, 1) and type(f.levels[0]) is int


def test_grid_json_round_trip(tmp_path, rng):
    f = DyadicStep2D((2, 3), rng.random((8, 4)))
    path = tmp_path / "grid.json"
    save_grid(f, path)
    doc = json.loads(path.read_text())
    assert doc["levels"] == [2, 3]
    assert len(doc["values"]) == 8 and len(doc["values"][0]) == 4
    g = load_grid(path)
    assert g.levels == f.levels
    assert np.array_equal(g.values, f.values)


@pytest.mark.parametrize("f", [
    DyadicStep2D((5, 5), np.random.default_rng(5).random((32, 32))),
    DyadicStep2D((1, 1), np.array([[5e-324, 1e-300], [1.7e308, 0.0]])),
], ids=["random5", "extremes"])
def test_save_grid_bytes_match_json_dump(tmp_path, f):
    path = tmp_path / "grid.json"
    save_grid(f, path)
    ref = io.StringIO()
    json.dump({"levels": list(f.levels),
               "values": [list(map(float, r)) for r in f.values]}, ref)
    assert path.read_text() == ref.getvalue()
    assert np.array_equal(load_grid(path).values, f.values)


def test_indicator_grid():
    f = indicator_grid(0.5, 1.0, (1, 0))
    assert f.values.tolist() == [[1.0, 0.0]]
    with pytest.raises(ValueError):
        indicator_grid(0.3, 1.0, (1, 0))
