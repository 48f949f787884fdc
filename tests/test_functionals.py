import numpy as np
import pytest

from snls.functionals import hamiltonian, mass
from snls.spectral import Field, Grid, zero_field


class TestMass:
    def test_zero_field(self):
        assert mass(zero_field(Grid(1, 64, 16.0))) == 0.0

    def test_constant(self):
        grid = Grid(2, 16, 8.0)
        c = 1.5 - 2.0j
        u = Field(grid, np.full(grid.shape, c))
        assert mass(u) == pytest.approx(abs(c) ** 2 * grid.length ** 2, rel=1e-13)

    def test_phase_invariance(self):
        grid = Grid(1, 64, 16.0)
        gen = np.random.Generator(np.random.Philox(key=[1, 2]))
        u = Field(grid, gen.standard_normal(grid.shape)
                  + 1j * gen.standard_normal(grid.shape))
        rot = Field(grid, np.exp(1j * 1.234) * u.values)
        assert mass(rot) == pytest.approx(mass(u), rel=1e-13)


class TestHamiltonian:
    def test_constant_defocusing(self):
        grid = Grid(1, 64, 16.0)
        c = 2.0
        u = Field(grid, np.full(grid.shape, c))
        # zero gradient; lam=-1 flips the potential sign
        want = 0.25 * c ** 4 * grid.length
        assert hamiltonian(u, 3.0, -1) == pytest.approx(want, rel=1e-13)

    def test_soliton_closed_form(self):
        # sqrt(2) sech: kinetic 2/3, potential -4/3 (from int sech^2 tanh^2
        # = 2/3 and int sech^4 = 4/3), so H = -2/3 and mass = 4
        grid = Grid(1, 512, 40.0)
        xi = grid.meshes[0]
        u = Field(grid, np.sqrt(2.0) / np.cosh(xi))
        assert hamiltonian(u, 3.0, 1) == pytest.approx(-2.0 / 3.0, rel=1e-10)
        assert mass(u) == pytest.approx(4.0, rel=1e-10)

    def test_phase_invariance(self):
        grid = Grid(1, 64, 16.0)
        xi = grid.meshes[0]
        u = Field(grid, np.exp(-xi ** 2))
        rot = Field(grid, np.exp(1j * 0.7) * u.values)
        assert hamiltonian(rot, 3.0, 1) == pytest.approx(
            hamiltonian(u, 3.0, 1), rel=1e-13)

    def test_rejects_out_of_range_alpha(self):
        grid = Grid(3, 8, 8.0)
        u = Field(grid, np.ones(grid.shape))
        with pytest.raises(ValueError):
            hamiltonian(u, 6.0, 1)       # above 1 + 4/(d-2) = 5 for d = 3


class TestHamiltonianContinuity:
    def test_perturbation_ladder_ratio_bounded(self):
        # |H(u) - H(u + delta w)| / |u - (u + delta w)|_{H1} stays bounded
        # (and stabilizes) as delta drops over three decades
        grid = Grid(1, 128, 16.0)
        xi = grid.meshes[0]
        u = Field(grid, np.exp(-xi ** 2 / 2.0) * np.exp(0.3j * xi))
        w = Field(grid, np.exp(-(xi - 1.0) ** 2))
        from snls.spectral import h1_norm
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            v = Field(grid, u.values + delta * w.values)
            num = abs(hamiltonian(u, 3.0, 1) - hamiltonian(v, 3.0, 1))
            ratios.append(num / (delta * h1_norm(w)))
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        assert max(ratios) / min(ratios) <= 1.5
