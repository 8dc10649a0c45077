import io
import math
import time
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest

from zpfdrive import vacuum
from zpfdrive.vacuum import (
    MAX_N_PER_AXIS,
    CutoffConvention,
    ModeGrid,
    ORACLE_CSV_HEADER,
    VacuumModel,
    _geometry_sum,
    convergence_study,
    mode_sum_oracle,
    vacuum_momentum_closed_form,
)


class TestCutoff:
    def test_conventions_map_size_to_wavenumber(self):
        assert CutoffConvention.WAVELENGTH_EQUALS_SIZE.k_cut(1e-9) == pytest.approx(
            2 * math.pi / 1e-9
        )
        assert CutoffConvention.HALF_WAVELENGTH.k_cut(1e-9) == pytest.approx(math.pi / 1e-9)

    def test_default_model(self):
        m = VacuumModel()
        assert m.prefactor_a == 1e-2

    def test_prefactor_must_be_positive(self):
        with pytest.raises(ValueError):
            VacuumModel(prefactor_a=0.0)


class TestClosedFormMomentum:
    def test_zero_chi_gives_zero(self):
        assert vacuum_momentum_closed_form(0.0, 1e-9, VacuumModel()).value == 0.0

    def test_nanoparticle_value(self):
        # 1e-2 * 1.054571817e-34 * 1e-3 / 1e-9
        p = vacuum_momentum_closed_form(1e-3, 1e-9, VacuumModel())
        assert p.value == pytest.approx(1.054571817e-30, rel=1e-14)
        assert p.unit == "kg m/s"

    def test_odd_in_chi(self):
        m = VacuumModel()
        assert vacuum_momentum_closed_form(-1e-3, 1e-9, m).value == -(
            vacuum_momentum_closed_form(1e-3, 1e-9, m).value
        )

    def test_non_finite_momentum_refused(self):
        with pytest.raises(ValueError, match="^vacuum_momentum = inf kg m/s is not finite$"):
            vacuum_momentum_closed_form(1e-3, 1e-70, VacuumModel(1e300))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            vacuum_momentum_closed_form(1e-3, 0.0, VacuumModel())

    def test_chi_sanity_bound(self):
        m = VacuumModel()
        assert vacuum_momentum_closed_form(-1.0, 1e-9, m).value < 0.0
        for chi in (1.0 + 1e-15, -5.0):
            with pytest.raises(ValueError, match="chi_xy .* is out of range"):
                vacuum_momentum_closed_form(chi, 1e-9, m)
            with pytest.raises(ValueError, match="chi_xy .* is out of range"):
                mode_sum_oracle(chi, 1e-9, ModeGrid.for_particle(1e-9, 8))


class TestModeGrid:
    def test_minimum_resolution_enforced(self):
        with pytest.raises(ValueError):
            ModeGrid(n_per_axis=7, k_cut=1e9)

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValueError):
            ModeGrid(n_per_axis=16, k_cut=0.0)

    def test_maximum_resolution_enforced(self):
        assert ModeGrid(n_per_axis=MAX_N_PER_AXIS, k_cut=1e9).n_per_axis == MAX_N_PER_AXIS
        with pytest.raises(ValueError, match=f"must be <= {MAX_N_PER_AXIS}, got 100000"):
            ModeGrid(n_per_axis=100_000, k_cut=1e9)

    def test_study_validates_every_grid_before_computing(self):
        with mock.patch("zpfdrive.vacuum._geometry_sum") as geometry:
            with pytest.raises(ValueError, match="got 4096"):
                convergence_study(1e-3, [1e-9], [16, 4096])
        geometry.assert_not_called()

    def test_spacing(self):
        g = ModeGrid(n_per_axis=16, k_cut=math.pi / 1e-9)
        assert g.dk == pytest.approx(math.pi / 1e-9 / 16)


class TestModeSumOracle:
    def test_zero_chi_gives_exact_zero(self):
        g = ModeGrid.for_particle(1e-9, 16)
        p, eff_a = mode_sum_oracle(0.0, 1e-9, g)
        assert p.value == 0.0
        assert eff_a > 0

    def test_linear_in_chi(self):
        g = ModeGrid.for_particle(1e-9, 16)
        p1, _ = mode_sum_oracle(1e-3, 1e-9, g)
        p2, _ = mode_sum_oracle(2e-3, 1e-9, g)
        assert p2.value == pytest.approx(2.0 * p1.value, rel=1e-12)

    def test_doubling_size_halves_momentum(self):
        n = 64
        p_a, _ = mode_sum_oracle(1e-3, 1e-9, ModeGrid.for_particle(1e-9, n))
        p_2a, _ = mode_sum_oracle(1e-3, 2e-9, ModeGrid.for_particle(2e-9, n))
        assert abs(p_2a.value) == pytest.approx(abs(p_a.value) / 2.0, rel=0.02)

    def test_sign_agrees_with_closed_form(self):
        g = ModeGrid.for_particle(1e-9, 16)
        m = VacuumModel()
        for chi in (1e-3, -1e-3):
            oracle_p, _ = mode_sum_oracle(chi, 1e-9, g)
            closed_p = vacuum_momentum_closed_form(chi, 1e-9, m)
            assert math.copysign(1.0, oracle_p.value) == math.copysign(1.0, closed_p.value)

    def test_scaling_exponent_fit(self):
        sizes = [1e-9, 2e-9, 4e-9, 8e-9]
        momenta = [
            abs(mode_sum_oracle(1e-3, a, ModeGrid.for_particle(a, 32))[0].value)
            for a in sizes
        ]
        slope = np.polyfit(np.log(sizes), np.log(momenta), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_effective_a_is_chi_independent(self):
        g = ModeGrid.for_particle(1e-9, 16)
        _, a1 = mode_sum_oracle(1e-3, 1e-9, g)
        _, a2 = mode_sum_oracle(5e-4, 1e-9, g)
        assert a1 == a2


class TestConvergenceStudy:
    def test_csv_emission(self):
        buf = io.StringIO()
        rows = convergence_study(1e-3, [1e-9, 2e-9], [8, 16], out=buf)
        assert len(rows) == 4
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == list(ORACLE_CSV_HEADER)
        assert len(lines) == 5

    def test_each_lattice_sum_computed_once(self, monkeypatch):
        sums, oracle_ns = [], []
        geometry_sum, oracle = vacuum._geometry_sum, vacuum.mode_sum_oracle

        def counting_sum(n):
            sums.append(n)
            return geometry_sum(n)

        def counting_oracle(chi, a, grid, *args, **kwargs):
            oracle_ns.append(grid.n_per_axis)
            return oracle(chi, a, grid, *args, **kwargs)

        monkeypatch.setattr(vacuum, "_geometry_sum", counting_sum)
        monkeypatch.setattr(vacuum, "mode_sum_oracle", counting_oracle)
        sizes, n_values = [1e-9, 2e-9, 5e-9], [8, 16, 8]
        rows = convergence_study(1e-3, sizes, n_values)
        assert sums == [8, 16]
        assert oracle_ns == [8, 8, 8, 16, 16, 16, 8, 8, 8]
        for row in rows:
            grid = ModeGrid.for_particle(row["a_m"], row["n_per_axis"])
            p, eff_a = oracle(1e-3, row["a_m"], grid)
            assert (row["p_kg_m_s"], row["effective_A"]) == (p.value, eff_a)

    def test_chi_checked_before_the_first_lattice_sum(self, monkeypatch):
        monkeypatch.setattr(vacuum, "_geometry_sum", None)  # calling it would fail differently
        with pytest.raises(ValueError, match="chi_xy .* is out of range"):
            convergence_study(2.0, [1e-9], [2048])


def brute_force_geometry_sums(n_max: int) -> list[Decimal]:
    """Independent reference: entry n is sum m_z^2/|m| over 0 < |m|^2 <= n^2.

    Per-shell integer sums of m_z^2 come from a brute-force 3-D grid; the
    shell terms are added in order of |m|^2 in 40-digit decimal arithmetic,
    so every radius up to ``n_max`` reads its sum off one running total.
    """
    idx = np.arange(-n_max, n_max + 1)
    i, j, k = np.meshgrid(idx, idx, idx, indexing="ij", sparse=True)
    s = (i * i + j * j + k * k).ravel()
    mz2 = np.broadcast_to(k * k, (idx.size,) * 3).ravel()
    inside = s <= n_max * n_max
    shell_mz2 = np.bincount(s[inside], weights=mz2[inside], minlength=n_max * n_max + 1)
    running = [Decimal(0)]
    with localcontext() as ctx:
        ctx.prec = 40
        for shell in range(1, n_max * n_max + 1):
            term = Decimal(int(shell_mz2[shell])) / Decimal(shell).sqrt()
            running.append(running[-1] + term)
    return running


class TestGeometrySum:
    def test_equals_correctly_rounded_reference(self):
        running = brute_force_geometry_sums(64)
        for n in range(8, 65):
            assert _geometry_sum(n) == float(running[n * n]), n

    def test_n256_study_runtime_guard(self):
        start = time.perf_counter()
        convergence_study(1e-3, [1e-9, 2e-9], [256])
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "convention, continuum",
        [
            (CutoffConvention.HALF_WAVELENGTH, math.pi**2 / 24),
            (CutoffConvention.WAVELENGTH_EQUALS_SIZE, 2 * math.pi**2 / 3),
        ],
    )
    def test_continuum_limit_gap_within_tenth_over_n(self, convention, continuum):
        # the lattice-point discrepancy of the sphere makes the gap O(1/n)
        # and not monotone; n*|gap| peaks at 0.067 (n = 58) over n = 32..512
        for n in (32, 33, 47, 58, 64, 100, 127, 128, 200, 256, 384, 512):
            _, eff_a = mode_sum_oracle(1e-3, 1e-9, ModeGrid.for_particle(1e-9, n, convention))
            assert abs(eff_a / continuum - 1.0) <= 0.1 / n, n
