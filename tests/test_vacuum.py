import hashlib
import io
import math
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zpfdrive import vacuum
from zpfdrive.vacuum import (
    MAX_N_PER_AXIS,
    CutoffConvention,
    ModeGrid,
    ORACLE_CSV_HEADER,
    VacuumModel,
    _geometry_sum,
    _geometry_sums,
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
        with pytest.raises(ValueError, match="^n_per_axis 100000 is out of range$"):
            ModeGrid(n_per_axis=100_000, k_cut=1e9)

    @pytest.mark.parametrize("n", [16.5, 16.0, "16"])
    def test_resolution_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^n_per_axis must be an integer, got "):
            ModeGrid(n_per_axis=n, k_cut=1e9)
        with pytest.raises(ValueError, match="^n_per_axis must be an integer, got "):
            convergence_study(1e-3, [1e-9], [n])

    def test_study_validates_every_grid_before_computing(self):
        with mock.patch("zpfdrive.vacuum._geometry_sums") as geometry:
            with pytest.raises(ValueError, match="n_per_axis 4096 is out of range"):
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

    def test_one_shell_table_per_call(self, monkeypatch):
        tables, oracle_ns = [], []
        geometry_sums, oracle = vacuum._geometry_sums, vacuum.mode_sum_oracle

        def counting_sums(ns):
            tables.append(max(ns))
            return geometry_sums(ns)

        def counting_oracle(chi, a, grid, *args, **kwargs):
            oracle_ns.append(grid.n_per_axis)
            return oracle(chi, a, grid, *args, **kwargs)

        monkeypatch.setattr(vacuum, "_geometry_sums", counting_sums)
        monkeypatch.setattr(vacuum, "mode_sum_oracle", counting_oracle)
        sizes, n_values = [1e-9, 2e-9, 5e-9], [8, 16, 8]
        rows = convergence_study(1e-3, sizes, n_values)
        assert tables == [16]
        assert oracle_ns == [8, 8, 8, 16, 16, 16, 8, 8, 8]
        for row in rows:
            grid = ModeGrid.for_particle(row["a_m"], row["n_per_axis"])
            p, eff_a = oracle(1e-3, row["a_m"], grid)
            assert (row["p_kg_m_s"], row["effective_A"]) == (p.value, eff_a)

    def test_rows_follow_argv_order_with_repeats(self):
        sizes = [1e-9, 3e-9]
        rows = convergence_study(1e-3, sizes, [64, 16, 64])
        assert [row["n_per_axis"] for row in rows] == [64, 64, 16, 16, 64, 64]
        for row in rows:
            grid = ModeGrid.for_particle(row["a_m"], row["n_per_axis"])
            p, eff_a = mode_sum_oracle(1e-3, row["a_m"], grid, geometry=None)
            assert (row["p_kg_m_s"], row["effective_A"]) == (p.value, eff_a)
        assert rows[:2] == rows[4:]

    def test_chi_checked_before_the_first_lattice_sum(self, monkeypatch):
        monkeypatch.setattr(vacuum, "_geometry_sums", None)  # calling it would fail differently
        with pytest.raises(ValueError, match="chi_xy .* is out of range"):
            convergence_study(2.0, [1e-9], [2048])

    @pytest.mark.parametrize(
        "sizes, n_values, name", [([], [8], "sizes_m"), ([1e-9], [], "n_values")]
    )
    def test_empty_axis_refused(self, tmp_path, sizes, n_values, name):
        out = tmp_path / "oracle.csv"
        with pytest.raises(ValueError, match=f"^{name} is empty$"):
            convergence_study(1e-3, sizes, n_values, out=out)
        assert not out.exists()


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


def limb_terms(size: int):
    """Arrays t and t_err of ``size`` over their domains, 2 <= t < 2**26 and
    |t_err| < 2**-26, with the edges and the limbs' own powers of two."""
    t_edge = [2.0, np.nextafter(2.0**26, 0), 2.0 + 2.0**-51, 2.0**20 + 2.0**-32]
    err_edge = [0.0, -0.0, 5e-324, -(2.0**-70), 2.0**-71, 3 * 2.0**-117,
                np.nextafter(2.0**-26, 0), -np.nextafter(2.0**-26, 0)]
    return st.tuples(
        hnp.arrays(np.float64, size, elements=st.floats(2.0, 2.0**26, exclude_max=True)
                   | st.sampled_from(t_edge)),
        hnp.arrays(np.float64, size, elements=st.floats(-(2.0**-26), 2.0**-26,
                                                        exclude_min=True, exclude_max=True)
                   | st.sampled_from(err_edge)),
    )


def int32_shell_counts(n: int) -> np.ndarray:
    """r3(s) for 0 <= s <= n^2 in int32, r2 on the quarter disc summed over k^2."""
    n2 = n * n
    sq = np.arange(n + 1) ** 2
    quarter = (sq[1:, None] + sq[None, 1:]).ravel()
    r2 = 4 * np.bincount(quarter[quarter <= n2], minlength=n2 + 1).astype(np.int32)
    r2[sq[1:]] += 4
    r2[0] = 1
    r3 = r2.copy()
    twice_r2 = 2 * r2
    for k in range(1, n + 1):
        r3[k * k :] += twice_r2[: n2 + 1 - k * k]
    return r3


class TestGeometrySum:
    def test_every_resolution_keeps_its_bits(self):
        # SHA-256 of the float.hex of every sum, n = 8..2048, as the int32 shell
        # counts and the exact binned float sum gave them; the counts at the cap
        # stay below 2**16
        ns = range(8, MAX_N_PER_AXIS + 1)
        sums = _geometry_sums(ns)
        digest = hashlib.sha256("\n".join(float.hex(sums[n]) for n in ns).encode()).hexdigest()
        assert digest == "de8bb645ceb82ccd4a5231e515a8cdc50f3ef7a420c17b6ad36a8ce47e13ef55"
        assert int32_shell_counts(MAX_N_PER_AXIS).max() == 53_328 < 2**16

    def test_equals_correctly_rounded_reference(self):
        running = brute_force_geometry_sums(64)
        for n in range(8, 65):
            assert _geometry_sum(n) == float(running[n * n]), n

    # bits of the per-n math.fsum kernel this one replaced; at the odd n an
    # earlier slab sum was 1 ulp off
    @pytest.mark.parametrize(
        "n, bits",
        [
            (8, "0x1.061f05da018f1p+12"),
            (9, "0x1.b0aaeaa99d234p+12"),
            (11, "0x1.df163aaa2c03bp+13"),
            (18, "0x1.acdc061c71ad4p+16"),
            (23, "0x1.1d910d1bed5b7p+18"),
            (34, "0x1.5552b69959675p+20"),
            (54, "0x1.0fd5d8cde219ap+23"),
            (64, "0x1.0c08b1ce5112cp+24"),
            (111, "0x1.2f20b14f6da3fp+27"),
            (128, "0x1.0c02f6bf5b367p+28"),
            (149, "0x1.ec37b6fcb8fc3p+28"),
            (159, "0x1.3f2271a91f43fp+29"),
            (255, "0x1.07eb622f78cedp+32"),
            (256, "0x1.0c128340b2ed9p+32"),
            (384, "0x1.53488da4fccedp+34"),
            (512, "0x1.0c144035e09aep+36"),
        ],
    )
    def test_pinned_bits(self, n, bits):
        assert _geometry_sum(n).hex() == bits

    def test_one_table_gives_each_resolution_its_own_sum(self):
        ns = [512, 8, 111, 256, 9, 255]
        assert _geometry_sums(ns) == {n: _geometry_sum(n) for n in ns}

    @given(st.integers(1, 300).flatmap(limb_terms))
    @example((np.full(vacuum._BLOCK, np.nextafter(2.0**26, 0)),
              np.full(vacuum._BLOCK, -np.nextafter(2.0**-26, 0))))
    def test_limb_sum_is_exact_in_t_and_within_half_a_limb_per_t_err(self, terms):
        t, t_err = terms
        exact_t = sum(map(Fraction, t.tolist()))
        assert Fraction(vacuum._limb_sum(t, np.zeros_like(t)), 2**116) == exact_t
        gap = Fraction(vacuum._limb_sum(t, t_err), 2**116) - exact_t - sum(
            map(Fraction, t_err.tolist()))
        assert abs(gap) <= Fraction(t.size, 2**117)

    def test_n512_memory_guard(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _geometry_sum(512)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16e6

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
