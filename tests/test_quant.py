"""Quantizer design, quantization, and Bussgang linearization tests."""

import time

import numpy as np
import pytest
from scipy.stats import norm
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpfde import _pool, quant
from cpfde.channel import ChannelTaps
from cpfde.errors import ConfigurationError, DimensionError
from cpfde.quant import (
    MAX_BITS,
    _UNIT_DESIGNS,
    _derive_unit,
    _design_unit,
    bussgang_model,
    design_quantizer,
    gaussian_quant_mse,
    per_antenna_agc,
    quantize,
)

ONE_BIT_LEVEL = np.sqrt(2.0 / np.pi)  # Gaussian conditional mean E[y | y > 0]

# Signed zeros, subnormals, infinities and NaN of either sign bit.
SPECIAL_PARTS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, np.nan, -np.nan]
)


def searchsorted_rows(y, spec, scale):
    """Oracle: a row loop of searchsorted over spec's thresholds and levels times scale[m]."""
    rows = y[:, None] if y.ndim == 1 else y
    out = np.empty_like(rows)
    for m, row in enumerate(rows):
        t, q = spec.thresholds[1:-1] * scale[m], spec.levels * scale[m]
        out[m].real = q[np.searchsorted(t, row.real)]
        out[m].imag = q[np.searchsorted(t, row.imag)]
    return out.reshape(y.shape)


class TestDesign:
    def test_one_bit_closed_form(self):
        spec = design_quantizer(1, 1.0)
        np.testing.assert_allclose(spec.levels, [-ONE_BIT_LEVEL, ONE_BIT_LEVEL], atol=1e-9)
        assert spec.rho_q == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-9)

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_rho_tracks_power_law(self, b):
        rho = design_quantizer(b, 1.0).rho_q
        assert rho / 3.0 ** (-b) < 1.2
        assert rho / 3.0 ** (-b) > 1 / 1.2

    def test_scale_equivariance(self):
        a = design_quantizer(3, 1.0)
        c = design_quantizer(3, 2.0)
        np.testing.assert_array_equal(c.levels, 2.0 * a.levels)
        np.testing.assert_array_equal(c.thresholds[1:-1], 2.0 * a.thresholds[1:-1])
        assert c.rho_q == a.rho_q

    def test_rho_strictly_decreasing(self):
        rhos = [design_quantizer(b, 1.0).rho_q for b in range(1, 9)]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_max_bits_designable_and_rho_decreasing(self):
        _design_unit.cache_clear()
        t0 = time.perf_counter()
        spec = design_quantizer(MAX_BITS, 1.0)
        assert time.perf_counter() - t0 < 10.0
        assert spec.levels.size == 2**MAX_BITS and 0.0 < spec.rho_q < 1e-8
        rhos = [design_quantizer(b, 1.0).rho_q for b in range(1, MAX_BITS + 1)]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))

    @pytest.mark.parametrize("b", [1, 3, 6])
    def test_mse_matches_cellwise_integration(self, b):
        # Oracle: the per-cell scalar moments of N(0, sigma^2), summed in a loop.
        sigma = 1.3
        spec = design_quantizer(b, sigma)
        t, q = spec.thresholds, spec.levels
        expected = 0.0
        for j in range(q.size):
            a, c = t[j] / sigma, t[j + 1] / sigma
            P = norm.cdf(c) - norm.cdf(a)
            pa = norm.pdf(a) if np.isfinite(a) else 0.0
            pc = norm.pdf(c) if np.isfinite(c) else 0.0
            apa = a * pa if np.isfinite(a) else 0.0
            cpc = c * pc if np.isfinite(c) else 0.0
            m1 = sigma * (pa - pc)
            m2 = sigma**2 * (P + apa - cpc)
            expected += q[j] ** 2 * P - 2.0 * q[j] * m1 + m2
        assert gaussian_quant_mse(t, q, sigma) == pytest.approx(expected, rel=1e-12)
        assert spec.rho_q == pytest.approx(expected / sigma**2, rel=1e-12)

    def test_resolution_cap(self):
        with pytest.raises(ConfigurationError, match="outside 1..16"):
            design_quantizer(17, 1.0)

    def test_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            design_quantizer(2, 0.0)


class TestDesignTable:
    def test_table_is_the_derivation_bitwise(self):
        assert len(_UNIT_DESIGNS) == MAX_BITS
        mismatches = []
        for b in range(1, MAX_BITS + 1):
            table = [x.hex() for x in _UNIT_DESIGNS[b - 1]]
            derived = [x.hex() for x in _derive_unit(b)]
            if table != derived:
                mismatches.append(f"b={b}: table (delta, rho) {table}, derived {derived}")
        assert not mismatches, "\n".join(mismatches)


class TestQuantize:
    def test_one_bit_example(self):
        spec = design_quantizer(1, 1.0)
        out = quantize(np.array([0.5 - 1.2j]), spec)
        np.testing.assert_allclose(out, [ONE_BIT_LEVEL - 1j * ONE_BIT_LEVEL], atol=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(
        b=st.integers(1, 4),
        re=st.floats(-5, 5, allow_nan=False),
        im=st.floats(-5, 5, allow_nan=False),
    )
    def test_odd_symmetry(self, b, re, im):
        spec = design_quantizer(b, 1.3)
        # half-open intervals make threshold points (a measure-zero set) ambiguous
        assume(all(abs(v - t) > 1e-9 for v in (re, im) for t in spec.thresholds[1:-1]))
        y = np.array([re + 1j * im])
        np.testing.assert_array_equal(quantize(-y, spec), -quantize(y, spec))

    def test_fine_quantizer_limit(self):
        rng = np.random.default_rng(0)
        spec = design_quantizer(12, 1.0)
        y = rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)
        q = quantize(y[None, :] / np.sqrt(2), spec)  # unit complex variance
        mse = np.mean(np.abs(q - y[None, :] / np.sqrt(2)) ** 2)
        assert mse < 1e-5

    def test_in_place_output(self):
        rng = np.random.default_rng(3)
        spec, scale = design_quantizer(2, 1.0), np.array([0.5, 1.0, 2.0])
        y = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
        expected = quantize(y, spec, scale)
        out = quantize(y, spec, scale, out=y)
        assert out is y
        np.testing.assert_array_equal(y, expected)
        with pytest.raises(DimensionError):
            quantize(y, spec, scale, out=np.empty((3, 49), dtype=complex))

    @pytest.mark.parametrize("b", [1, 3, 8, 16])
    @pytest.mark.parametrize("shape", [(4,), (4, 300)], ids=["1d", "2d"])
    @pytest.mark.parametrize("in_place", [False, True], ids=["new", "out=y"])
    def test_scaled_unit_design_matches_per_antenna_designs(self, b, shape, in_place):
        # Oracle: a row loop of searchsorted over design_quantizer(b, scale[m]).
        rng = np.random.default_rng(b)
        scale = np.array([0.3, 1.0, 2.7, 11.0])
        y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (
            scale if len(shape) == 1 else scale[:, None]
        )
        rows = y[:, None] if y.ndim == 1 else y
        expected = np.empty_like(rows)
        for m, row in enumerate(rows):
            spec_m = design_quantizer(b, scale[m])
            t, q = spec_m.thresholds[1:-1], spec_m.levels
            expected[m] = q[np.searchsorted(t, row.real)] + 1j * q[np.searchsorted(t, row.imag)]
        expected = expected.reshape(shape)
        got = quantize(y, design_quantizer(b, 1.0), scale, out=y if in_place else None)
        assert np.shares_memory(got, y) == in_place
        assert got.shape == shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize("in_place", [False, True], ids=["new", "out=y"])
    @pytest.mark.parametrize("shape", [(7,), (7, 40)], ids=["1d", "2d"])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_special_parts_bitwise_as_searchsorted(self, monkeypatch, b, shape, in_place, threads):
        # 1 bit goes by sign, 2 and 3 bits by searchsorted.  The first parts of
        # rows 0 and 4 (of rows 0..4 in 1-D) are the special values; with the
        # floor at 0 the rows split over the threads, so ranges with and
        # without them meet.
        monkeypatch.setattr(_pool, "_PARALLEL_MIN_BYTES", 0)
        monkeypatch.setattr(_pool, "_threads", threads)
        rng = np.random.default_rng(40 + b)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        parts = y.reshape(-1).view(np.float64)
        width = parts.size // shape[0]
        for start in (0, 4 * width) if y.ndim == 2 else (0,):
            parts[start : start + SPECIAL_PARTS.size] = SPECIAL_PARTS
        spec, scale = design_quantizer(b, 1.0), rng.uniform(0.3, 3.0, shape[0])
        assert quant._by_sign(spec, scale) == (b == 1)
        expected = searchsorted_rows(y, spec, scale)
        got = quantize(y, spec, scale, out=y if in_place else None)
        assert np.shares_memory(got, y) == in_place
        assert got.shape == shape and got.tobytes() == expected.tobytes()

    def test_one_bit_degenerate_scales_as_searchsorted(self):
        # Zero, infinite and NaN scales leave the sign path; tiny and huge do not.
        rng = np.random.default_rng(47)
        spec = design_quantizer(1, 1.0)
        y = rng.standard_normal((7, 30)) + 1j * rng.standard_normal((7, 30))
        y[:, 0].real, y[:, 0].imag = SPECIAL_PARTS[:7], SPECIAL_PARTS[3:]
        scale = np.array([1e-300, 1e300, 0.0, np.inf, np.nan, 1.0, 2.0])
        assert quant._by_sign(spec, scale[[0, 1, 5, 6]])
        assert not any(quant._by_sign(spec, scale[[m]]) for m in (2, 3, 4))
        with np.errstate(invalid="ignore"):  # 0 * inf: the threshold of row 3
            expected = searchsorted_rows(y, spec, scale)
            assert quantize(y, spec, scale).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("in_place", [False, True], ids=["new", "out=y"])
    def test_one_bit_column_slice_goes_by_sign(self, monkeypatch, in_place):
        # A column slice of a stream has contiguous rows, not a contiguous
        # array: it quantizes by sign, bitwise as the row loop, which a
        # stride of 2 columns still takes.
        rng = np.random.default_rng(48)
        stream = rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50))
        stream.real[2, 10], stream.imag[3, 11] = -0.0, np.nan
        spec, scale = design_quantizer(1, 1.0), rng.uniform(0.3, 3.0, 6)
        by_sign = []
        original = quant._quantize_sign
        monkeypatch.setattr(
            quant, "_quantize_sign", lambda *a: by_sign.append(a[0].shape) or original(*a)
        )
        for cols, sign in ((slice(5, 45), True), (slice(5, 45, 2), False)):
            y = stream.copy()[:, cols]
            assert not y.flags.c_contiguous
            expected = searchsorted_rows(y, spec, scale)
            by_sign.clear()
            got = quantize(y, spec, scale, out=y if in_place else None)
            assert bool(by_sign) == sign
            assert got.tobytes() == expected.tobytes()

    def test_scale_length_enforced(self):
        spec = design_quantizer(1, 1.0)
        with pytest.raises(DimensionError):
            quantize(np.zeros((3, 4), dtype=complex), spec, np.ones(2))
        with pytest.raises(DimensionError):
            quantize(np.zeros(3, dtype=complex), spec, np.ones((3, 1)))


class TestBussgangModel:
    def test_unquantized_limit(self):
        taps = ChannelTaps(np.ones((1, 3, 1), dtype=complex))
        bm = bussgang_model(taps, 0.0, 2.0)
        assert bm.gain == 1.0
        np.testing.assert_allclose(bm.eff_noise_diag, 2.0 * np.ones(3))

    def test_scalar_one_bit_value(self):
        taps = ChannelTaps(np.ones((1, 1, 1), dtype=complex))
        rho = 1.0 - 2.0 / np.pi
        bm = bussgang_model(taps, rho, 1.0)
        expected = (2.0 / np.pi) * (1.0 + rho * 1.0)
        assert bm.eff_noise_diag[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.86795, abs=1e-4)

    def test_tap_homogeneity(self):
        rng = np.random.default_rng(1)
        taps = ChannelTaps(rng.standard_normal((3, 2, 2)) + 0j)
        rho, s2 = 0.2, 1.5
        a = bussgang_model(taps, rho, s2)
        b = bussgang_model(ChannelTaps(2.0 * taps.taps), rho, s2)
        # doubling taps quadruples only the rho-weighted term
        np.testing.assert_allclose(
            b.eff_noise_diag - (1 - rho) * s2,
            4.0 * (a.eff_noise_diag - (1 - rho) * s2),
            rtol=1e-12,
        )

    def test_noise_floor(self):
        rng = np.random.default_rng(2)
        taps = ChannelTaps(rng.standard_normal((2, 4, 3)) + 0j)
        bm = bussgang_model(taps, 0.3, 0.7)
        assert np.all(bm.eff_noise_diag >= (1 - 0.3) * 0.7 - 1e-15)

    @pytest.mark.parametrize("sigma_x2", [0.0, -1.0, np.nan])
    def test_bad_transmit_power_rejected(self, sigma_x2):
        taps = ChannelTaps(np.ones((1, 2, 1), dtype=complex))
        with pytest.raises(ConfigurationError, match="sigma_x2"):
            bussgang_model(taps, 0.3, 1.0, sigma_x2)


class TestAgc:
    def test_no_channel(self):
        taps = ChannelTaps(np.zeros((1, 5, 1), dtype=complex))
        np.testing.assert_allclose(per_antenna_agc(taps, 1.0, 1.0), np.sqrt(0.5) * np.ones(5))

    def test_unit_tap(self):
        taps = ChannelTaps(np.ones((1, 1, 1), dtype=complex))
        assert per_antenna_agc(taps, 1.0, 1.0)[0] == pytest.approx(1.0)

    def test_matches_empirical_std(self):
        from cpfde.channel import add_noise, convolve_transmit

        rng = np.random.default_rng(3)
        taps = ChannelTaps(
            rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        )
        sigma_x2, sigma_eta2 = 1.7, 0.4
        T = 100_000
        x = np.sqrt(sigma_x2 / 2) * (
            rng.standard_normal((2, T)) + 1j * rng.standard_normal((2, T))
        )
        y = add_noise(convolve_transmit(taps, x), np.sqrt(sigma_eta2), rng)
        emp = np.std(y.real, axis=1)
        np.testing.assert_allclose(emp, per_antenna_agc(taps, sigma_x2, sigma_eta2), rtol=0.02)


class TestBussgangStatistics:
    def test_gain_regression_one_bit(self):
        rng = np.random.default_rng(4)
        spec = design_quantizer(1, 1.0)
        y = rng.standard_normal(10**6)
        q = quantize(y[None, :] * (1 + 0j), spec).real[0]
        gain = np.mean(q * y) / np.mean(y * y)
        assert gain == pytest.approx(2.0 / np.pi, rel=0.01)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_distortion_uncorrelated_with_input(self, b):
        rng = np.random.default_rng(5)
        spec = design_quantizer(b, 1.0)
        y = rng.standard_normal(10**6)
        q = quantize(y[None, :] * (1 + 0j), spec).real[0]
        resid = (q - (1 - spec.rho_q) * y) * y
        se = np.std(resid) / np.sqrt(y.size)
        assert abs(np.mean(resid)) < 3 * se

    def test_mse_optimal_self_consistency(self):
        # for the MSE-optimal design, E[Q(y)^2] = E[Q(y) y]
        rng = np.random.default_rng(6)
        spec = design_quantizer(2, 1.0)
        y = rng.standard_normal(10**6)
        q = quantize(y[None, :] * (1 + 0j), spec).real[0]
        diff = q * q - q * y
        se = np.std(diff) / np.sqrt(y.size)
        assert abs(np.mean(diff)) < 3 * se
