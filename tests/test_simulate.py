"""QAM mapping, power calibration, and the Monte-Carlo engine."""

import concurrent.futures
import dataclasses
import itertools
import os
import signal
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import cpfde
from cpfde import _pool, fde, simulate
from cpfde.channel import ChannelTaps, PowerDelayProfile, convolve_transmit
from cpfde.errors import ConfigurationError
from cpfde.quant import bussgang_model, design_quantizer
from cpfde.simulate import (
    SimConfig,
    demap_symbols,
    ebn0_to_sigma_x2,
    map_symbols,
    per_position_error_profile,
    run_experiment,
    _realization_taps,
)


def gray_bits(gray, order):
    """The bit stream of per-axis Gray indices, in map_symbols' order."""
    bpa = (order.bit_length() - 1) // 2
    shifts = np.arange(bpa - 1, -1, -1)
    gi, gq = (np.asarray(g, dtype=np.int64).ravel()[:, None] for g in gray)
    return np.concatenate([(gi >> shifts) & 1, (gq >> shifts) & 1], axis=1).ravel()


def gray_points(gray, order):
    """The constellation points that per-axis Gray indices name."""
    side, bpa, scale = simulate._qam_params(order)
    gi, gq = (2 * simulate._gray_to_binary(g.astype(np.int64), bpa) - (side - 1) for g in gray)
    return (gi + 1j * gq) * scale


def bit_array_demap(estimates, order):
    """Minimum-distance detection as flat int64 Gray bits: the sweep's former scoring."""
    side, bpa, scale = simulate._qam_params(order)
    est = np.asarray(estimates, dtype=np.complex128).ravel()

    def axis_index(v):
        u = v / scale
        idx = np.ceil((u + side) / 2.0) - 1
        return np.clip(idx, 0, side - 1).astype(np.int64)

    gi, gq = (simulate._binary_to_gray(axis_index(v)) for v in (est.real, est.imag))
    shifts = np.arange(bpa - 1, -1, -1)
    bits = np.empty((est.size, 2 * bpa), dtype=np.int64)
    bits[:, :bpa] = (gi[:, None] >> shifts) & 1
    bits[:, bpa:] = (gq[:, None] >> shifts) & 1
    return bits.ravel()


def per_point_reference(cfg, index, sigma_x2_by_ebn0):
    """(sq, bit_err) of one realization, equalized point by point.

    One equalize_stream call per Eb/N0 point and N_b, on a bank of that
    point's models alone (N_b = T_c too), each method scored alone, and bit
    errors counted on flat bit arrays against the transmitted bits.
    """
    taps, rng, unit_syms = simulate._symbols(cfg, index)
    hx = convolve_transmit(taps, unit_syms)
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, index))
    bits = np.random.default_rng(ss).integers(0, 2, size=cfg.K * cfg.T_c * cfg.bits_per_symbol)
    n = cfg.T_c - cfg.L
    tx_bits = bits.reshape(cfg.K, -1)[:, : n * cfg.bits_per_symbol].ravel()
    rho = 0.0 if cfg.quant_bits is None else design_quantizer(cfg.quant_bits, 1.0).rho_q
    shape = (len(cfg.ebn0_grid), len(cfg.block_lens), len(cfg.methods))
    sq, bit_err = np.empty(shape), np.empty(shape, dtype=np.int64)
    for i, ebn0 in enumerate(cfg.ebn0_grid):
        sigma_x2 = sigma_x2_by_ebn0[ebn0]
        r = simulate._receive(cfg, taps, np.sqrt(sigma_x2) * hx, sigma_x2, rng)
        models = [
            bussgang_model(taps, rho if method == "WF_Q" else 0.0, 1.0, sigma_x2)
            for method in cfg.methods
        ]
        for j, n_b in enumerate(cfg.block_lens):
            fde_cfg = fde.FdeConfig(block_len=n_b, overlap=cfg.L)
            estimates = fde.equalize_stream(r, taps, models, fde_cfg)
            for k, xhat in enumerate(estimates[..., :n] / np.sqrt(sigma_x2)):
                sq[i, j, k] = np.sum(np.abs(xhat - unit_syms[:, :n]) ** 2)
                rx_bits = bit_array_demap(xhat, cfg.modulation)
                bit_err[i, j, k] = np.count_nonzero(rx_bits != tx_bits)
    return sq, bit_err


def row_key(row):
    return row.ebn0_db, row.n_b, row.method


def record_ahead(monkeypatch):
    """The job count of every _pool._ahead call from now on."""
    calls, original = [], _pool._ahead

    def recording(fn, jobs):
        calls.append(len(jobs))
        return original(fn, jobs)

    monkeypatch.setattr(_pool, "_ahead", recording)
    return calls


def assert_same_results(a, b):
    """Two reports agree exactly: every row and every per-realization MSE."""
    assert a.rows == b.rows
    assert a.realization_mse.keys() == b.realization_mse.keys()
    for key, mse in a.realization_mse.items():
        np.testing.assert_array_equal(b.realization_mse[key], mse)


class TestQamMapping:
    @pytest.mark.parametrize("order", [4, 16, 64, 256, 4**simulate.MAX_QAM_BITS_PER_AXIS])
    def test_round_trip(self, order):
        rng = np.random.default_rng(0)
        B = order.bit_length() - 1
        bits = rng.integers(0, 2, size=500 * B)
        syms = map_symbols(bits, order)
        gray = demap_symbols(syms, order)
        assert all(g.dtype == np.uint8 and g.shape == syms.shape for g in gray)
        np.testing.assert_array_equal(gray_bits(gray, order), bits)
        np.testing.assert_allclose(gray_points(gray, order), syms, atol=1e-12)
        square = demap_symbols(syms.reshape(20, -1), order)
        assert all(g.shape == (20, syms.size // 20) for g in square)
        np.testing.assert_array_equal(gray_bits(square, order), bits)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        B = order.bit_length() - 1
        n = order * 4
        # exhaustive constellation sweep via all bit patterns
        bits = np.array(
            [(v >> s) & 1 for v in range(order) for s in range(B - 1, -1, -1)]
        )
        syms = map_symbols(bits, order)
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_gray_neighbors_differ_by_one_bit(self):
        # adjacent real-axis levels of 16-QAM differ in exactly one bit
        bits = np.array(
            [(v >> s) & 1 for v in range(16) for s in range(3, -1, -1)]
        )
        syms = map_symbols(bits, 16)
        groups = bits.reshape(16, 4)
        by_point = {complex(s): tuple(g) for s, g in zip(syms, groups)}
        scale = np.sqrt(3.0 / 30.0)
        levels = np.array([-3, -1, 1, 3]) * scale
        for im in levels:
            for a, b in zip(levels, levels[1:]):
                ga = by_point[complex(a + 1j * im)]
                gb = by_point[complex(b + 1j * im)]
                assert sum(x != y for x, y in zip(ga, gb)) == 1

    def test_demap_tie_break_toward_smaller(self):
        # midpoint between two levels resolves to the smaller point
        scale = np.sqrt(3.0 / 30.0)
        mid = 2.0 * scale  # between levels 1 and 3
        hard = gray_points(demap_symbols(np.array([mid + 1j * mid]), 16), 16)
        np.testing.assert_allclose(hard, [(1 + 1j) * scale], atol=1e-12)

    def test_demap_saturates_outside_constellation(self):
        hard = gray_points(demap_symbols(np.array([100.0 + 100.0j, -1e300 - 1e300j]), 16), 16)
        scale = np.sqrt(3.0 / 30.0)
        np.testing.assert_allclose(hard, [(3 + 3j) * scale, (-3 - 3j) * scale], atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), bits_per_axis=st.integers(1, 4))
    def test_gray_index_count_is_the_bit_array_count(self, data, bits_per_axis):
        # 4- to 256-QAM; estimates near the constellation, on the midpoints
        # between levels (the ties) and far outside it.
        order = 4**bits_per_axis
        side, _, scale = simulate._qam_params(order)
        n = data.draw(st.integers(1, 30))
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=2 * bits_per_axis * n,
                                           max_size=2 * bits_per_axis * n)))
        coord = st.one_of(
            st.floats(-side - 1.0, side + 1.0),
            st.integers(1 - side // 2, side // 2 - 1).map(lambda k: 2.0 * k),
            st.sampled_from([-1e300, -1e6, 1e6, 1e300]),
        )
        re, im = (np.array(data.draw(st.lists(coord, min_size=n, max_size=n))) for _ in range(2))
        estimates = (re + 1j * im) * scale
        sent = demap_symbols(map_symbols(bits, order), order)
        expected = np.count_nonzero(bit_array_demap(estimates, order) != bits)
        assert simulate._bit_errors(sent, demap_symbols(estimates, order)) == expected

    def test_non_square_order_rejected(self):
        for order in (8, -4, 0, 1, 2, 10**21, 4**9, 4**64):
            with pytest.raises(ConfigurationError):
                map_symbols(np.zeros(3, dtype=int), order)

    def test_bit_count_divisibility(self):
        with pytest.raises(ConfigurationError):
            map_symbols(np.zeros(5, dtype=int), 16)

    def test_qpsk_awgn_ber_matches_q_function(self):
        # Gray QPSK over AWGN: BER = Q(sqrt(2 Eb/N0))
        rng = np.random.default_rng(1)
        ebn0 = 10 ** (4.0 / 10.0)
        n = 200_000
        bits = rng.integers(0, 2, size=2 * n)
        syms = map_symbols(bits, 4)
        # Es = 1, B = 2 -> N0 = 1 / (B ebn0)
        n0 = 1.0 / (2 * ebn0)
        noisy = syms + np.sqrt(n0 / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        back = gray_bits(demap_symbols(noisy, 4), 4)
        ber = np.mean(back != bits)
        expected = norm.sf(np.sqrt(2 * ebn0))
        assert ber == pytest.approx(expected, rel=0.08)


class TestEbn0Mapping:
    def base_cfg(self, **kw):
        return SimConfig(**{**dict(K=2, M=4, L=1, T_c=64, N_sim=2, block_lens=(8, 64)), **kw})

    def test_trivial_point(self):
        # K=M=B(QPSK)... choose values so everything cancels:
        cfg = SimConfig(K=1, M=1, L=0, modulation=4, T_c=8, N_sim=1, block_lens=(2,))
        # trace = N_ref * t; sigma_x2 = ebn0 * M * B / (N_ref t K) * K/K at unit noise power
        s = ebn0_to_sigma_x2(0.0, 1.0, cfg, N_b_ref=2)
        assert s == pytest.approx(1.0 * 1 * 2 / (2 * 1.0))

    @pytest.mark.parametrize("ebn0", [-simulate.MAX_EBN0_DB, simulate.MAX_EBN0_DB])
    def test_grid_bound_maps_to_finite_positive_power(self, ebn0):
        # At the accepted extremes the mapped power stays a finite positive
        # float, even for a paper-scale trace and reference block length.
        cfg = self.base_cfg(M=64, modulation=4**simulate.MAX_QAM_BITS_PER_AXIS, ebn0_grid=(ebn0,))
        for trace, n_ref in ((1e-6, 2), (1e6, 2**22)):
            s = ebn0_to_sigma_x2(ebn0, trace, cfg, n_ref)
            assert 0.0 < s < np.inf

    def test_3db_doubles_power(self):
        cfg = self.base_cfg()
        a = ebn0_to_sigma_x2(0.0, 2.0, cfg, 8)
        b = ebn0_to_sigma_x2(10.0 * np.log10(2.0), 2.0, cfg, 8)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_trace_inverse_proportionality(self):
        cfg = self.base_cfg()
        a = ebn0_to_sigma_x2(5.0, 1.0, cfg, 8)
        b = ebn0_to_sigma_x2(5.0, 4.0, cfg, 8)
        assert b == pytest.approx(a / 4.0, rel=1e-12)

    def test_unit_link_energy_trace(self):
        # generate_channel normalizes each scalar link: ensemble tap energy = M K
        cfg = self.base_cfg(N_sim=400)
        tr = np.mean([_realization_taps(cfg, i).energy() for i in range(cfg.N_sim)])
        assert tr == pytest.approx(cfg.M * cfg.K, rel=0.05)

    def test_bad_trace(self):
        with pytest.raises(ConfigurationError):
            ebn0_to_sigma_x2(0.0, 0.0, self.base_cfg(), 8)


class TestConfigValidation:
    def test_block_len_bounds(self):
        with pytest.raises(ConfigurationError):
            SimConfig(L=15, block_lens=(8, 64), T_c=64)
        with pytest.raises(ConfigurationError):
            SimConfig(L=3, block_lens=(8, 128), T_c=64)

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            SimConfig(L=3, block_lens=(8,), T_c=64, methods=("ZF",))

    def test_pdp_length_consistency(self):
        with pytest.raises(ConfigurationError):
            SimConfig(L=3, block_lens=(8,), T_c=64, pdp=PowerDelayProfile.uniform(3))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(N_sim=0),
            dict(K=0),
            dict(M=0),
            dict(workers=0),
            dict(ebn0_grid=()),
            dict(ebn0_grid=(5.0, float("nan"))),
            dict(ebn0_grid=(float("inf"),)),
            dict(ebn0_grid=(4000.0,)),
            dict(ebn0_grid=(-4000.0,)),
            dict(ebn0_grid=(5.0, 5.0)),
            dict(block_lens=(8, 8)),
            dict(block_lens=()),
            dict(methods=("WF", "WF")),
            dict(methods=()),
            dict(quant_bits=0),
            dict(quant_bits=17),
            dict(seed=-1),
            dict(modulation=-4),
            dict(modulation=10**21),
        ],
        ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()),
    )
    def test_bad_input_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            SimConfig(**{**dict(L=3, block_lens=(8,), T_c=64), **bad})

    def test_stream_cap(self):
        # Paper scale (M=64, T_c=50000, a 51 MB stream) is well inside the cap.
        SimConfig(K=2, M=64, L=127, T_c=50000, block_lens=(1024, 50000))
        T_c = simulate.MAX_STREAM_BYTES // (64 * 16)
        SimConfig(M=64, L=3, T_c=T_c, block_lens=(8,))
        with pytest.raises(ConfigurationError, match="exceeds"):
            SimConfig(M=64, L=3, T_c=T_c + 1, block_lens=(8,))
        # The K x T_c symbol stream and the (L+1, M, K) taps have the same cap.
        SimConfig(K=64, M=1, L=3, T_c=T_c, block_lens=(8,))
        with pytest.raises(ConfigurationError, match="K x T_c = 65 x"):
            SimConfig(K=65, M=1, L=3, T_c=T_c, block_lens=(8,))
        with pytest.raises(ConfigurationError, match="K x T_c = 100000000 x 2048"):
            SimConfig(K=10**8, N_sim=1, block_lens=(64,))
        # 2**28-byte taps and one model's 32640 x 1 x 256 Gram factors are
        # inside the cap, but the bank build's 69 GB of pair products are not.
        with pytest.raises(ConfigurationError, match="256 x 32896 x 512 Gram products"):
            SimConfig(K=256, M=256, L=255, T_c=1024, ebn0_grid=(10.0,), methods=("WF",),
                      block_lens=(256,))
        with pytest.raises(ConfigurationError, match=r"\(L\+1\) x M x K = 257 x 256 x 256"):
            SimConfig(K=256, M=256, L=256, T_c=1024, block_lens=(257,))

    def test_subband_cap(self):
        # A realization holds the (M, K, N_b) subbands of every block length
        # below T_c at once, with the short spectra of N_b = T_c: 12 MB at
        # paper scale, inside the cap; 4 GiB here is not.  It holds every
        # N_b's Gram factors at once too: 2**28 bytes of subbands at N_b 100
        # and 156 come with 1.07 GB of factors for 8 models, which are
        # refused.  The one-block N_b = T_c = 4096 at 256 x 256 holds only
        # 64-point spectra, but its 17 GB of Gram factors are refused.
        SimConfig(K=2, M=64, L=127, T_c=50000, block_lens=(256, 1024, 4096, 50000))
        with pytest.raises(ConfigurationError, match="32640 x 8 x 256 Gram factors exceeds"):
            SimConfig(K=256, M=256, L=3, T_c=4096, block_lens=(100, 156))
        with pytest.raises(ConfigurationError, match="sum\\(n\\) = 256 x 256 x 257"):
            SimConfig(K=256, M=256, L=3, T_c=4096, block_lens=(100, 157))
        with pytest.raises(ConfigurationError, match="256 x 256 x 4096 tap spectra exceeds"):
            SimConfig(K=256, M=256, L=3, T_c=8192, N_sim=1, block_lens=(4096,))
        with pytest.raises(ConfigurationError, match="32640 x 8 x 4096 Gram factors exceeds"):
            SimConfig(K=256, M=256, L=3, T_c=4096, N_sim=1, block_lens=(4096,))

    def test_bank_build_and_transmit_cap(self):
        # A bank build forms the (M, K(K+1)/2, n_lag) pair products of the
        # taps' spectra at n_lag = 256 points (L = 127 or 64) and their
        # (Q, K(K+1)/2, n_lag) sums for every model; the transmit convolution
        # forms (nfft, M, K) tap spectra, nfft = 1024 at L = 255 and
        # T_c = 1000.  Each has the cap of the streams.
        with pytest.raises(ConfigurationError, match="128 x 8256 x 256 Gram products exceeds"):
            SimConfig(K=128, M=128, L=127, T_c=128, block_lens=(128,))
        with pytest.raises(ConfigurationError, match="256 x 32896 x 256 Gram products exceeds"):
            SimConfig(K=256, M=256, L=64, T_c=1024, ebn0_grid=(10.0,), methods=("WF",),
                      block_lens=(65,))
        kw = dict(K=64, M=4, L=127, T_c=128, block_lens=(128,))
        SimConfig(ebn0_grid=tuple(range(15)), **kw)
        with pytest.raises(ConfigurationError,
                           match=r"Q x K\(K\+1\)/2 x n_lag = 32 x 2080 x 256 Gram sums exceeds"):
            SimConfig(ebn0_grid=tuple(range(16)), **kw)
        SimConfig(K=1, M=16384, L=255, T_c=1000, block_lens=(256,))
        with pytest.raises(ConfigurationError,
                           match="M x K x nfft = 16385 x 1 x 1024 transmit spectra exceeds"):
            SimConfig(K=1, M=16385, L=255, T_c=1000, block_lens=(256,))

    def test_one_block_counts_its_short_spectra(self):
        # N_b = T_c forms no subbands of its length, only the taps' spectra
        # at its short block: a 204.8 MB stream of T_c = 200000 passes with
        # N_b 1024 and T_c (1024 + 512 spectra), though 64 x 2 x 201024
        # subbands would not; its 3.2 MB of Gram factors and 9.6 MB of Gram
        # rows are inside the cap too.  At L = 255 the short block of
        # T_c = 1024 is T_c itself, whose 1 GiB of spectra are refused.
        SimConfig(M=64, L=127, T_c=200000, N_sim=1, ebn0_grid=(10.0,),
                  block_lens=(1024, 200000))
        with pytest.raises(ConfigurationError, match="64 x 2 x 201024 tap spectra exceeds"):
            SimConfig(M=64, L=127, T_c=200001, N_sim=1, ebn0_grid=(10.0,),
                      block_lens=(1024, 200000))
        with pytest.raises(ConfigurationError, match="256 x 256 x 1024 tap spectra exceeds"):
            SimConfig(K=256, M=256, L=255, T_c=1024, N_sim=1, block_lens=(1024,))

    def test_one_block_bounds_its_gram_arrays(self):
        # The one-block bank's (K(K-1)/2, Q, T_c) factors and one model's
        # (K(K+1)/2, T_c) Gram rows are T_c long.  At T_c = 2**14 the cap
        # holds 1024 rows: 44 users with one model (Q = 1) fit, their factors
        # for both methods (Q = 2) do not, and 45 users' Gram rows do not.
        kw = dict(M=64, L=3, T_c=2**14, N_sim=1, ebn0_grid=(10.0,), block_lens=(2**14,))
        SimConfig(K=44, methods=("WF",), **kw)
        with pytest.raises(ConfigurationError, match="946 x 2 x 16384 Gram factors exceeds"):
            SimConfig(K=44, **kw)
        with pytest.raises(ConfigurationError, match="1035 x 16384 Gram rows exceeds"):
            SimConfig(K=45, methods=("WF",), **kw)

    def test_overlap_defaults_to_memory(self, monkeypatch):
        # The sweep equalizes every stream with overlap L' = L.
        overlaps = []

        def recording_config(**kw):
            overlaps.append(kw["overlap"])
            return fde.FdeConfig(**kw)

        monkeypatch.setattr(simulate, "FdeConfig", recording_config)
        cfg = SimConfig(K=1, M=2, L=3, T_c=64, N_sim=1, ebn0_grid=(10.0,), block_lens=(8, 16))
        run_experiment(cfg)
        assert overlaps and set(overlaps) == {3}


class TestEngine:
    def small_cfg(self, **kw):
        base = dict(
            K=2,
            M=8,
            L=3,
            T_c=128,
            N_sim=3,
            ebn0_grid=(10.0,),
            block_lens=(16, 128),
            seed=7,
        )
        base.update(kw)
        return SimConfig(**base)

    @pytest.mark.parametrize("L", [0, 3])
    def test_counts_are_the_scored_prefix(self, L):
        # At L = 3, N_b = 16 and 20 end in a clamped final block; 28 and 128 do not.
        cfg = self.small_cfg(L=L, block_lens=(16, 20, 28, 128))
        rep = run_experiment(cfg)
        for r in rep.rows:
            assert r.symbols_counted == cfg.N_sim * cfg.K * (cfg.T_c - L)
            assert r.edge_symbols_excluded == cfg.N_sim * cfg.K * L
            per_real = rep.realization_mse[(r.ebn0_db, r.n_b, r.method)]
            assert np.mean(per_real) == pytest.approx(r.mse, rel=1e-12)

    def test_worker_processes_capped(self, monkeypatch):
        # A process pool forks all of its workers at once: never more than
        # realizations or CPUs.  The fake pool records its size and maps serially.
        started = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append((max_workers, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial = run_experiment(self.small_cfg())
        for cpus, expected in ((4, [(3, (1,))]), (2, [(2, (1,))]), (1, [])):
            started.clear()
            monkeypatch.setattr(_pool, "_threads", cpus)
            rep = run_experiment(self.small_cfg(workers=5000))
            assert started == expected
            assert rep.rows == serial.rows

    def test_every_block_length_crosses_solve_subbands(self, monkeypatch):
        # The multi-block N_b = 16 equalizes its blocks through
        # equalize_block, and its pass forms the matched filter of the
        # one-block N_b = T_c = 128 there too; alone, N_b = T_c forms it
        # there itself.  At one Eb/N0 point and at two, every route forms
        # its matched-filter outputs with _solve_subbands.  Scaling
        # equalize_block's result moves every row, and so does a fault in
        # that kernel.
        original, solve = fde.equalize_block, fde._solve_subbands

        def faulty(H, Rc, weights, X, mult, rpiv, lo, hi):
            solve(H, Rc, weights, X, mult, rpiv, lo, hi)
            X[..., lo:hi] *= 1.01

        for grid, block_lens in itertools.product(((10.0,), (0.0, 10.0)), ((16, 128), (128,))):
            cfg = self.small_cfg(N_sim=1, ebn0_grid=grid, block_lens=block_lens)
            base = run_experiment(cfg)
            monkeypatch.setattr(fde, "equalize_block", lambda R, bank: original(R, bank) * 1.01)
            scaled = run_experiment(cfg)
            monkeypatch.setattr(fde, "equalize_block", original)
            assert {r.n_b for r in scaled.rows} == set(block_lens)
            for a, b in zip(base.rows, scaled.rows):
                assert b.mse != a.mse

            monkeypatch.setattr(fde, "_solve_subbands", faulty)
            faulted = run_experiment(cfg)
            monkeypatch.setattr(fde, "_solve_subbands", solve)
            for a, b in zip(base.rows, faulted.rows):
                assert b.mse != a.mse

    def test_one_block_length_listed_first_gives_the_same_rows(self):
        # The grid's order of block lengths orders the rows and nothing
        # else, at one Eb/N0 point and at three: N_b = T_c listed first,
        # and the multi-block N_b unsorted, whose smallest forms N_b = T_c's
        # matched filter wherever it is listed.
        for grid in ((10.0,), (0.0, 10.0, 20.0)):
            last = run_experiment(self.small_cfg(block_lens=(16, 20, 32, 128), ebn0_grid=grid))
            for block_lens in ((128, 16, 20, 32), (32, 128, 16, 20), (20, 32, 16, 128)):
                other = run_experiment(self.small_cfg(block_lens=block_lens, ebn0_grid=grid))
                assert [r.n_b for r in other.rows[: 2 * len(block_lens) : 2]] == list(block_lens)
                assert sorted(other.rows, key=row_key) == sorted(last.rows, key=row_key)
                for key, mse in last.realization_mse.items():
                    np.testing.assert_array_equal(other.realization_mse[key], mse)

    def test_one_block_subbands_built_once_per_realization(self, monkeypatch):
        # Each N_b gets one bank per realization, built at the first point
        # for every point's models, at one point and at three: N_b = T_c =
        # 128 on spectra of the short block, 64, not of its own length.
        calls = []
        original = {"build_filter_bank": simulate.build_filter_bank,
                    "build_one_block_bank": simulate.build_one_block_bank,
                    "freq_channel": fde.freq_channel}

        def recording(name):
            def call(*args):
                calls.append((name, len(args[1]) if name != "freq_channel" else args[1]))
                return original[name](*args)
            return call

        for name in original:
            monkeypatch.setattr(fde if name == "freq_channel" else simulate, name, recording(name))
        for points in (3, 1):
            calls.clear()
            run_experiment(self.small_cfg(N_sim=2, ebn0_grid=(0.0, 10.0, 20.0)[:points]))
            models = 2 * points
            assert calls == [("build_filter_bank", models), ("freq_channel", 16),
                             ("build_one_block_bank", models), ("freq_channel", 64)] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_below_three_streams(self, monkeypatch, threads):
        # An M x T_c = 32 x 32768 stream is 16 MiB, and the one-block
        # N_b = T_c subbands would be two streams.  At the last (here the
        # only) point the noiseless stream is scaled in place into the
        # received one, and N_b = T_c forms neither its subbands nor the
        # stream's transform.  The transmit convolution and the noise go in
        # bounded ranges too, so the realization peaks below three streams.
        cfg = SimConfig(M=32, T_c=32768, N_sim=1, ebn0_grid=(10.0,), block_lens=(256, 32768))
        sigma_x2 = simulate._sigma_x2(cfg)
        monkeypatch.setattr(_pool, "_threads", threads)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate._run_one_realization((cfg, 0, sigma_x2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * cfg.M * cfg.T_c * 16

    def test_peak_memory_of_several_points(self, monkeypatch):
        # At three points each point but the last holds the noiseless stream
        # beside its received one, two streams of 16 MiB, and add_noise
        # draws into a buffer of 8 MiB.  The one-block N_b = T_c keeps its
        # short spectra and the six models' Gram factors (6 MiB) through
        # every point, not its subbands (two more streams), and a point's
        # received stream and estimates are gone before the next ones are
        # made, so the realization peaks below three and a quarter streams
        # (about 2.98; 5.9 with whole N_b = T_c subbands).
        cfg = SimConfig(M=32, T_c=32768, N_sim=1, ebn0_grid=(0.0, 10.0, 20.0),
                        block_lens=(256, 32768))
        sigma_x2 = simulate._sigma_x2(cfg)
        monkeypatch.setattr(_pool, "_threads", 1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate._run_one_realization((cfg, 0, sigma_x2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.25 * cfg.M * cfg.T_c * 16

    def test_report_shape_and_counting(self):
        cfg = self.small_cfg()
        rep = run_experiment(cfg)
        assert len(rep.rows) == 1 * 2 * 2
        for r in rep.rows:
            assert r.symbols_counted + r.edge_symbols_excluded == cfg.N_sim * cfg.K * cfg.T_c
            assert r.edge_symbols_excluded > 0
            assert 0.0 <= r.ber <= 1.0 and r.mse > 0.0
            assert len(rep.realization_mse[(r.ebn0_db, r.n_b, r.method)]) == cfg.N_sim

    def test_noiseless_unquantized_flat_channel_is_exact(self):
        # L=0, no quantizer, 120 dB Eb/N0: equalizer inverts the channel
        cfg = self.small_cfg(L=0, quant_bits=None, ebn0_grid=(120.0,), block_lens=(16,))
        rep = run_experiment(cfg)
        for r in rep.rows:
            assert r.mse < 1e-6
            assert r.ber == 0.0

    def test_same_seed_reproducible(self):
        cfg = self.small_cfg()
        a = run_experiment(cfg)
        b = run_experiment(self.small_cfg())
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    def test_seed_changes_results(self):
        a = run_experiment(self.small_cfg())
        b = run_experiment(self.small_cfg(seed=8))
        assert any(ra.mse != rb.mse for ra, rb in zip(a.rows, b.rows))

    def test_worker_count_invariant(self):
        # small_cfg's grid holds a one-block stream, N_b = T_c = 128.
        a = run_experiment(self.small_cfg(workers=1))
        b = run_experiment(self.small_cfg(workers=2))
        assert_same_results(a, b)

    def test_equalizer_thread_count_invariant(self, monkeypatch):
        cfg = self.small_cfg()
        default_chunks = run_experiment(cfg)
        # Every call pooled: freq_channel, convolve_transmit and quantize split
        # their M = 8 rows, overlap-save its blocks, and the banks factor one
        # model's Gram rows at a time.  At N_b = T_c = 128 the matched
        # filter's blocks of 64 split over the pool, each formed in chunks of
        # 3 subbands.  The chunks do not depend on the thread count, so
        # neither do the results, bitwise.
        monkeypatch.setattr(_pool, "_PARALLEL_MIN_BYTES", 0)
        monkeypatch.setattr(fde, "_CHUNK_BYTES", 5 * cfg.K * cfg.M * 16)
        monkeypatch.setattr(_pool, "_threads", 1)
        serial = run_experiment(cfg)
        for threads in (2, 5):
            monkeypatch.setattr(_pool, "_threads", threads)
            assert_same_results(run_experiment(cfg), serial)
        # Another chunk width sums over the antennas in another order, so
        # it agrees to rounding; the multi-block rows happen to agree bitwise.
        for a, b in zip(serial.rows, default_chunks.rows):
            assert dataclasses.replace(a, mse=b.mse, mse_stderr=b.mse_stderr) == b
            assert a.mse == pytest.approx(b.mse, rel=1e-12)
            if a.n_b != cfg.T_c:
                assert a == b

    @pytest.mark.parametrize("block_len", [16, 128])
    def test_singular_gram_rejected(self, block_len):
        # More users than antennas: at 200 dB the identity load 1/sigma_x^2 is
        # lost in rounding, and WF's Gram matrix H^H H has rank M < K.  A
        # multi-block and a one-block stream, N_b < T_c and N_b = T_c = 128,
        # refuse it instead of writing NaN.
        cfg = self.small_cfg(K=4, M=2, N_sim=1, ebn0_grid=(200.0,), block_lens=(block_len,))
        with pytest.raises(ConfigurationError, match="singular"):
            run_experiment(cfg)
        # At 20 dB the same channels equalize.
        report = run_experiment(dataclasses.replace(cfg, ebn0_grid=(20.0,)))
        assert all(np.isfinite(r.mse) for r in report.rows)

    def test_singular_gram_only_at_last_point_rejected(self):
        # The banks hold every point's models, so the 200 dB point refuses
        # the realization before any point is scored.
        cfg = self.small_cfg(K=4, M=2, N_sim=1, ebn0_grid=(0.0, 20.0, 200.0))
        with pytest.raises(ConfigurationError, match="singular"):
            run_experiment(cfg)

    @pytest.mark.parametrize("floor, threads", [(0, 1), (0, 2), (1 << 40, 1), (1 << 40, 2)])
    def test_noise_ahead_is_bitwise_inline(self, monkeypatch, floor, threads):
        # A helper thread draws the next point's noise only below the pool
        # floor and with more than one thread (floor 2**40, 2 threads).  It
        # makes add_noise's draws in add_noise's order, so every case scores
        # bitwise as one thread, which draws inline.
        cfg = self.small_cfg(ebn0_grid=(0.0, 10.0, 20.0), block_lens=(16, 20, 128))
        sigma_x2 = simulate._sigma_x2(cfg)
        monkeypatch.setattr(_pool, "_threads", 1)
        inline = [simulate._run_one_realization((cfg, i, sigma_x2)) for i in range(cfg.N_sim)]
        ahead = record_ahead(monkeypatch)
        monkeypatch.setattr(_pool, "_PARALLEL_MIN_BYTES", floor)
        monkeypatch.setattr(_pool, "_threads", threads)
        for i, (sq, bit_err) in enumerate(inline):
            got_sq, got_bit_err = simulate._run_one_realization((cfg, i, sigma_x2))
            np.testing.assert_array_equal(got_sq, sq)
            np.testing.assert_array_equal(got_bit_err, bit_err)
            assert not [t for t in threading.enumerate() if t.name.startswith("cpfde-pool")]
        assert ahead == ([3] * cfg.N_sim if floor and threads == 2 else [])

    def test_noise_ahead_stops_when_the_realization_raises(self, monkeypatch):
        # The first point's bank refuses the 200 dB model while the helper
        # draws the second point's noise; the helper has stopped by the time
        # the error reaches the caller.
        monkeypatch.setattr(_pool, "_PARALLEL_MIN_BYTES", 1 << 40)
        monkeypatch.setattr(_pool, "_threads", 2)
        entered = record_ahead(monkeypatch)
        cfg = self.small_cfg(K=4, M=2, N_sim=1, ebn0_grid=(200.0, 0.0))
        sigma_x2 = simulate._sigma_x2(cfg)
        with pytest.raises(ConfigurationError, match="singular"):
            simulate._run_one_realization((cfg, 0, sigma_x2))
        assert entered == [2]
        assert not [t for t in threading.enumerate() if t.name.startswith("cpfde-pool")]

    @pytest.mark.parametrize(
        "kw",
        [{}, {"quant_bits": 3, "methods": ("WF_Q",)}, {"quant_bits": None, "methods": ("WF",)}],
        ids=["1bit", "3bit-WF_Q", "unquantized-WF"],
    )
    def test_realization_equals_per_point_equalization(self, kw):
        # N_b = 16 and 20 (clamped final block) stream several blocks, 128 is
        # one; every point streams through its subset of one bank per N_b.
        # The bank sums each Gram matrix over the antennas with one weight
        # product for all points' models.  With two models per point that
        # rounds as the per-point product does; with one, BLAS rounds the
        # per-point one-row product differently, so sq agrees to 1e-12.  The
        # one-block N_b = 128 goes through its lag Gram and short matched
        # filter, which agree with the reference's bank to 1e-12 too.
        cfg = self.small_cfg(M=6, ebn0_grid=(0.0, 10.0, 20.0), block_lens=(16, 20, 128), **kw)
        sigma_x2 = simulate._sigma_x2(cfg)
        for index in range(cfg.N_sim):
            sq, bit_err = simulate._run_one_realization((cfg, index, sigma_x2))
            ref_sq, ref_bit_err = per_point_reference(cfg, index, sigma_x2)
            if len(cfg.methods) == 2:
                np.testing.assert_array_equal(sq[:, :2], ref_sq[:, :2])
            np.testing.assert_allclose(sq, ref_sq, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(bit_err, ref_bit_err)

    def test_forked_workers_after_parent_pool(self):
        # The parent runs its stages on thread pools before run_experiment forks;
        # none of their threads outlives its call, so a worker (2 equalizer
        # threads each) inherits no pool.
        script = textwrap.dedent(
            f"""
            import dataclasses
            import threading
            from cpfde import _pool, simulate

            _pool._PARALLEL_MIN_BYTES = 0
            _pool._threads = 4
            cfg = simulate.SimConfig(
                K=2, M=8, L=3, T_c=128, N_sim=3, ebn0_grid=(10.0,),
                block_lens=(16, 128), seed=7,
            )
            one = simulate.run_experiment(cfg)
            assert not [t for t in threading.enumerate() if t.name.startswith("cpfde-pool")]
            two = simulate.run_experiment(dataclasses.replace(cfg, workers=2))
            assert two.rows == one.rows
            for key, mse in one.realization_mse.items():
                assert (two.realization_mse[key] == mse).all()
            """
        )
        src = str(Path(cpfde.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail("run_experiment(workers=2) hung after the parent created its pool")
        assert code == 0

    def test_mse_monotone_in_ebn0(self):
        cfg = self.small_cfg(ebn0_grid=(0.0, 10.0, 20.0), N_sim=4)
        rep = run_experiment(cfg)
        for n_b in cfg.block_lens:
            for m in cfg.methods:
                mses = [rep.row(e, n_b, m).mse for e in cfg.ebn0_grid]
                assert all(a > b for a, b in zip(mses, mses[1:]))

    def test_quantization_accounting_helps(self):
        # with a 1-bit ADC the distortion-aware filter beats the unaware one
        cfg = self.small_cfg(M=16, ebn0_grid=(15.0,), N_sim=4)
        rep = run_experiment(cfg)
        for n_b in cfg.block_lens:
            wf = rep.row(15.0, n_b, "WF").mse
            wfq = rep.row(15.0, n_b, "WF_Q").mse
            assert wfq < wf

    def test_csv_and_metadata(self, tmp_path, monkeypatch):
        # The report as the sweep command writes it: one CSV line per row, and
        # a sidecar holding the seed, the configuration and the stderrs.
        import json

        from cpfde.cli import main

        runs = []

        def recording_run(cfg):
            runs.append((cfg, run_experiment(cfg)))
            return runs[-1][1]

        monkeypatch.setattr(simulate, "run_experiment", recording_run)
        code = main([
            "sweep", "--antennas", "8", "--taps", "4", "--coherence", "128",
            "--realizations", "2", "--ebn0", "10", "--block-lens", "16",
            "--seed", "7", "--output-dir", str(tmp_path),
        ])
        assert code == 0
        (cfg, rep), = runs
        assert cfg == self.small_cfg(N_sim=2, block_lens=(16,))
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "ebn0_db,n_b,method,mse,ber,symbols,edge_excluded,seed"
        assert len(lines) == len(rep.rows) + 1
        for line, r in zip(lines[1:], rep.rows):
            ebn0, n_b, method, mse, ber, symbols, edge, seed = line.split(",")
            assert (float(ebn0), int(n_b), method) == (r.ebn0_db, r.n_b, r.method)
            assert float(mse) == pytest.approx(r.mse, rel=1e-11)
            assert float(ber) == pytest.approx(r.ber, rel=1e-11)
            assert (int(symbols), int(edge)) == (r.symbols_counted, r.edge_symbols_excluded)
            assert int(seed) == cfg.seed
        d = json.loads((tmp_path / "report.csv.json").read_text())
        assert d["seed"] == cfg.seed
        assert d["config"]["M"] == cfg.M
        assert d["mse_stderr"] == [r.mse_stderr for r in rep.rows]
        assert all(r.mse_stderr > 0 for r in rep.rows)


def profile_cfg(**kw):
    """A bathtub configuration: one Eb/N0 point (10 dB) and one method (WF_Q)."""
    return SimConfig(**{"ebn0_grid": (10.0,), "methods": ("WF_Q",), **kw})


class TestErrorProfile:
    def test_profile_length_and_positivity(self):
        cfg = profile_cfg(K=2, M=8, L=3, T_c=128, N_sim=2, block_lens=(16,), seed=3)
        prof = per_position_error_profile(cfg)
        assert prof.shape == (16,)
        assert np.all(prof > 0)

    def test_flat_channel_profile_is_flat(self):
        cfg = profile_cfg(
            K=1,
            M=4,
            L=0,
            T_c=256,
            N_sim=30,
            block_lens=(16,),
            quant_bits=None,
            seed=5,
        )
        prof = per_position_error_profile(cfg)
        assert np.max(prof) / np.min(prof) < 2.0

    def test_bathtub_newest_edge_dominates(self):
        # without discard the newest positions of a block carry the
        # inter-block interference and sit well above the flat center
        cfg = profile_cfg(
            K=2, M=16, L=8, T_c=512, N_sim=30, block_lens=(64,), seed=11
        )
        prof = per_position_error_profile(cfg)
        center = np.mean(prof[16:48])
        newest = np.mean(prof[:4])
        assert newest > 1.2 * center

    @pytest.mark.parametrize(
        "methods, stack",
        [(m, s) for m in (("WF_Q",), ("WF",)) for s in (1, 2, 3, None)],
        ids=[f"{m}{s}" for m in ("", "WF-") for s in (1, 2, 3, None)],  # WF_Q: 1 .. None
    )
    def test_stacked_profile_is_the_per_block_profile(self, monkeypatch, stack, methods):
        # T_c = 256, n_b = 16: 15 interior blocks, in stacks of 1, 2 and 3
        # blocks and in one stack.  Each block's error is added in block
        # order, so the profile is bitwise that of one call per block.
        cfg = profile_cfg(K=2, M=8, L=3, T_c=256, N_sim=2, block_lens=(16,), seed=3, methods=methods)
        if stack is not None:
            monkeypatch.setattr(fde, "_CHUNK_BYTES", stack * (cfg.K + 1) * cfg.M * 16 * 16)
        calls, original = [], fde.equalize_block

        def counting(R, bank):
            calls.append(len(R))
            return original(R, bank)

        monkeypatch.setattr(simulate, "equalize_block", counting)
        prof = per_position_error_profile(cfg)
        size = stack or 15
        assert calls == [min(size, 15 - lo) for lo in range(0, 15, size)] * cfg.N_sim
        sigma_x2 = simulate._sigma_x2(cfg)[10.0]
        # WF's model ignores the 1-bit quantizer: rho_q = 0.
        rho = design_quantizer(1, 1.0).rho_q if methods == ("WF_Q",) else 0.0
        acc, count = np.zeros(16), 0
        for i in range(cfg.N_sim):
            taps, rng, unit_syms = simulate._symbols(cfg, i)
            x = np.sqrt(sigma_x2) * unit_syms
            hx = np.sqrt(sigma_x2) * convolve_transmit(taps, unit_syms)
            r = simulate._receive(cfg, taps, hx, sigma_x2, rng)
            bm = bussgang_model(taps, rho, 1.0, sigma_x2)
            bank = fde.build_filter_bank(taps, [bm], fde.FdeConfig(16, 0))
            for s in range(16, cfg.T_c - 16 + 1, 16):
                est = original(r[:, s : s + 16][:, ::-1], bank)
                acc += np.sum(np.abs(est - x[:, s : s + 16][:, ::-1]) ** 2, axis=0) / sigma_x2
                count += cfg.K
        np.testing.assert_array_equal(prof, acc / count)

    def test_infeasible_block(self):
        # N_b < L+1 is SimConfig's own check, for the bathtub as for a sweep.
        with pytest.raises(ConfigurationError, match="L\\+1"):
            profile_cfg(K=1, M=2, L=3, T_c=64, N_sim=1, block_lens=(2,))

    @pytest.mark.parametrize(
        "kw",
        [{"block_lens": (16, 32)}, {"ebn0_grid": (0.0, 10.0)}, {"methods": ("WF", "WF_Q")}],
        ids=["block_lens", "ebn0_grid", "methods"],
    )
    def test_one_entry_per_grid(self, monkeypatch, kw):
        # The profile is of one N_b, Eb/N0 point and method: the configuration
        # records exactly what ran.  A longer grid is refused before any channel
        # is drawn.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        cfg = profile_cfg(**{"K": 1, "M": 2, "L": 3, "T_c": 64, "block_lens": (16,), **kw})
        with pytest.raises(ConfigurationError, match="one block length, Eb/N0 point and method"):
            per_position_error_profile(cfg)

    def test_short_coherence_rejected_before_any_realization(self, monkeypatch):
        # T_c < 2 n_b leaves no interior block; the check runs before the
        # Eb/N0 trace pass draws a channel and before any transmission.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        for n_b in (64, 33):
            cfg = profile_cfg(K=1, M=2, L=3, T_c=64, N_sim=200, block_lens=(n_b,))
            with pytest.raises(ConfigurationError, match="interior block"):
                per_position_error_profile(cfg)
