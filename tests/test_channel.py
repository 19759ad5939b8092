"""Channel synthesis and stacked-matrix representation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfde import _pool, channel
from cpfde.channel import (
    ChannelTaps,
    PowerDelayProfile,
    add_noise,
    build_block_circulant,
    build_block_toeplitz,
    convolve_transmit,
    freq_channel,
    generate_channel,
)
from cpfde.errors import ConfigurationError, DimensionError
from cpfde.fde import unitary_dft_matrix


def random_taps(rng, L, M, K):
    return ChannelTaps(
        rng.standard_normal((L + 1, M, K)) + 1j * rng.standard_normal((L + 1, M, K))
    )


class TestPowerDelayProfile:
    def test_flat_profile(self):
        pdp = PowerDelayProfile.uniform(1)
        assert pdp.total_taps == 1 and pdp.memory == 0
        assert pdp.entries == ((0, 1.0),)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerDelayProfile(entries=((0, 1.0), (5, 1.0)), total_taps=4)

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerDelayProfile(entries=((1, 1.0), (1, 1.0)), total_taps=4)

    def test_eva_preset_has_nine_taps(self):
        pdp = PowerDelayProfile.eva(128)
        assert pdp.total_taps == 128
        assert len(pdp.entries) == 9
        assert pdp.entries[0][0] == 0
        assert pdp.entries[-1][0] == 127


class TestGenerateChannel:
    def test_memoryless_unit_power(self):
        rng = np.random.default_rng(0)
        taps = generate_channel(PowerDelayProfile.uniform(1), M=2, K=1, rng=rng)
        assert taps.taps.shape == (1, 2, 1)
        # single tap carries all the (unit) average power
        samples = [
            generate_channel(PowerDelayProfile.uniform(1), 2, 1, rng).taps for _ in range(4000)
        ]
        mean_p = np.mean([np.abs(t) ** 2 for t in samples])
        assert mean_p == pytest.approx(1.0, rel=0.05)

    def test_eva_sparsity_pattern(self):
        rng = np.random.default_rng(1)
        pdp = PowerDelayProfile.eva(128)
        taps = generate_channel(pdp, M=64, K=2, rng=rng)
        nonzero = {l for l in range(128) if np.any(taps.taps[l])}
        assert nonzero == {idx for idx, _ in pdp.entries}
        assert len(nonzero) == 9

    def test_link_energy_normalization(self):
        # sample mean of sum_l |h_mk[l]|^2 over many realizations is 1
        rng = np.random.default_rng(2)
        pdp = PowerDelayProfile(entries=((0, 0.5), (1, 0.5)), total_taps=2)
        total = 0.0
        n = 10_000
        for _ in range(n):
            t = generate_channel(pdp, 1, 1, rng).taps
            total += float(np.sum(np.abs(t) ** 2))
        assert total / n == pytest.approx(1.0, abs=0.05)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_channel(PowerDelayProfile.uniform(1), 0, 1, np.random.default_rng(0))


class TestBlockToeplitz:
    def test_memoryless_is_block_diagonal(self):
        rng = np.random.default_rng(3)
        taps = random_taps(rng, 0, 2, 2)
        toe = build_block_toeplitz(taps, 2)
        H0 = taps.taps[0]
        expected = np.block(
            [[H0, np.zeros((2, 2))], [np.zeros((2, 2)), H0]]
        )
        np.testing.assert_allclose(toe, expected)

    def test_scalar_two_block_expansion(self):
        taps = ChannelTaps(np.array([[[2.0 + 0j]], [[3.0 + 0j]]]))
        toe = build_block_toeplitz(taps, 2)
        np.testing.assert_allclose(toe, [[2, 3, 0], [0, 2, 3]])

    def test_matches_convolution(self):
        rng = np.random.default_rng(4)
        M, K, L, N_b = 3, 2, 2, 8
        taps = random_taps(rng, L, M, K)
        toe = build_block_toeplitz(taps, N_b)
        x = rng.standard_normal((K, N_b + L)) + 1j * rng.standard_normal((K, N_b + L))
        y = convolve_transmit(taps, x)
        stacked = toe @ x[:, ::-1].reshape(-1, order="F")
        expected = y[:, ::-1][:, :N_b].reshape(-1, order="F")
        np.testing.assert_allclose(stacked, expected, atol=1e-12)

    def test_block_len_too_small(self):
        rng = np.random.default_rng(5)
        taps = random_taps(rng, 3, 1, 1)
        with pytest.raises(DimensionError):
            build_block_toeplitz(taps, 3)

    @settings(max_examples=25, deadline=None)
    @given(
        M=st.integers(1, 3),
        K=st.integers(1, 3),
        L=st.integers(0, 3),
        extra=st.integers(1, 5),
        seed=st.integers(0, 10**6),
    )
    def test_convolution_equivalence_property(self, M, K, L, extra, seed):
        rng = np.random.default_rng(seed)
        N_b = L + extra
        taps = random_taps(rng, L, M, K)
        toe = build_block_toeplitz(taps, N_b)
        x = rng.standard_normal((K, N_b + L)) + 1j * rng.standard_normal((K, N_b + L))
        y = convolve_transmit(taps, x)
        stacked = toe @ x[:, ::-1].reshape(-1, order="F")
        expected = y[:, ::-1][:, :N_b].reshape(-1, order="F")
        np.testing.assert_allclose(stacked, expected, atol=1e-10)


class TestBlockCirculant:
    def test_memoryless_interference_is_zero(self):
        # With L = 0 nothing wraps around: the circulant is the block-Toeplitz matrix.
        rng = np.random.default_rng(6)
        taps = random_taps(rng, 0, 2, 1)
        cir = build_block_circulant(taps, 4)
        np.testing.assert_array_equal(cir, build_block_toeplitz(taps, 4))

    def test_scalar_wraparound_layout(self):
        taps = ChannelTaps(np.array([[[1.0 + 0j]], [[2.0 + 0j]]]))  # h = (1, 2)
        cir = build_block_circulant(taps, 3)
        np.testing.assert_allclose(cir, [[1, 2, 0], [0, 1, 2], [2, 0, 1]])

    def test_bussgang_gain_scaling(self):
        rng = np.random.default_rng(8)
        taps = random_taps(rng, 1, 1, 1)
        cir0 = build_block_circulant(taps, 4, rho_q=0.0)
        cir = build_block_circulant(taps, 4, rho_q=0.5)
        np.testing.assert_allclose(cir, 0.5 * cir0)


class TestFreqChannel:
    def test_flat_channel_constant_subbands(self):
        rng = np.random.default_rng(9)
        taps = random_taps(rng, 0, 3, 2)
        subbands = freq_channel(taps, 8)
        for i in range(8):
            np.testing.assert_allclose(subbands[:, :, i], taps.taps[0])

    def test_two_point_dft(self):
        taps = ChannelTaps(np.ones((2, 1, 1), dtype=complex))
        np.testing.assert_allclose(freq_channel(taps, 2)[0, 0], [2.0, 0.0], atol=1e-14)

    def test_diagonalizes_circulant(self):
        rng = np.random.default_rng(10)
        M, K, L, N_b = 2, 2, 3, 8
        taps = random_taps(rng, L, M, K)
        cir = build_block_circulant(taps, N_b)
        subbands = freq_channel(taps, N_b)
        F = unitary_dft_matrix(N_b)
        lhs = np.kron(F, np.eye(M)) @ cir @ np.kron(F.conj().T, np.eye(K))
        bd = np.zeros_like(lhs)
        for i in range(N_b):
            bd[i * M : (i + 1) * M, i * K : (i + 1) * K] = subbands[:, :, i]
        assert np.linalg.norm(lhs - bd) / np.linalg.norm(bd) < 1e-10

    def test_block_len_check(self):
        rng = np.random.default_rng(11)
        taps = random_taps(rng, 4, 1, 1)
        with pytest.raises(DimensionError):
            freq_channel(taps, 4)

    def test_contiguous_antenna_major_layout(self):
        rng = np.random.default_rng(18)
        taps = random_taps(rng, 6, 5, 3)
        for N_b in (7, 12, 50):
            expected = np.fft.fft(taps.taps, n=N_b, axis=0)
            subbands = freq_channel(taps, N_b)
            assert subbands.shape == (5, 3, N_b)
            assert subbands.flags.c_contiguous
            # Each length-N_b transform runs the same FFT whichever axis holds it.
            np.testing.assert_array_equal(subbands, expected.transpose(1, 2, 0))
        # The subbands are always gain-free; build_filter_bank applies the gain.
        with pytest.raises(ConfigurationError):
            freq_channel(taps, 12, 0.3)


class TestConvolveTransmit:
    def test_zero_in_zero_out(self):
        rng = np.random.default_rng(12)
        taps = random_taps(rng, 2, 3, 2)
        y = convolve_transmit(taps, np.zeros((2, 5)))
        assert not np.any(y)

    def test_scalar_impulse_response(self):
        taps = ChannelTaps(np.array([[[1.0 + 0j]], [[0.5 + 0j]]]))
        x = np.array([[1.0, 0.0, 0.0]], dtype=complex)
        y = convolve_transmit(taps, x)
        np.testing.assert_allclose(y, [[1.0, 0.5, 0.0]])

    def test_noise_covariance(self):
        rng = np.random.default_rng(13)
        sigma = 0.7
        y = add_noise(np.zeros((4, 100_000), dtype=complex), sigma, rng)
        cov = (y @ y.conj().T) / y.shape[1]
        np.testing.assert_allclose(cov, sigma**2 * np.eye(4), atol=0.02 * sigma**2)

    def test_rng_required_with_noise(self):
        with pytest.raises(ConfigurationError):
            add_noise(np.zeros((1, 4), dtype=complex), 1.0, rng=None)

    @staticmethod
    def direct_convolution(taps, x):
        """Per-tap time-domain sum y[:, n] = sum_l H_l x[:, n - l]."""
        T = x.shape[1]
        y = np.zeros((taps.n_rx, T), dtype=complex)
        for l in range(min(taps.memory + 1, T)):
            y[:, l:] += taps.taps[l] @ x[:, : T - l]
        return y

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 5),
        K=st.integers(1, 3),
        L=st.integers(0, 40),
        T=st.integers(1, 300),
        seed=st.integers(0, 10**6),
    )
    def test_fft_overlap_save_matches_direct_sum(self, M, K, L, T, seed):
        rng = np.random.default_rng(seed)
        taps = random_taps(rng, L, M, K)
        x = rng.standard_normal((K, T)) + 1j * rng.standard_normal((K, T))
        y = convolve_transmit(taps, x)
        expected = self.direct_convolution(taps, x)
        assert y.shape == (M, T) and y.flags.c_contiguous  # scaled in place by its callers
        assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_multi_block_stream_matches_direct_sum(self):
        # Long enough for many overlap-save blocks, with a ragged last block.
        rng = np.random.default_rng(15)
        taps = random_taps(rng, 31, 3, 2)
        x = rng.standard_normal((2, 5001)) + 1j * rng.standard_normal((2, 5001))
        y = convolve_transmit(taps, x)
        expected = self.direct_convolution(taps, x)
        assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_noise_draw_order(self):
        rng = np.random.default_rng(16)
        taps = random_taps(rng, 5, 3, 2)
        x = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
        s = 0.3
        clean = convolve_transmit(taps, x)
        noisy = add_noise(clean.copy(), s, np.random.default_rng(99))
        fresh = np.random.default_rng(99)
        n1 = fresh.standard_normal((3, 200))
        n2 = fresh.standard_normal((3, 200))
        np.testing.assert_allclose(
            noisy - clean, (s / np.sqrt(2.0)) * (n1 + 1j * n2), rtol=0, atol=1e-12
        )

    def test_add_noise_in_place(self):
        y = np.ones((2, 7), dtype=complex)
        out = add_noise(y, 0.5, np.random.default_rng(17))
        assert out is y and np.all(y != 1.0)
        z = np.ones((2, 7), dtype=complex)
        assert add_noise(z, 0.0) is z and np.all(z == 1.0)

    def test_add_noise_rejects_a_real_stream_unwritten(self):
        # A real stream has no imaginary part to draw into: it is refused
        # before its real part gets any noise.
        y = np.ones((2, 7))
        rng = np.random.default_rng(17)
        with pytest.raises(DimensionError, match="complex"):
            add_noise(y, 0.5, rng)
        assert np.all(y == 1.0)
        assert rng.standard_normal() == np.random.default_rng(17).standard_normal()



def whole_array_convolution(taps, x):
    """convolve_transmit in one range of all blocks: every block's spectrum at
    once, (nfft, M, n_blk), as the reference for its ranges."""
    K, T = x.shape
    L, M = taps.memory, taps.n_rx
    nfft = min(channel._next_pow2(max(4 * (L + 1), 64)), channel._next_pow2(T + L))
    step = nfft - L
    n_blk = -(-T // step)
    xp = np.zeros((K, L + n_blk * step), dtype=complex)
    xp[:, L : L + T] = x
    xb = np.stack([xp[:, b * step : b * step + nfft] for b in range(n_blk)], axis=1)
    yf = np.fft.fft(taps.taps, n=nfft, axis=0) @ np.fft.fft(xb, axis=-1).transpose(2, 0, 1)
    yb = np.fft.ifft(yf, axis=0).transpose(1, 2, 0)  # (M, n_blk, nfft)
    # Each block keeps its last step samples.
    return yb[:, :, L:].reshape(M, n_blk * step)[:, :T]


class TestConvolveRanges:
    @pytest.mark.parametrize("blocks", [8, 24])
    @pytest.mark.parametrize("T", [1, 100, 8 * 49, 9 * 49, 9 * 49 + 1, 17 * 49 - 3, 40 * 49 + 20])
    def test_ranges_are_bitwise_the_whole_array(self, monkeypatch, T, blocks):
        # nfft = 64 and step = 49 at L = 15.  Ranges of 8 or 24 blocks, the
        # last range whole, partial, cut inside the stream's last block, or of
        # one block (joined to the range before), give bitwise the one-range
        # result, with its rows split over the pool.
        rng = np.random.default_rng(20 + T)
        M, K = 5, 2
        taps = random_taps(rng, 15, M, K)
        x = rng.standard_normal((K, T)) + 1j * rng.standard_normal((K, T))
        monkeypatch.setattr(channel, "_RANGE_BYTES", blocks * 64 * M * 16)
        monkeypatch.setattr(_pool, "_PARALLEL_MIN_BYTES", 0)
        monkeypatch.setattr(_pool, "_threads", 2)
        calls = []
        original = channel._save
        monkeypatch.setattr(
            channel, "_save", lambda *a: calls.append(a[1].shape[1]) or original(*a)
        )
        y = convolve_transmit(taps, x)
        n_blk = -(-T // 49)
        expected = [blocks] * (n_blk // blocks) + [n_blk % blocks] * (n_blk % blocks > 0)
        if len(expected) > 1 and expected[-1] == 1:
            expected[-2:] = [blocks + 1]
        assert calls == expected
        np.testing.assert_array_equal(y, whole_array_convolution(taps, x))

    def test_paper_shape_is_bitwise_the_whole_array(self):
        # M = 64, L = 127: nfft = 512, and a range is 8 blocks of 4 MiB, with
        # a last range of 2 at T = 50000 (130 blocks).
        rng = np.random.default_rng(29)
        taps = random_taps(rng, 127, 64, 2)
        x = rng.standard_normal((2, 50000)) + 1j * rng.standard_normal((2, 50000))
        np.testing.assert_array_equal(convolve_transmit(taps, x), whole_array_convolution(taps, x))


class TestNoiseRanges:
    @pytest.mark.parametrize("shape", [(), (7,), (5, 33), (3, 4, 5), (0, 4)])
    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    def test_row_ranges_are_one_whole_draw(self, monkeypatch, shape, rows):
        # The draws go into a buffer of `rows` rows (None: all rows at once),
        # in the order of one draw of the whole shape: bitwise its noise.
        if rows is not None:
            monkeypatch.setattr(channel, "_RANGE_BYTES", rows * 8 * int(np.prod(shape[1:])))
        y = np.ones(shape, dtype=complex)
        add_noise(y, 0.7, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        real, imag = rng.standard_normal(shape), rng.standard_normal(shape)
        expected = np.ones(shape, dtype=complex)
        expected.real += real * (0.7 / np.sqrt(2.0))
        expected.imag += imag * (0.7 / np.sqrt(2.0))
        np.testing.assert_array_equal(y, expected)
