"""Filter-bank design, block equalization, overlap-save streaming, and the
dense time-domain oracle."""

import contextlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfde import fde
from cpfde.channel import (
    ChannelTaps,
    add_noise,
    build_block_circulant,
    convolve_transmit,
    freq_channel,
)
from cpfde.errors import ConfigurationError, DimensionError
from cpfde.fde import (
    DENSE_SIZE_CAP,
    FdeConfig,
    build_filter_bank,
    equalize_block,
    equalize_stream,
    overlap_save_stream,
    time_domain_wf,
    unitary_dft_matrix,
)
from cpfde.quant import bussgang_model


def random_taps(rng, L, M, K):
    return ChannelTaps(
        rng.standard_normal((L + 1, M, K)) + 1j * rng.standard_normal((L + 1, M, K))
    )


@contextlib.contextmanager
def equalizer_threads(n, chunk_bytes=None):
    """Force the chunked, pooled path with n threads, whatever the call size.

    The interpreter switches threads every microsecond meanwhile, so pool
    threads interleave as often as they can.
    """
    saved = fde._threads, fde._PARALLEL_MIN_BYTES, fde._CHUNK_BYTES
    switch = sys.getswitchinterval()
    fde._threads, fde._PARALLEL_MIN_BYTES = n, 0
    if chunk_bytes is not None:
        fde._CHUNK_BYTES = chunk_bytes
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(switch)
        fde._threads, fde._PARALLEL_MIN_BYTES, fde._CHUNK_BYTES = saved


def make_bank(taps, N_b, rho, sigma_eta2, sigma_x2, overlap=None):
    bm = bussgang_model(taps, rho, sigma_eta2, sigma_x2)
    cfg = FdeConfig(block_len=N_b, overlap=taps.memory if overlap is None else overlap)
    return build_filter_bank(freq_channel(taps, N_b), bm, cfg), bm, cfg


class TestConfig:
    def test_block_len_lower_bound(self):
        with pytest.raises(ConfigurationError):
            FdeConfig(block_len=4, overlap=4)


class TestTransforms:
    def test_unitary(self):
        F = unitary_dft_matrix(8)
        np.testing.assert_allclose(F @ F.conj().T, np.eye(8), atol=1e-12)

    def test_round_trip(self):
        # Identity filters: the transform into subbands and back returns the block.
        rng = np.random.default_rng(0)
        R = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        bank = np.broadcast_to(np.eye(3), (16, 3, 3))
        np.testing.assert_allclose(equalize_block(R, bank), R, atol=1e-12)

    def test_matches_matrix_form(self):
        # One scalar filter per subband acts as F^H diag(g) F on each row.
        rng = np.random.default_rng(1)
        R = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        bank = g[:, None, None]
        F = unitary_dft_matrix(8)
        expected = R @ (F.conj().T @ np.diag(g) @ F).T
        np.testing.assert_allclose(equalize_block(R, bank), expected, atol=1e-12)


class TestFilterBank:
    def test_scalar_wiener_gain(self):
        h, s2, sx2 = 0.8 - 0.3j, 0.5, 2.0
        taps = ChannelTaps(np.array([[[h]]]))
        bank, _, _ = make_bank(taps, 4, 0.0, s2, sx2)
        expected = np.conj(h) * sx2 / (abs(h) ** 2 * sx2 + s2)
        np.testing.assert_allclose(bank[:, 0, 0], expected, atol=1e-12)

    def test_zero_noise_limit_is_pseudo_inverse(self):
        rng = np.random.default_rng(2)
        taps = random_taps(rng, 0, 4, 2)
        bank, _, _ = make_bank(taps, 2, 0.0, 1e-12, 1e9)
        H = taps.taps[0]
        pinv = np.linalg.pinv(H)
        for i in range(2):
            np.testing.assert_allclose(bank[i], pinv, atol=1e-6)
            np.testing.assert_allclose(bank[i] @ H, np.eye(2), atol=1e-6)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(3)
        taps = random_taps(rng, 2, 4, 2)
        bank, bm, _ = make_bank(taps, 8, 0.2, 0.7, 1.3)
        subbands = freq_channel(taps, 8)
        for i in range(8):
            H = bm.gain * subbands[i]
            D = np.diag(bm.eff_noise_diag)
            A = H.conj().T @ np.linalg.inv(D)
            lhs = (A @ H + np.eye(2) / bm.sigma_x2) @ bank[i]
            assert np.linalg.norm(lhs - A) / np.linalg.norm(A) < 1e-10

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("account", [False, True])
    def test_matches_textbook_per_subband_solve(self, K, account):
        # account=False is the model that ignores quantization: rho_q = 0.
        rng = np.random.default_rng(20 + K)
        taps = random_taps(rng, 3, 5, K)
        rho, s2, sx2 = (0.25 if account else 0.0), 0.6, 1.7
        bank, bm, _ = make_bank(taps, 8, rho, s2, sx2)
        H = np.fft.fft(taps.taps, n=8, axis=0) * (1.0 - rho)
        d = bm.eff_noise_diag if account else np.full(5, s2)
        Dinv = np.diag(1.0 / d)
        for i in range(8):
            Hi = H[i]
            A = Hi.conj().T @ Dinv
            expected = np.linalg.solve(A @ Hi + np.eye(K) / sx2, A)
            np.testing.assert_allclose(bank[i], expected, rtol=1e-12, atol=1e-14)

    def test_gain_applied_once_for_gain_free_subbands(self):
        # WF_Q scales the gain-free subbands by the Bussgang gain exactly once:
        # the bank solves the normal equations of gain * H, not of H or gain^2 * H.
        rng = np.random.default_rng(5)
        taps = random_taps(rng, 2, 4, 2)
        rho, sx2 = 0.36, 1.4
        bm = bussgang_model(taps, rho, 0.8, sx2)
        subbands = freq_channel(taps, 16)
        bank = build_filter_bank(subbands, bm, FdeConfig(block_len=16, overlap=2))
        Dinv = np.diag(1.0 / bm.eff_noise_diag)
        for power in (0, 1, 2):
            H = (1.0 - rho) ** power * subbands
            A = H.conj().transpose(0, 2, 1) @ Dinv
            expected = np.linalg.solve(A @ H + np.eye(2) / sx2, A)
            close = np.allclose(bank, expected, rtol=1e-12, atol=1e-14)
            assert close == (power == 1)

    def test_block_len_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        taps = random_taps(rng, 0, 2, 1)
        bm = bussgang_model(taps, 0.0, 1.0)
        with pytest.raises(DimensionError):
            build_filter_bank(freq_channel(taps, 8), bm, FdeConfig(block_len=4, overlap=0))


class TestEqualizeBlock:
    def test_zero_block(self):
        rng = np.random.default_rng(5)
        taps = random_taps(rng, 1, 3, 2)
        bank, _, _ = make_bank(taps, 8, 0.0, 1.0, 1.0)
        out = equalize_block(np.zeros((3, 8), dtype=complex), bank)
        assert not np.any(out)

    def test_identity_channel_high_power_limit(self):
        taps = ChannelTaps(np.ones((1, 1, 1), dtype=complex))
        bank, _, _ = make_bank(taps, 8, 0.0, 1.0, 1e9)
        rng = np.random.default_rng(6)
        R = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
        np.testing.assert_allclose(equalize_block(R, bank), R, atol=1e-4)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        taps = random_taps(rng, 0, 2, 1)
        bank, _, _ = make_bank(taps, 8, 0.0, 1.0, 1.0)
        with pytest.raises(DimensionError):
            equalize_block(np.zeros((2, 4), dtype=complex), bank)


class TestTimeDomainEquivalence:
    @pytest.mark.parametrize("account", [True, False])
    def test_matches_dense_wiener_filter_on_circulant_data(self, account):
        rng = np.random.default_rng(8)
        M, K, L, N_b = 8, 2, 3, 16
        for _ in range(10):
            taps = random_taps(rng, L, M, K)
            rho = 0.3 if account else 0.0
            bank, bm, _ = make_bank(taps, N_b, rho, 1.0, 1.0)
            cir = build_block_circulant(taps, N_b, rho)
            x = rng.standard_normal(K * N_b) + 1j * rng.standard_normal(K * N_b)
            r = cir @ x + 0.1 * (
                rng.standard_normal(M * N_b) + 1j * rng.standard_normal(M * N_b)
            )
            dense = time_domain_wf(r, cir, bm)
            fast = equalize_block(r.reshape(M, N_b, order="F"), bank).reshape(-1, order="F")
            assert np.linalg.norm(fast - dense) / np.linalg.norm(dense) < 1e-9

    def test_scalar_example(self):
        # h = 1, noise 1, power 1: Wiener gain 1/2 per sample
        taps = ChannelTaps(np.ones((1, 1, 1), dtype=complex))
        cir = build_block_circulant(taps, 2)
        bm = bussgang_model(taps, 0.0, 1.0)
        xhat = time_domain_wf(np.array([1.0 + 0j, 1.0]), cir, bm)
        np.testing.assert_allclose(xhat, [0.5, 0.5], atol=1e-12)

    def test_inverse_limit(self):
        rng = np.random.default_rng(9)
        taps = random_taps(rng, 1, 1, 1)
        cir = build_block_circulant(taps, 4)
        bm = bussgang_model(taps, 0.0, 1e-12, 1e9)
        r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xhat = time_domain_wf(r, cir, bm)
        np.testing.assert_allclose(xhat, np.linalg.solve(cir, r), atol=1e-4)

    def test_size_guard(self):
        rng = np.random.default_rng(10)
        bm = bussgang_model(random_taps(rng, 0, 2, 1), 0.0, 1.0)
        n = DENSE_SIZE_CAP + 2
        with pytest.raises(DimensionError, match="exceeds cap"):
            time_domain_wf(np.zeros(n, dtype=complex), np.zeros((n, 1)), bm)


class TestOverlapSave:
    def test_flat_channel_concatenates_blocks(self):
        rng = np.random.default_rng(11)
        taps = random_taps(rng, 0, 2, 1)
        bank, _, cfg = make_bank(taps, 8, 0.0, 1.0, 1.0, overlap=0)
        r = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
        out, edge = overlap_save_stream(r, bank, cfg)
        assert out.shape == (1, 32)
        assert not edge.any()
        # block j equalized independently
        for j in range(4):
            blk = equalize_block(r[:, 8 * j : 8 * (j + 1)][:, ::-1], bank)[:, ::-1]
            np.testing.assert_allclose(out[:, 8 * j : 8 * (j + 1)], blk, atol=1e-12)

    def test_block_advance_and_retention_counting(self):
        rng = np.random.default_rng(12)
        taps = random_taps(rng, 4, 3, 1)
        bank, _, cfg = make_bank(taps, 8, 0.0, 1.0, 1.0, overlap=4)
        r = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        out, edge = overlap_save_stream(r, bank, cfg)
        assert out.shape == (1, 32)
        # blocks advance by N_b - L' = 4 and retain 4 interior samples each
        assert cfg.block_len - cfg.overlap == 4
        assert np.count_nonzero(edge) == cfg.overlap

    def test_full_coverage_no_gaps(self):
        rng = np.random.default_rng(13)
        taps = random_taps(rng, 3, 2, 2)
        for T in (16, 19, 37):
            bank, _, cfg = make_bank(taps, 16, 0.1, 1.0, 1.0, overlap=3)
            r = rng.standard_normal((2, T)) + 1j * rng.standard_normal((2, T))
            out, edge = overlap_save_stream(r, bank, cfg)
            assert out.shape == (2, T)
            assert np.all(np.isfinite(out))
            assert edge.shape == (T,)

    def test_stream_shorter_than_block_rejected(self):
        rng = np.random.default_rng(14)
        taps = random_taps(rng, 0, 2, 1)
        bank, _, cfg = make_bank(taps, 8, 0.0, 1.0, 1.0, overlap=0)
        with pytest.raises(ConfigurationError):
            overlap_save_stream(np.zeros((2, 4), dtype=complex), bank, cfg)

    def test_interior_matches_single_block_equalization(self):
        # with overlap L' the retained region of each block is reproduced
        rng = np.random.default_rng(15)
        L = 2
        taps = random_taps(rng, L, 4, 1)
        bank, _, cfg = make_bank(taps, 8, 0.0, 1.0, 1.0, overlap=L)
        x = rng.standard_normal((1, 30)) + 1j * rng.standard_normal((1, 30))
        r = convolve_transmit(taps, x)
        out, edge = overlap_save_stream(r, bank, cfg)
        # block starting at s=6 covers times 6..13; retained are the oldest 6
        blk = equalize_block(r[:, 6:14][:, ::-1], bank)[:, ::-1]
        np.testing.assert_allclose(out[:, 6:12], blk[:, :6], atol=1e-10)


class TestDiscardBenefit:
    def test_discard_lowers_interior_mse(self):
        # statistical: discarding the corrupted overlap beats no discard
        rng = np.random.default_rng(16)
        L, M, K, N_b, T = 4, 8, 2, 16, 128
        worse = better = 0.0
        for _ in range(200):
            taps = ChannelTaps(
                (rng.standard_normal((L + 1, M, K)) + 1j * rng.standard_normal((L + 1, M, K)))
                / np.sqrt(2 * (L + 1))
            )
            x = (rng.standard_normal((K, T)) + 1j * rng.standard_normal((K, T))) / np.sqrt(2)
            r = add_noise(convolve_transmit(taps, x), 0.1, rng)
            for overlap in (L, 0):
                bank, _, cfg = make_bank(taps, N_b, 0.0, 0.01, 1.0, overlap=overlap)
                out, edge = overlap_save_stream(r, bank, cfg)
                keep = ~edge
                mse = np.mean(np.abs(out[:, keep] - x[:, keep]) ** 2)
                if overlap == L:
                    better += mse
                else:
                    worse += mse
        assert better < worse


def dense_block_operator(filters):
    """W[k, n, m, p]: estimate k at position n of a newest-first block from R[m, p]."""
    F = unitary_dft_matrix(filters.shape[0])
    return np.einsum("sn,skm,sp->knmp", F.conj(), filters, F)


def sliding_window_oracle(r, filters, cfg):
    """Each position is estimated by the first block whose kept span covers it.

    Blocks start every N_b - L' samples plus one clamped to the stream end;
    block j keeps its span without the L' newest positions, except that the
    last block keeps the stream end.
    """
    N_b, T = cfg.block_len, r.shape[1]
    W = dense_block_operator(filters)
    starts = list(range(0, T - N_b + 1, N_b - cfg.overlap))
    if starts[-1] != T - N_b:
        starts.append(T - N_b)
    out = np.full((filters.shape[1], T), np.nan, dtype=complex)
    for j, s in enumerate(starts):
        est = np.einsum("knmp,mp->kn", W, r[:, s : s + N_b][:, ::-1])[:, ::-1]
        last = T - 1 if j == len(starts) - 1 else s + N_b - 1 - cfg.overlap
        for t in range(s, last + 1):
            if np.isnan(out[0, t]):
                out[:, t] = est[:, t - s]
    return out


class TestOverlapSaveProperty:
    @pytest.mark.parametrize("threads", [None, 3])
    @settings(max_examples=40, deadline=None)
    @given(
        N_b=st.integers(1, 24),
        overlap_frac=st.floats(0.0, 1.0),
        extra=st.integers(0, 60),
        M=st.integers(1, 3),
        K=st.integers(1, 2),
        seed=st.integers(0, 10**6),
    )
    @example(N_b=8, overlap_frac=1.0, extra=13, M=2, K=2, seed=1)  # step 1
    @example(N_b=9, overlap_frac=0.5, extra=7, M=2, K=1, seed=2)  # clamped final block
    def test_matches_dense_sliding_window(self, threads, N_b, overlap_frac, extra, M, K, seed):
        rng = np.random.default_rng(seed)
        overlap = round(overlap_frac * (N_b - 1))
        T = N_b + extra
        filters = rng.standard_normal((N_b, K, M)) + 1j * rng.standard_normal((N_b, K, M))
        cfg = FdeConfig(block_len=N_b, overlap=overlap)
        r = rng.standard_normal((M, T)) + 1j * rng.standard_normal((M, T))
        if threads is None:
            out, edge = overlap_save_stream(r, filters, cfg)
        else:
            with equalizer_threads(threads):
                out, edge = overlap_save_stream(r, filters, cfg)
        expected = sliding_window_oracle(r, filters, cfg)
        assert not np.isnan(expected).any()
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        mask = np.zeros(T, dtype=bool)
        mask[T - overlap :] = True
        np.testing.assert_array_equal(edge, mask)


class TestThreadInvariance:
    @staticmethod
    def one_shot_filters(H, diag, sigma_x2):
        """The unchunked build: every subband in one batched call."""
        O = H.conj().transpose(0, 2, 1)
        O *= (1.0 / diag)[None, None, :]
        gram = O @ H + (1.0 / sigma_x2) * np.eye(H.shape[2])[None]
        return np.linalg.inv(gram) @ O

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("account", [False, True])
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_chunked_build_is_bitwise_one_shot(self, threads, account, rho):
        # rho = 0 gives a unit Bussgang gain, which _build_filters skips;
        # account=False is WF's model (rho_q = 0), pinned to gain 1 and D = s2 I.
        # A one-block stream (T = N_b) builds the same filters chunk by chunk
        # inside equalize_stream and applies each chunk at once.
        rng = np.random.default_rng(31)
        N_b, M, s2, sx2 = 37, 3, 0.6, 1.7
        cfg = FdeConfig(block_len=N_b, overlap=4)
        for K in (1, 2, 3):
            taps = random_taps(rng, 4, M, K)
            bm = bussgang_model(taps, rho if account else 0.0, s2, sx2)
            subbands = freq_channel(taps, N_b)
            if account:
                H, diag = subbands * bm.gain, bm.eff_noise_diag
            else:
                H, diag = subbands, np.full(M, s2)
            expected = self.one_shot_filters(H, diag, sx2)
            r = rng.standard_normal((M, N_b)) + 1j * rng.standard_normal((M, N_b))
            expected_est = overlap_save_stream(r, expected, cfg)[0]
            serial = build_filter_bank(subbands, bm, cfg)
            serial_est = equalize_stream(r, subbands, bm, cfg)
            # 5 subbands per chunk: 37 = 7 * 5 + 2 leaves a ragged last chunk.
            with equalizer_threads(threads, chunk_bytes=5 * K * M * 16):
                chunked = build_filter_bank(subbands, bm, cfg)
                chunked_est = equalize_stream(r, subbands, bm, cfg)
            np.testing.assert_array_equal(serial, expected)
            np.testing.assert_array_equal(chunked, expected)
            np.testing.assert_array_equal(serial_est, expected_est)
            np.testing.assert_array_equal(chunked_est, expected_est)

    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize("N_b, overlap, T", [(16, 3, 300), (8, 7, 61), (64, 0, 64)])
    def test_pooled_overlap_save_is_bitwise_serial(self, threads, N_b, overlap, T):
        # equalize_stream too: (64, 0, 64) is one block, equalized in 5-subband chunks.
        rng = np.random.default_rng(32)
        taps = random_taps(rng, min(overlap, 3), 4, 2)
        bank, bm, cfg = make_bank(taps, N_b, 0.2, 1.0, 1.0, overlap=overlap)
        r = rng.standard_normal((4, T)) + 1j * rng.standard_normal((4, T))
        serial, serial_edge = overlap_save_stream(r, bank, cfg)
        with equalizer_threads(threads, chunk_bytes=5 * 2 * 4 * 16):
            pooled, pooled_edge = overlap_save_stream(r, bank, cfg)
            streamed = equalize_stream(r, freq_channel(taps, N_b), bm, cfg)
        np.testing.assert_array_equal(pooled, serial)
        np.testing.assert_array_equal(pooled_edge, serial_edge)
        np.testing.assert_array_equal(streamed, serial)

    def test_worker_exception_propagates(self):
        bank = np.ones((8, 1, 2), dtype=complex)
        r = np.ones((2, 64), dtype=complex)

        def fail(R, bank):
            raise RuntimeError("kernel failed")

        jobs = [(fail, r, bank, [(s, s, s + 7)], r) for s in (0, 8)]
        with equalizer_threads(2), pytest.raises(RuntimeError, match="kernel failed"):
            fde._map(fde._equalize_segments, jobs)


class TestOneBlockStream:
    def test_peak_memory_below_the_bank(self, monkeypatch):
        # tracemalloc counts numpy's buffers.  The (N_b, K, M) bank of this
        # stream is 32 MiB; the one-block route holds the forward transform
        # (16 MiB) and one chunk's filters and temporaries per thread.
        rng = np.random.default_rng(33)
        M, K, L, N_b = 32, 2, 15, 32768
        taps = random_taps(rng, L, M, K)
        bm = bussgang_model(taps, 0.3, 1.0, 0.5)
        cfg = FdeConfig(block_len=N_b, overlap=L)
        subbands = freq_channel(taps, N_b)
        r = rng.standard_normal((M, N_b)) + 1j * rng.standard_normal((M, N_b))
        monkeypatch.setattr(fde, "_threads", 1)
        tracemalloc.start()
        try:
            est = equalize_stream(r, subbands, bm, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.shape == (K, N_b)
        assert peak < N_b * K * M * 16

    def test_rejects_mismatched_inputs(self):
        rng = np.random.default_rng(34)
        taps = random_taps(rng, 2, 4, 2)
        bm = bussgang_model(taps, 0.2, 1.0, 1.0)
        cfg = FdeConfig(block_len=16, overlap=2)
        r = np.ones((4, 16), dtype=complex)
        with pytest.raises(DimensionError):
            equalize_stream(r[:3], freq_channel(taps, 16), bm, cfg)
        with pytest.raises(DimensionError):
            equalize_stream(r, freq_channel(taps, 8), bm, cfg)
