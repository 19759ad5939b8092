"""Filter-bank design, block equalization, overlap-save streaming, and the
dense time-domain oracle."""

import contextlib
import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfde import _pool, channel, fde, quant
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
from cpfde.quant import bussgang_model, design_quantizer, quantize


def random_taps(rng, L, M, K):
    return ChannelTaps(
        rng.standard_normal((L + 1, M, K)) + 1j * rng.standard_normal((L + 1, M, K))
    )


@contextlib.contextmanager
def pool_threads(n, chunk_bytes=None):
    """Force every pooled stage onto n threads, whatever the call size.

    The floor is 0, so the row-split stages (freq_channel, quantize,
    convolve_transmit, a block's transform) and overlap-save split too.
    The interpreter switches threads every microsecond meanwhile, so pool
    threads interleave as often as they can.
    """
    saved = _pool._threads, _pool._PARALLEL_MIN_BYTES, fde._CHUNK_BYTES
    switch = sys.getswitchinterval()
    _pool._threads, _pool._PARALLEL_MIN_BYTES = n, 0
    if chunk_bytes is not None:
        fde._CHUNK_BYTES = chunk_bytes
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(switch)
        _pool._threads, _pool._PARALLEL_MIN_BYTES, fde._CHUNK_BYTES = saved


# The factored bank solves each subband's K x K system instead of applying
# explicit filters: the same estimates up to rounding, to this relative
# tolerance (against the largest estimate).
RTOL = 1e-12


def assert_close(actual, expected):
    scale = np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


def textbook_filters(H, diag, sigma_x2):
    """The per-subband MMSE filters solve(gram, H^H D^-1) of H (N_b, M, K), (N_b, K, M)."""
    O = H.conj().transpose(0, 2, 1)
    O *= (1.0 / diag)[None, None, :]
    gram = O @ H + (1.0 / sigma_x2) * np.eye(H.shape[2])[None]
    return np.linalg.solve(gram, O)


def model_filters(subbands, bm):
    """textbook_filters of a model on the gain-free (M, K, N_b) subbands."""
    return textbook_filters(bm.gain * subbands.transpose(2, 0, 1), bm.eff_noise_diag, bm.sigma_x2)


def oracle_block(R, filters):
    """Explicit (N_b, K, M) filters applied to a newest-first block: F^H G_f F per subband."""
    F = unitary_dft_matrix(R.shape[1])
    return np.einsum("skm,ms->ks", filters, R @ F) @ F.conj()


def effective_filters(bank):
    """The (N_b, Q*K, M) per-subband filters equalize_block applies, read off its
    responses to the blocks whose row m transforms to 1 in every subband."""
    M, _, N_b = bank.subbands.shape
    F = unitary_dft_matrix(N_b)
    columns = []
    for m in range(M):
        R = np.zeros((M, N_b), dtype=complex)
        R[m, 0] = np.sqrt(N_b)
        columns.append(equalize_block(R, bank) @ F)
    return np.stack(columns, axis=-1).transpose(1, 0, 2)


def make_bank(taps, N_b, rho, sigma_eta2, sigma_x2, overlap=None):
    bm = bussgang_model(taps, rho, sigma_eta2, sigma_x2)
    cfg = FdeConfig(block_len=N_b, overlap=taps.memory if overlap is None else overlap)
    return build_filter_bank(taps, [bm], cfg), bm, cfg


class TestConfig:
    def test_block_len_lower_bound(self):
        with pytest.raises(ConfigurationError):
            FdeConfig(block_len=4, overlap=4)


class TestTransforms:
    def test_unitary(self):
        F = unitary_dft_matrix(8)
        np.testing.assert_allclose(F @ F.conj().T, np.eye(8), atol=1e-12)

    def test_round_trip(self):
        # Identity channel, unit noise and power: the filter is I/2 in every
        # subband, so the transform into subbands and back halves the block.
        taps = ChannelTaps(np.eye(3, dtype=complex)[None])
        bank, _, _ = make_bank(taps, 16, 0.0, 1.0, 1.0)
        rng = np.random.default_rng(0)
        R = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        np.testing.assert_allclose(equalize_block(R, bank), R / 2, atol=1e-12)

    def test_matches_matrix_form(self):
        # One user on one antenna with subbands h, the 8-point transform of
        # 8 taps: one scalar filter per subband, which acts as F^H diag(g) F
        # on the row.
        rng = np.random.default_rng(1)
        R = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        bm = quant.BussgangModel(1.0, np.array([0.4]), 1.5)
        taps = ChannelTaps(np.fft.ifft(h).reshape(8, 1, 1))
        bank = build_filter_bank(taps, [bm], FdeConfig(block_len=8, overlap=0))
        g = np.conj(h) * 1.5 / (np.abs(h) ** 2 * 1.5 + 0.4)
        F = unitary_dft_matrix(8)
        expected = R @ (F.conj().T @ np.diag(g) @ F).T
        np.testing.assert_allclose(equalize_block(R, bank), expected, atol=1e-12)
        np.testing.assert_allclose(oracle_block(R, g[:, None, None]), expected, atol=1e-12)


class TestFilterBank:
    def test_scalar_wiener_gain(self):
        h, s2, sx2 = 0.8 - 0.3j, 0.5, 2.0
        taps = ChannelTaps(np.array([[[h]]]))
        bank, _, _ = make_bank(taps, 4, 0.0, s2, sx2)
        expected = np.conj(h) * sx2 / (abs(h) ** 2 * sx2 + s2)
        np.testing.assert_allclose(effective_filters(bank)[:, 0, 0], expected, atol=1e-12)

    def test_zero_noise_limit_is_pseudo_inverse(self):
        rng = np.random.default_rng(2)
        taps = random_taps(rng, 0, 4, 2)
        bank, _, _ = make_bank(taps, 2, 0.0, 1e-12, 1e9)
        H = taps.taps[0]
        pinv = np.linalg.pinv(H)
        for W in effective_filters(bank):
            np.testing.assert_allclose(W, pinv, atol=1e-6)
            np.testing.assert_allclose(W @ H, np.eye(2), atol=1e-6)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(3)
        taps = random_taps(rng, 2, 4, 2)
        bank, bm, _ = make_bank(taps, 8, 0.2, 0.7, 1.3)
        subbands = freq_channel(taps, 8)
        for i, W in enumerate(effective_filters(bank)):
            H = bm.gain * subbands[:, :, i]
            D = np.diag(bm.eff_noise_diag)
            A = H.conj().T @ np.linalg.inv(D)
            lhs = (A @ H + np.eye(2) / bm.sigma_x2) @ W
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
        expected = textbook_filters(H, d, sx2)
        assert_close(effective_filters(bank), expected)
        R = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        assert_close(equalize_block(R, bank), oracle_block(R, expected))

    def test_gain_applied_once_for_gain_free_subbands(self):
        # WF_Q scales the gain-free subbands by the Bussgang gain exactly once:
        # the bank solves the normal equations of gain * H, not of H or gain^2 * H.
        rng = np.random.default_rng(5)
        taps = random_taps(rng, 2, 4, 2)
        rho, sx2 = 0.36, 1.4
        bm = bussgang_model(taps, rho, 0.8, sx2)
        subbands = freq_channel(taps, 16)
        bank = build_filter_bank(taps, [bm], FdeConfig(block_len=16, overlap=2))
        R = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        est = equalize_block(R, bank)
        for power in (0, 1, 2):
            H = (1.0 - rho) ** power * subbands.transpose(2, 0, 1)
            expected = oracle_block(R, textbook_filters(H, bm.eff_noise_diag, sx2))
            close = np.allclose(est, expected, rtol=RTOL, atol=RTOL * np.abs(expected).max())
            assert close == (power == 1)

    @pytest.mark.parametrize("N_b", [16, 40])
    def test_subset_is_the_bank_of_its_models(self, N_b):
        # Two Eb/N0 points of two models each, as the sweep builds them; a
        # multi-block (N_b = 16) and a one-block (N_b = T = 40) stream.
        rng = np.random.default_rng(6)
        taps = random_taps(rng, 3, 5, 2)
        models = [bussgang_model(taps, rho, 0.7, sx2) for sx2 in (0.5, 2.0) for rho in (0.0, 0.3)]
        cfg = FdeConfig(block_len=N_b, overlap=3)
        bank = build_filter_bank(taps, models, cfg)
        r = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
        for lo, hi in ((0, 2), (2, 4), (3, 4)):
            subset = bank.subset(lo, hi)
            assert np.shares_memory(subset.mult, bank.mult)
            alone = build_filter_bank(taps, models[lo:hi], cfg)
            expected = overlap_save_stream(r, alone, cfg)[0]
            assert_close(overlap_save_stream(r, subset, cfg)[0], expected)

    def test_block_len_mismatch_rejected(self):
        # A block shorter than the L + 1 = 3 taps has no subbands of its own.
        rng = np.random.default_rng(4)
        taps = random_taps(rng, 2, 2, 1)
        bm = bussgang_model(taps, 0.0, 1.0)
        with pytest.raises(DimensionError, match="L\\+1"):
            build_filter_bank(taps, [bm], FdeConfig(block_len=2, overlap=0))


class TestHermitianSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(1, 6),
        M=st.integers(1, 6),
        n=st.integers(1, 5),
        log_sigma_x2=st.floats(-2.0, 2.0),
        seed=st.integers(0, 10**6),
    )
    @example(K=6, M=1, n=3, log_sigma_x2=2.0, seed=0)  # K > M: rank 1 plus the load
    def test_matches_linalg_solve(self, K, M, n, log_sigma_x2, seed):
        # The batched LDL^H factors of g^2 H^H D^-1 H + I/sigma_x^2 and the
        # solve with them, vectorized over n subbands, against LAPACK's solve
        # one subband at a time.
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((n, M, K)) + 1j * rng.standard_normal((n, M, K))
        O = H.conj().transpose(0, 2, 1) * rng.uniform(0.2, 2.0, M)
        gram = O @ H + 10.0**-log_sigma_x2 * np.eye(K)
        b = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
        expected = np.linalg.solve(gram, b.T[..., None])[..., 0].T
        A = gram.transpose(1, 2, 0).copy()
        A[np.tril_indices(K, -1)] = np.nan  # only the upper triangle is read
        mult, rpiv = np.empty((K * (K - 1) // 2, n), dtype=complex), np.empty((K, n))
        fde._ldl_factor(A, mult, rpiv)
        x = b.copy()
        fde._ldl_solve(mult, rpiv, x)
        cond = np.linalg.cond(gram).max()
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-14 * cond * np.abs(expected).max())

    @pytest.mark.parametrize("K, M, singular", [(4, 2, True), (2, 4, False)])
    @pytest.mark.parametrize("sigma_x2", [1e20, 1e30])
    def test_singular_gram_raises_on_both_routes(self, K, M, singular, sigma_x2):
        # More users than antennas at a huge transmit power: the Gram matrix
        # H^H H + I/sigma_x^2 has rank M < K in working precision.  The bank
        # build, and so a multi-block and a one-block stream, raise rather
        # than return NaN, and so does the one-block bank of short spectra;
        # with K < M the same powers give the zero-forcing limit, finite.
        rng = np.random.default_rng(37)
        taps = random_taps(rng, 2, M, K)
        bm = bussgang_model(taps, 0.0, 1.0, sigma_x2)
        r = rng.standard_normal((M, 48)) + 1j * rng.standard_normal((M, 48))
        multi, one = FdeConfig(block_len=16, overlap=2), FdeConfig(block_len=48, overlap=2)
        calls = [
            lambda: build_filter_bank(taps, [bm], multi).rpiv,
            lambda: equalize_stream(r, taps, [bm], multi),
            lambda: equalize_stream(r, taps, [bm], one),
            lambda: overlap_save_stream(r, fde.build_one_block_bank(taps, [bm], one), one)[0],
        ]
        for call in calls:
            if singular:
                with pytest.raises(ConfigurationError, match="singular"):
                    call()
            else:
                assert np.all(np.isfinite(call()))


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
        # A block is M x N_b = 2 x 8 and a stack (B, 2, 8).
        rng = np.random.default_rng(7)
        taps = random_taps(rng, 0, 2, 1)
        bank, _, _ = make_bank(taps, 8, 0.0, 1.0, 1.0)
        for shape in [(2, 4), (3, 8), (16,), (1, 1, 2, 8), (3, 3, 8), (3, 2, 4)]:
            with pytest.raises(DimensionError):
                equalize_block(np.zeros(shape, dtype=complex), bank)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("Q", [1, 2])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_stack_is_bitwise_per_block(self, threads, Q, K):
        # Each block of a stack is transformed, summed over the antennas and
        # solved as in a call of its own, so its estimates are bitwise those
        # of that call: in one subband chunk, and in chunks of 5 subbands
        # (12 = 2 * 5 + 2) with the rows and chunks split over the pool.
        rng = np.random.default_rng(8 + K)
        M, N_b = 5, 12
        taps = random_taps(rng, 3, M, K)
        models = [bussgang_model(taps, rho, 0.7, 1.3) for rho in (0.3, 0.0)[:Q]]
        bank = build_filter_bank(taps, models, FdeConfig(N_b, 3))
        for chunk_bytes in (fde._CHUNK_BYTES, 5 * (K + 1) * M * 16):
            with pool_threads(threads, chunk_bytes=chunk_bytes):
                for B in range(1, 6):
                    R = rng.standard_normal((B, M, N_b)) + 1j * rng.standard_normal((B, M, N_b))
                    stacked = equalize_block(R, bank)
                    assert stacked.shape == (B, Q * K, N_b)
                    for block, est in zip(R, stacked):
                        np.testing.assert_array_equal(est, equalize_block(block, bank))


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


def per_block_reference(r, bank, cfg):
    """overlap_save_stream's estimates from one equalize_block call per block."""
    N_b, T = cfg.block_len, r.shape[1]
    step = N_b - cfg.overlap
    starts = list(range(0, T - N_b + 1, step))
    if starts[-1] != T - N_b:
        starts.append(T - N_b)  # clamped final block
    out = np.empty((len(bank.weights) * bank.subbands.shape[1], T), dtype=complex)
    lo = 0
    for j, s in enumerate(starts):
        hi = T if j == len(starts) - 1 else s + step
        est = equalize_block(r[:, s : s + N_b][:, ::-1], bank)[:, ::-1]
        out[:, lo:hi] = est[:, lo - s : hi - s]
        lo = hi
    return out


class TestOverlapSave:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "overlap, T", [(3, 61), (3, 58), (0, 60), (0, 64)],
        ids=["clamped", "unclamped", "clamped-overlap0", "unclamped-overlap0"],
    )
    def test_stacks_are_bitwise_per_block(self, threads, overlap, T):
        # N_b = 8 advances by 5 (11 regular blocks) or by 8 (7 or 8).  The
        # chunk width sets the stack: one block cut into 3-subband chunks,
        # stacks of 1, 2 and 3 blocks (the last one shorter), and one stack
        # of every regular block.  Against the per-block stream at the same
        # width, every case is bitwise.
        rng = np.random.default_rng(16)
        M, K, N_b = 4, 2, 8
        taps = random_taps(rng, 3, M, K)
        cfg = FdeConfig(block_len=N_b, overlap=overlap)
        models = [bussgang_model(taps, 0.0, 1.0, 1.0), bussgang_model(taps, 0.3, 1.0, 1.0)]
        bank = build_filter_bank(taps, models, cfg)
        r = rng.standard_normal((M, T)) + 1j * rng.standard_normal((M, T))
        block_bytes = (K + 1) * M * N_b * 16
        for chunk_bytes in (3 * (K + 1) * M * 16, block_bytes, 2 * block_bytes,
                            3 * block_bytes, 1 << 30):
            with pool_threads(threads, chunk_bytes=chunk_bytes):
                out, _ = overlap_save_stream(r, bank, cfg)
                expected = per_block_reference(r, bank, cfg)
            np.testing.assert_array_equal(out, expected)

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


class TestOverwrite:
    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_one_block_is_bitwise_the_copying_call(self, threads):
        # The one-block route reads its stream through views (overlap-save
        # windows of the short block and the wrapped block's copy) and never
        # writes it: on 1, 2 and 5 threads (the pool floor is 0, so the
        # blocks split over the pool) the stream is unchanged, and the
        # estimates are bitwise those of a call on a copy on one thread.
        rng = np.random.default_rng(21)
        M, K, L, N_b = 8, 2, 3, 300
        taps = random_taps(rng, L, M, K)
        cfg = FdeConfig(block_len=N_b, overlap=L)
        models = [bussgang_model(taps, rho, 1.0, s) for s in (1.0, 3.0) for rho in (0.0, 0.3)]
        bank = fde.build_one_block_bank(taps, models, cfg)
        assert bank.subbands.shape[-1] == 64 < N_b
        r = rng.standard_normal((M, N_b)) + 1j * rng.standard_normal((M, N_b))
        kept = r.copy()
        expected = overlap_save_stream(kept.copy(), bank, cfg)[0]
        with pool_threads(threads, chunk_bytes=(K + 1) * M * 64 * 16):
            est = overlap_save_stream(r, bank, cfg)[0]
        np.testing.assert_array_equal(r, kept)
        np.testing.assert_array_equal(est, expected)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("T", [61, 64], ids=["clamped", "unclamped"])
    def test_multi_block_stream_is_left_unchanged(self, threads, T):
        # Overlapping blocks share stream samples: no block is transformed in place.
        rng = np.random.default_rng(22)
        M, K, N_b = 4, 2, 8
        taps = random_taps(rng, 3, M, K)
        cfg = FdeConfig(block_len=N_b, overlap=3)
        bank = build_filter_bank(taps, [bussgang_model(taps, 0.3, 1.0, 1.0)], cfg)
        r = rng.standard_normal((M, T)) + 1j * rng.standard_normal((M, T))
        kept = r.copy()
        with pool_threads(threads):
            out, _ = overlap_save_stream(r, bank, cfg)
            expected = per_block_reference(kept, bank, cfg)
        np.testing.assert_array_equal(r, kept)
        np.testing.assert_array_equal(out, expected)


def subband_factors(subbands, models):
    """The (mult, rpiv) of every model's Gram matrices from per-subband antenna
    products of the (M, K, N_b) subbands: sum_m g^2 / D_m conj(H_mi) H_mj."""
    M, K, N_b = subbands.shape
    _, gram_weights, loads = fde._model_weights(models, M)
    sums = fde._gram_sums(subbands, gram_weights)
    pairs = [(i, j) for i in range(K) for j in range(i, K)]
    entry = {ij: sums[:, p] for p, ij in enumerate(pairs)}
    for k in range(K):
        entry[k, k].real += loads[:, None]
    mult = np.empty((K * (K - 1) // 2, len(models), N_b), dtype=complex)
    rpiv = np.empty((K, len(models), N_b))
    fde._ldl_factor([[entry.get((i, j)) for j in range(K)] for i in range(K)], mult, rpiv)
    return mult, rpiv


class TestLagGram:
    # L = 4: 2L + 1 = 9 lags, which alias at L + 1 = 5 <= N_b < 9.
    @pytest.mark.parametrize("N_b", [64, 9, 8, 6, 5])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_factors_match_the_subband_factors(self, K, N_b):
        # Both banks' Gram factors, from the taps' lags, against those of
        # the antenna products of freq_channel's N_b subbands, for the
        # models of two Eb/N0 points: the same to rounding.
        rng = np.random.default_rng(50 + K)
        M, L = 5, 4
        taps = random_taps(rng, L, M, K)
        models = [bussgang_model(taps, rho, 0.7, s) for s in (0.5, 4.0) for rho in (0.0, 0.3)]
        cfg = FdeConfig(block_len=N_b, overlap=L)
        want = subband_factors(freq_channel(taps, N_b), models)
        for bank in (build_filter_bank(taps, models, cfg), fde.build_one_block_bank(taps, models, cfg)):
            for got, expected in zip((bank.mult, bank.rpiv), want):
                assert got.shape == expected.shape
                np.testing.assert_allclose(
                    got, expected, rtol=0, atol=RTOL * np.abs(expected).max(initial=1)
                )
            np.testing.assert_array_equal(bank.weights, fde._model_weights(models, M)[0])


class TestOneBlockRoute:
    @pytest.mark.parametrize("points", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_groups_match_the_bank_route(self, K, points):
        # One one-block bank holds the two models of each of 1 to 3 Eb/N0
        # points, and each point's group of models (FilterBank.subset)
        # agrees with build_filter_bank and overlap_save_stream on the N_b
        # subbands to rounding.  At L = 15 the short block is 64 samples and
        # its step 49: N_b = 2048 is no multiple of it, N_b = 99 needs the
        # clamped final block before the wrapped one, and the regular blocks
        # of N_b = 113 end where the wrapped one starts; N_b = 64 and 20
        # (whose Gram lags alias) are one block, the stream itself.
        rng = np.random.default_rng(40 + K)
        M, L = 5, 15
        taps = random_taps(rng, L, M, K)
        models = [bussgang_model(taps, rho, 0.7, s) for s in (0.5, 1.3, 4.0)[:points]
                  for rho in (0.0, 0.3)]
        for N_b, short in ((2048, 64), (99, 64), (113, 64), (64, 64), (20, 20)):
            r = rng.standard_normal((M, N_b)) + 1j * rng.standard_normal((M, N_b))
            cfg = FdeConfig(block_len=N_b, overlap=L)
            one_block = fde.build_one_block_bank(taps, models, cfg)
            assert one_block.subbands.shape == (M, K, short)
            bank = build_filter_bank(taps, models, cfg)
            for q in range(0, len(models), 2):
                est = overlap_save_stream(r, one_block.subset(q, q + 2), cfg)[0]
                assert est.shape == (2 * K, N_b)
                assert_close(est, overlap_save_stream(r, bank.subset(q, q + 2), cfg)[0])

    def test_bitwise_for_any_thread_count(self):
        # The stacks and subband chunks are cut by size: on 1, 2 and 5
        # threads (pool floor 0, stacks of one block, chunks of 5 subbands)
        # the estimates of six models are bitwise the same.
        rng = np.random.default_rng(44)
        M, K, L, N_b = 7, 2, 3, 300
        taps = random_taps(rng, L, M, K)
        models = [bussgang_model(taps, rho, 0.7, s) for s in (0.5, 1.3, 4.0) for rho in (0.0, 0.3)]
        cfg = FdeConfig(block_len=N_b, overlap=L)
        r = rng.standard_normal((M, N_b)) + 1j * rng.standard_normal((M, N_b))
        runs = []
        for threads in (1, 2, 5):
            with pool_threads(threads, chunk_bytes=5 * (K + 1) * M * 16):
                bank = fde.build_one_block_bank(taps, models, cfg)
                runs.append(overlap_save_stream(r, bank, cfg)[0])
        for run in runs[1:]:
            np.testing.assert_array_equal(run, runs[0])

    def test_peak_memory_below_the_subbands(self, monkeypatch):
        # An M x N_b = 32 x 32768 stream is 16 MiB and its subbands 32 MiB.
        # The one-block route forms neither those nor the stream's transform:
        # building and equalizing allocate the two models' Gram sums (3 MiB,
        # then factors of 2 MiB), the estimates (2 MiB) and a stack's
        # products and temporaries (about 3 MiB), below 10 MiB.
        rng = np.random.default_rng(46)
        M, K, L, N_b = 32, 2, 15, 32768
        taps = random_taps(rng, L, M, K)
        models = [bussgang_model(taps, rho, 1.0, 0.5) for rho in (0.0, 0.3)]
        cfg = FdeConfig(block_len=N_b, overlap=L)
        r = rng.standard_normal((M, N_b)) + 1j * rng.standard_normal((M, N_b))
        monkeypatch.setattr(_pool, "_threads", 1)
        tracemalloc.start()
        try:
            est = overlap_save_stream(r, fde.build_one_block_bank(taps, models, cfg), cfg)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.shape == (2 * K, N_b)
        assert peak < 10 << 20

    def test_rejects_mismatched_inputs(self):
        rng = np.random.default_rng(47)
        taps = random_taps(rng, 2, 4, 2)
        bm = bussgang_model(taps, 0.2, 1.0, 1.0)
        cfg = FdeConfig(block_len=16, overlap=2)
        bank = fde.build_one_block_bank(taps, [bm], cfg)
        r = np.ones((4, 16), dtype=complex)
        with pytest.raises(DimensionError):
            overlap_save_stream(r[:3], bank, cfg)
        with pytest.raises(DimensionError):
            overlap_save_stream(r[:, :8], bank, FdeConfig(block_len=8, overlap=2))
        with pytest.raises(ConfigurationError, match="channel memory"):
            fde.build_one_block_bank(taps, [bm], FdeConfig(block_len=16, overlap=1))
        # No model, or a diagonal without one entry per antenna, is refused.
        short = dataclasses.replace(bm, eff_noise_diag=bm.eff_noise_diag[:-1])
        for models in ([], [bm, short]):
            with pytest.raises(DimensionError, match="model|per antenna"):
                fde.build_one_block_bank(taps, models, cfg)
        np.testing.assert_array_equal(r, 1.0)


class TestHandedMatchedFilter:
    """A multi-block pass writes a one-block bank's matched-filter rows."""

    def stream(self, L=15, T=250, seed=48):
        rng = np.random.default_rng(seed)
        M, K = 5, 2
        taps = random_taps(rng, L, M, K)
        models = [bussgang_model(taps, rho, 0.7, s) for s in (0.5, 4.0) for rho in (0.0, 0.3)]
        r = rng.standard_normal((M, T)) + 1j * rng.standard_normal((M, T))
        cfg = FdeConfig(block_len=T, overlap=L)
        return taps, models, r, cfg, fde.build_one_block_bank(taps, models, cfg)

    def handed(self, taps, models, r, cfg, one_block, N_b):
        """(matched rows, multi-block estimates, one-block estimates) of an N_b pass."""
        feed = FdeConfig(block_len=N_b, overlap=cfg.overlap)
        matched = fde.MatchedFilter(len(models) * taps.n_users, r.shape[1], cfg.overlap)
        multi = overlap_save_stream(r, build_filter_bank(taps, models, feed), feed, matched)[0]
        rows = matched.rows.copy()
        return rows, multi, overlap_save_stream(r, one_block, cfg, matched)[0]

    # At L = 15 the short block is 64 and its step 49.  T = 211 is a
    # multiple of the step of N_b = 64 past its first block, T = 250 ends
    # in a clamped final block, T = N_b + 1 (N_b 64 and 99) in a clamped
    # block one sample on, and N_b = 20 and 30, below 2L + 1 = 31 so that
    # their Gram lags alias, step 5 and 15: three wrapped blocks give the
    # last 15 positions of 20.  The short block of T = 64 is T itself, and
    # that stream of one block reads the rows too.
    @pytest.mark.parametrize("T, N_b", [(211, 64), (250, 64), (65, 64), (250, 20), (211, 30),
                                        (100, 99), (64, 20)])
    def test_matches_the_own_short_pass(self, T, N_b):
        taps, models, r, cfg, one_block = self.stream(T=T)
        rows, multi, est = self.handed(taps, models, r, cfg, one_block, N_b)
        own = np.empty_like(rows)
        fde._matched_filter(r, one_block, cfg.overlap, own)
        assert_close(rows, own)
        assert_close(est, overlap_save_stream(r, one_block, cfg)[0])
        # The pass's own estimates are bitwise those of a pass without it.
        feed = FdeConfig(block_len=N_b, overlap=cfg.overlap)
        plain = overlap_save_stream(r, build_filter_bank(taps, models, feed), feed)[0]
        np.testing.assert_array_equal(multi, plain)

    def test_bitwise_for_any_thread_count(self):
        # On 1, 2 and 5 threads (pool floor 0: stacks split over the pool,
        # and chunks of 5 subbands) and serially, every array is bitwise the same.
        taps, models, r, cfg, one_block = self.stream(T=300, seed=49)
        serial = self.handed(taps, models, r, cfg, one_block, 40)
        for threads in (1, 2, 5):
            with pool_threads(threads, chunk_bytes=5 * (taps.n_users + 1) * 5 * 16):
                run = self.handed(taps, models, r, cfg, one_block, 40)
            for a, b in zip(serial, run):
                np.testing.assert_array_equal(b, a)

    def test_rejects_mismatched_rows_or_overlap(self):
        taps, models, r, cfg, one_block = self.stream(T=100, seed=50)
        feed = FdeConfig(block_len=40, overlap=cfg.overlap)
        bank = build_filter_bank(taps, models, feed)
        rows = len(models) * taps.n_users
        for matched in (fde.MatchedFilter(rows - 1, 100, 15), fde.MatchedFilter(rows, 99, 15),
                        fde.MatchedFilter(rows, 100, 16)):
            with pytest.raises(DimensionError, match="matched-filter rows"):
                overlap_save_stream(r, bank, feed, matched)
            with pytest.raises(DimensionError, match="matched-filter rows"):
                overlap_save_stream(r, one_block, cfg, matched)


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


def sliding_window_oracle(r, filters, cfg):
    """Each position is estimated by the first block whose kept span covers it.

    Blocks start every N_b - L' samples plus one clamped to the stream end;
    block j keeps its span without the L' newest positions, except that the
    last block keeps the stream end.
    """
    N_b, T = cfg.block_len, r.shape[1]
    starts = list(range(0, T - N_b + 1, N_b - cfg.overlap))
    if starts[-1] != T - N_b:
        starts.append(T - N_b)
    out = np.full((filters.shape[1], T), np.nan, dtype=complex)
    for j, s in enumerate(starts):
        est = oracle_block(r[:, s : s + N_b][:, ::-1], filters)[:, ::-1]
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
        # Random subbands, the N_b-point transform of N_b taps, and two
        # random models: rows are model-major.
        subbands = rng.standard_normal((M, K, N_b)) + 1j * rng.standard_normal((M, K, N_b))
        taps = ChannelTaps(np.fft.ifft(subbands, axis=-1).transpose(2, 0, 1))
        models = [
            quant.BussgangModel(
                rng.uniform(0.4, 1.0), rng.uniform(0.2, 2.0, M), rng.uniform(0.5, 2.0)
            )
            for _ in range(2)
        ]
        cfg = FdeConfig(block_len=N_b, overlap=overlap)
        bank = build_filter_bank(taps, models, cfg)
        r = rng.standard_normal((M, T)) + 1j * rng.standard_normal((M, T))
        if threads is None:
            out, edge = overlap_save_stream(r, bank, cfg)
        else:
            with pool_threads(threads):
                out, edge = overlap_save_stream(r, bank, cfg)
        filters = np.concatenate([model_filters(subbands, bm) for bm in models], axis=1)
        expected = sliding_window_oracle(r, filters, cfg)
        assert not np.isnan(expected).any()
        np.testing.assert_allclose(out, expected, rtol=0, atol=RTOL * np.abs(expected).max())
        mask = np.zeros(T, dtype=bool)
        mask[T - overlap :] = True
        np.testing.assert_array_equal(edge, mask)


class TestThreadInvariance:
    @pytest.mark.parametrize("threads", [1, 2, 3, 5])
    @pytest.mark.parametrize("account", [False, True])
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_chunked_build_is_bitwise_one_shot(self, threads, account, rho):
        # A bank factored one model at a time (a chunk of one model's Gram
        # rows) on any thread count is bitwise the bank of both models at
        # once, and the one-block stream's estimates, given both models,
        # this one first, are bitwise those of the same chunks on one
        # thread.  Against the textbook filters they agree to RTOL: the
        # antenna sums are one real matrix product per chunk, and BLAS rounds
        # a product of another width differently.  rho = 0 gives a unit
        # gain; account=False is WF's model (rho_q = 0), pinned to gain 1 and
        # D = s2 I.
        rng = np.random.default_rng(31)
        N_b, M, s2, sx2 = 37, 3, 0.6, 1.7
        cfg = FdeConfig(block_len=N_b, overlap=4)
        for K in (1, 2, 3):
            taps = random_taps(rng, 4, M, K)
            bm = bussgang_model(taps, rho if account else 0.0, s2, sx2)
            other = bussgang_model(taps, 0.0 if account else rho, s2, sx2)
            subbands = freq_channel(taps, N_b)
            if account:
                H, diag = subbands.transpose(2, 0, 1) * bm.gain, bm.eff_noise_diag
            else:
                H, diag = subbands.transpose(2, 0, 1), np.full(M, s2)
            expected = textbook_filters(H, diag, sx2)
            r = rng.standard_normal((M, N_b)) + 1j * rng.standard_normal((M, N_b))
            filters = np.concatenate([expected, model_filters(subbands, other)], axis=1)
            expected_est = oracle_block(r[:, ::-1], filters)[:, ::-1].reshape(2, K, N_b)
            one_shot = build_filter_bank(taps, [bm, other], cfg)
            chunk_bytes = K * (K + 1) // 2 * N_b * 16  # one model's Gram rows
            with pool_threads(1, chunk_bytes=chunk_bytes):
                serial_est = equalize_stream(r, taps, [bm, other], cfg)
            with pool_threads(threads, chunk_bytes=chunk_bytes):
                chunked = build_filter_bank(taps, [bm, other], cfg)
                chunked_est = equalize_stream(r, taps, [bm, other], cfg)
            for name in ("mult", "rpiv"):
                np.testing.assert_array_equal(getattr(chunked, name), getattr(one_shot, name))
            np.testing.assert_array_equal(chunked_est, serial_est)
            assert_close(chunked_est, expected_est)
            assert_close(equalize_stream(r, taps, [bm, other], cfg), expected_est)

    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize("N_b, overlap, T", [(16, 3, 300), (8, 7, 61), (64, 0, 64)])
    def test_pooled_overlap_save_is_bitwise_serial(self, threads, N_b, overlap, T):
        # WF's and WF_Q's models at rho 0 and 0.2, in one bank: (16, 3, 300)
        # ends in a clamped final block, and (64, 0, 64) is one block, split
        # into transform rows and 1-subband chunks.  At one chunk width the
        # pooled stream is bitwise the serial one, and within RTOL of the
        # textbook filters block by block.
        rng = np.random.default_rng(32)
        taps = random_taps(rng, min(overlap, 3), 4, 2)
        cfg = FdeConfig(block_len=N_b, overlap=overlap)
        r = rng.standard_normal((4, T)) + 1j * rng.standard_normal((4, T))
        subbands = freq_channel(taps, N_b)
        chunk_bytes = 3 * 4 * 16
        for rho in (0.0, 0.2):
            models = [bussgang_model(taps, 0.0, 1.0, 1.0), bussgang_model(taps, rho, 1.0, 1.0)]
            bank = build_filter_bank(taps, models, cfg)
            filters = np.concatenate([model_filters(subbands, m) for m in models], axis=1)
            with pool_threads(1, chunk_bytes=chunk_bytes):
                serial, serial_edge = overlap_save_stream(r, bank, cfg)
            with pool_threads(threads, chunk_bytes=chunk_bytes):
                pooled, pooled_edge = overlap_save_stream(r, bank, cfg)
                streamed = equalize_stream(r, taps, models, cfg)
            np.testing.assert_array_equal(pooled, serial)
            np.testing.assert_array_equal(pooled_edge, serial_edge)
            np.testing.assert_array_equal(streamed.reshape(4, T), serial)
            assert_close(serial, sliding_window_oracle(r, filters, cfg))

    def test_pooled_stream_starts_no_nested_pool(self, monkeypatch):
        # Every block is at or above the (forced) floor, so equalize_block
        # would pool it; inside an overlap-save job it must not.  One pool
        # serves the whole stream, and the result is bitwise the serial one.
        rng = np.random.default_rng(39)
        taps = random_taps(rng, 3, 4, 2)
        cfg = FdeConfig(block_len=16, overlap=3)
        models = [bussgang_model(taps, 0.0, 1.0, 1.0), bussgang_model(taps, 0.3, 1.0, 1.0)]
        r = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
        chunk_bytes = 3 * 4 * 16  # 5 subband chunks per block
        with pool_threads(1, chunk_bytes=chunk_bytes):
            bank = build_filter_bank(taps, models, cfg)
            serial = overlap_save_stream(r, bank, cfg)[0]
        pools = []

        class CountingExecutor(_pool.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(threading.current_thread())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(_pool, "ThreadPoolExecutor", CountingExecutor)
        with pool_threads(2, chunk_bytes=chunk_bytes):
            assert len(_pool._split(len(r), r[:, :16].nbytes)) > 1  # a block would split
            pooled = overlap_save_stream(r, bank, cfg)[0]
        np.testing.assert_array_equal(pooled, serial)
        assert pools == [threading.current_thread()]

    def test_worker_exception_propagates(self):
        rng = np.random.default_rng(40)
        taps = random_taps(rng, 0, 2, 1)
        bank, _, _ = make_bank(taps, 8, 0.0, 1.0, 1.0)
        windows = np.lib.stride_tricks.sliding_window_view(np.ones((2, 64), complex), 8, axis=1)
        out = np.empty((1, 64), dtype=complex)

        def fail(R, bank):
            raise RuntimeError("kernel failed")

        jobs = [(fail, windows, bank, 8, [(s, 4)], out) for s in (0, 32)]
        with pool_threads(2), pytest.raises(RuntimeError, match="kernel failed"):
            _pool._map(fde._equalize_stacks, jobs)

    def test_ahead_never_writes_the_buffer_in_use(self):
        # Job i fills buffer i % 2 with i on the helper thread, piece by
        # piece, as often interrupted as the interpreter allows.  Were job
        # i + 2 started before the caller asked for result i + 1, the caller
        # would read result i half overwritten.
        buffers = np.empty((2, 4096))
        ran = set()

        def fill(i, out):
            ran.add(threading.current_thread())
            for part in np.array_split(out, 16):
                part[...] = i
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _pool._ahead(fill, [(i, buffers[i % 2]) for i in range(300)]) as results:
                for i, out in enumerate(results):
                    for part in np.array_split(out, 16):
                        assert (part == i).all()
        finally:
            sys.setswitchinterval(interval)
        assert i == 299 and threading.current_thread() not in ran
        assert not any(t.name.startswith("cpfde-pool") for t in threading.enumerate())

    def test_ahead_job_exception_propagates(self):
        def job(i):
            if i == 2:
                raise RuntimeError("draw failed")
            return i

        taken = []
        with pytest.raises(RuntimeError, match="draw failed"):
            with _pool._ahead(job, [(i,) for i in range(4)]) as results:
                taken.extend(results)
        assert taken == [0, 1]
        assert not any(t.name.startswith("cpfde-pool") for t in threading.enumerate())

    @pytest.mark.parametrize("threads", [2, 5])
    def test_calling_thread_takes_jobs_beside_its_helpers(self, threads):
        # Each job waits until every thread holds one, so the jobs can only
        # finish on `threads` threads at once: the caller and its helpers.
        barrier = threading.Barrier(threads, timeout=30)
        ran = []

        def job():
            ran.append(threading.current_thread())
            barrier.wait()

        with pool_threads(threads):
            _pool._map(job, [()] * threads)
        assert len(set(ran)) == threads
        assert threading.current_thread() in ran
        assert not any(t.name.startswith("cpfde-pool") for t in threading.enumerate())

    def test_every_job_runs_once_under_thread_switching(self):
        # Five threads on fewer CPUs, switching as often as the interpreter
        # allows, share one queue of jobs: a job taken twice or lost shows.
        counts = [0] * 2000

        def job(i):
            counts[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pool_threads(5):
                _pool._map(job, [(i,) for i in range(len(counts))])
        finally:
            sys.setswitchinterval(interval)
        assert counts == [1] * len(counts)


class TestRowSplit:
    # M = 3 is fewer rows than 5 threads and not a multiple of 2; M = 7 is
    # not a multiple of either.
    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize("M", [3, 7])
    def test_row_split_stages_are_bitwise_serial(self, threads, M):
        # freq_channel equals the one-shot transform of all rows.
        rng = np.random.default_rng(35)
        taps = random_taps(rng, 5, M, 2)
        x = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        y = rng.standard_normal((M, 300)) + 1j * rng.standard_normal((M, 300))
        spec, scale = design_quantizer(3, 1.0), rng.uniform(0.5, 2.0, M)

        def stages():
            in_place = y.copy()
            quantize(in_place, spec, scale, out=in_place)
            return (freq_channel(taps, 40), convolve_transmit(taps, x),
                    quantize(y, spec, scale), in_place)

        assert _pool._split(M, y.nbytes) == [(0, M)]  # serial below the floor
        serial = stages()
        with pool_threads(threads):
            jobs = 1 if threads == 1 else min(_pool._JOBS_PER_THREAD * threads, M)
            assert len(_pool._split(M, y.nbytes)) == jobs
            split = stages()
        for a, b in zip(serial, split):
            np.testing.assert_array_equal(b, a)
        np.testing.assert_array_equal(serial[3], serial[2])
        one_shot = np.fft.fft(np.ascontiguousarray(taps.taps.transpose(1, 2, 0)), n=40, axis=-1)
        np.testing.assert_array_equal(serial[0], one_shot)

    @pytest.mark.parametrize(
        "module, job", [(channel, "_transform_taps"), (channel, "_inverse_rows"),
                        (quant, "_quantize_rows"), (fde, "_transform_rows"),
                        (fde, "_solve_subbands")],
    )
    def test_row_job_exception_propagates(self, monkeypatch, module, job):
        # The job that ends at the last row (M = 4) or subband (N_b = 16) fails.
        rng = np.random.default_rng(36)
        taps = random_taps(rng, 2, 4, 2)
        x = np.ones((2, 64), dtype=complex)
        original = getattr(module, job)
        last = 16 if job == "_solve_subbands" else 4

        def fail_last(*args):
            if args[-1] == last:
                raise RuntimeError("row job failed")
            original(*args)

        monkeypatch.setattr(module, job, fail_last)
        bm = bussgang_model(taps, 0.2, 1.0, 1.0)

        def stream():
            r, cfg = np.ones((4, 16), dtype=complex), FdeConfig(block_len=16, overlap=2)
            return equalize_stream(r, taps, [bm], cfg)

        calls = {
            "_transform_taps": lambda: freq_channel(taps, 16),
            "_inverse_rows": lambda: convolve_transmit(taps, x),
            "_quantize_rows": lambda: quantize(x.repeat(2, axis=0), design_quantizer(1, 1.0)),
        }
        with pool_threads(2, chunk_bytes=3 * 4 * 16):
            with pytest.raises(RuntimeError, match="row job failed"):
                calls.get(job, stream)()


class TestOneBlockStream:
    def test_peak_memory_below_the_bank(self, monkeypatch):
        # tracemalloc counts numpy's buffers.  Explicit (N_b, K, M) filters
        # of this stream would be 32 MiB.  The bank of N_b subbands is built
        # before tracing, and the stream holds the block's forward transform
        # (16 MiB), both models' estimates (2 MiB) and the copy it returns
        # (2 MiB), and one chunk's products and temporaries (under 2 MiB).
        rng = np.random.default_rng(33)
        M, K, L, N_b = 32, 2, 15, 32768
        taps = random_taps(rng, L, M, K)
        bm = bussgang_model(taps, 0.3, 1.0, 0.5)
        cfg = FdeConfig(block_len=N_b, overlap=L)
        r = rng.standard_normal((M, N_b)) + 1j * rng.standard_normal((M, N_b))
        wf = bussgang_model(taps, 0.0, 1.0, 0.5)
        monkeypatch.setattr(_pool, "_threads", 1)
        bank = build_filter_bank(taps, [wf, bm], cfg)
        tracemalloc.start()
        try:
            est = overlap_save_stream(r, bank, cfg)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.shape == (2 * K, N_b)
        assert peak < N_b * K * M * 16
        transform, estimates = M * N_b * 16, 2 * K * N_b * 16
        assert peak < transform + 2 * estimates + fde._CHUNK_BYTES

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_matches_bank_and_dense_oracle(self, K, rho):
        # On circulant data the one-block stream is the dense Wiener filter;
        # on any stream it is the textbook filters', up to rounding.
        rng = np.random.default_rng(38 + K)
        M, L, N_b = 5, 3, 24
        taps = random_taps(rng, L, M, K)
        bm = bussgang_model(taps, rho, 0.7, 1.3)
        wf = bussgang_model(taps, 0.0, 0.7, 1.3)
        cfg = FdeConfig(block_len=N_b, overlap=L)
        subbands = freq_channel(taps, N_b)
        cir = build_block_circulant(taps, N_b, rho)
        x = rng.standard_normal(K * N_b) + 1j * rng.standard_normal(K * N_b)
        r = cir @ x + 0.1 * (rng.standard_normal(M * N_b) + 1j * rng.standard_normal(M * N_b))
        block = r.reshape(M, N_b, order="F")  # newest-first columns
        est = equalize_stream(block[:, ::-1], taps, [bm, wf], cfg)
        dense = time_domain_wf(r, cir, bm)
        solved = est[0][:, ::-1].reshape(-1, order="F")
        assert np.linalg.norm(solved - dense) <= RTOL * np.linalg.norm(dense)
        expected = np.stack([oracle_block(block, model_filters(subbands, m)) for m in (bm, wf)])
        assert_close(est, expected[..., ::-1])

    def test_rejects_mismatched_inputs(self):
        rng = np.random.default_rng(34)
        taps = random_taps(rng, 2, 4, 2)
        bm = bussgang_model(taps, 0.2, 1.0, 1.0)
        cfg = FdeConfig(block_len=16, overlap=2)
        r = np.ones((4, 16), dtype=complex)
        with pytest.raises(DimensionError):
            equalize_stream(r[:3], taps, [bm], cfg)
        with pytest.raises(DimensionError):
            equalize_stream(r[:, :2], taps, [bm], FdeConfig(block_len=2, overlap=0))
        short = dataclasses.replace(bm, eff_noise_diag=bm.eff_noise_diag[:-1])
        for models in ([], [bm, short]):
            with pytest.raises(DimensionError, match="model|per antenna"):
                build_filter_bank(taps, models, cfg)


class TestBankMismatch:
    def test_stream_config_must_match_the_bank(self):
        # A bank for N_b = 64 under a config of N_b = 32 would equalize
        # blocks of 64 advancing by the config's step.
        rng = np.random.default_rng(60)
        taps = random_taps(rng, 3, 4, 2)
        bank = build_filter_bank(taps, [bussgang_model(taps, 0.2, 1.0, 1.0)], FdeConfig(64, 3))
        r = rng.standard_normal((4, 500)) + 1j * rng.standard_normal((4, 500))
        with pytest.raises(DimensionError, match="N_b = 64 != config 32"):
            overlap_save_stream(r, bank, FdeConfig(32, 3))

    def test_short_spectra_take_one_block(self):
        # A one-block bank for N_b = 200 holds spectra of 64: a stream of
        # more than one block is refused.
        rng = np.random.default_rng(61)
        taps = random_taps(rng, 3, 4, 2)
        cfg = FdeConfig(200, 3)
        bank = fde.build_one_block_bank(taps, [bussgang_model(taps, 0.2, 1.0, 1.0)], cfg)
        assert bank.subbands.shape[-1] == 64
        r = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
        with pytest.raises(DimensionError, match="one-block bank for N_b = 200"):
            overlap_save_stream(r, bank, cfg)

    def test_block_needs_spectra_and_factors_of_one_length(self):
        # The same bank's spectra of 64 and factors of 200 make no block filter.
        rng = np.random.default_rng(62)
        taps = random_taps(rng, 3, 4, 2)
        cfg = FdeConfig(200, 3)
        bank = fde.build_one_block_bank(taps, [bussgang_model(taps, 0.2, 1.0, 1.0)], cfg)
        with pytest.raises(DimensionError, match="spectra of length 64 but factors of 200"):
            equalize_block(np.ones((4, 64), dtype=complex), bank)
