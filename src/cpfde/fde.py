"""Frequency-domain block equalization with overlap-save streaming.

The block-circulant channel approximation is diagonalized subband by subband.
Per subband and Bussgang model, the MMSE filter
(g^2 H^H D^-1 H + I/sigma_x^2)^-1 g H^H D^-1 is kept in factored form: the
LDL^H factors of its K x K Gram matrix.  That Gram matrix is the transform of
the taps' weighted autocorrelation, which has 2L+1 lags, so every N_b's
factors come from those lags.  A received block is transformed row by row,
its matched-filter output g H^H D^-1 R_f is formed antenna-major for all
models at once, each subband's system is solved with the stored factors, and
the estimates are transformed back.  A dense time-domain Wiener filter is
provided as an oracle for small instances.

A stream goes build_filter_bank, then overlap_save_stream, which calls
equalize_block per stack of consecutive blocks.  A stack holds as many blocks
as one subband chunk (_CHUNK_BYTES) holds: 21 at the desk N_b = 64, one from
paper N_b = 1024 up.  Each block of a stack is computed as in a call of its
own, so its estimates are bitwise the same; a stack only saves numpy's
per-call overhead.  equalize_stream chains the two; the sweep builds one bank
per N_b for the models of all its Eb/N0 points and streams each point through
FilterBank.subset, and the bathtub profile calls build_filter_bank and
equalize_block, in the same stacks, itself.

A stream of one block, the paper's N_b = T_c, gets its bank from
build_one_block_bank, which holds the taps' spectra at convolve_transmit's
short block instead of the N_b subbands (twice the stream).  Its matched
filter is a circular correlation with the L+1 taps, which overlap-save forms
(Falconer et al., IEEE Commun. Mag. 2002): a multi-block pass over the same
stream forms it on the way, keeping its blocks' unsolved products in a
MatchedFilter, and otherwise overlap_save_stream forms it at that short
block.  The rows are then solved on the N_b subbands.  Both banks agree with
explicit per-subband filters F^H G_f F to a relative 1e-12 (rounding: the
arithmetic is ordered differently).

Convention: blocks are newest-sample-first (column 0 holds time n).  With that
ordering a delay by l taps is a cyclic shift by +l columns, so the unitary
transform that diagonalizes the circulant onto the tap-wise DFT subbands is
F[a, b] = exp(+2j pi a b / N) / sqrt(N); its conjugate maps back to time.  In
time order the same filter is ifft(G_f fft(r)), which is how blocks are
computed.

Large blocks and overlap-save streams are cut into subband chunks that fit
in cache, antenna rows or ranges of stacks, and mapped over the thread pool
of _pool (numpy's FFT, matmul and elementwise arithmetic release the GIL).
The chunks do not depend on the thread count, so results are bit-identical
for any thread count.  A pool job never starts a pool of its own.

A Gram matrix that is singular to working precision (a pivot of its LDL^H
factorization at most _PIVOT_RTOL times its diagonal entry, as with more users
than antennas at a very high Eb/N0) raises ConfigurationError, rather than
giving NaN or rounding noise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ._pool import _map, _split
from .channel import ChannelTaps, _next_pow2, _short_fft_len, freq_channel
from .errors import ConfigurationError, DimensionError
from .quant import BussgangModel

DENSE_SIZE_CAP = 4096

# Subbands are equalized in chunks of about this many bytes of temporaries, a
# stack of blocks fills at most one chunk, and a bank factors as many models'
# Gram rows at once as one chunk holds; a call of one chunk runs in the
# calling thread.
_CHUNK_BYTES = 2 << 20
# A Gram matrix is singular to working precision when an LDL^H pivot falls to
# this fraction of its diagonal entry: its solve would keep fewer than about
# four significant digits.
_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class FdeConfig:
    """Block length and overlap of the equalizer."""

    block_len: int
    overlap: int

    def __post_init__(self):
        if self.overlap < 0:
            raise ConfigurationError("overlap must be >= 0")
        if self.block_len < self.overlap + 1:
            raise ConfigurationError(
                f"block_len={self.block_len} must be >= overlap+1={self.overlap + 1}"
            )


@dataclass(frozen=True)
class FilterBank:
    """The per-subband MMSE filters of Q Bussgang models, in factored form.

    subbands are the gain-free (M, K, n) tap spectra of the matched filter:
    freq_channel's at N_b, or for a stream of one block at the short length
    of build_one_block_bank; weights (Q, M) hold each model's gain over its
    effective-noise diagonal, g / D; mult (K(K-1)/2, Q, N_b) and rpiv
    (K, Q, N_b) hold the LDL^H multipliers L[i, k] (k < i, in the order k,
    then i) and the reciprocal pivots 1 / d_k of every Gram matrix
    g^2 H^H D^-1 H + I/sigma_x^2 = L diag(d) L^H.  With keep_matched,
    equalize_block follows each block's Q*K estimate rows with its Q*K
    matched-filter rows g H^H D^-1 r, transformed back like them.
    """

    subbands: np.ndarray
    weights: np.ndarray
    mult: np.ndarray
    rpiv: np.ndarray
    keep_matched: bool = False

    def subset(self, lo: int, hi: int) -> FilterBank:
        """The bank of models lo..hi-1 alone, on views of this bank's arrays."""
        return replace(
            self, weights=self.weights[lo:hi], mult=self.mult[:, lo:hi], rpiv=self.rpiv[:, lo:hi]
        )


class MatchedFilter:
    """Room for a stream's matched-filter rows, handed from a multi-block pass
    to a one-block bank.

    rows is an empty (n_rows, T) array until overlap_save_stream, with a bank
    of N_b subbands and this overlap, writes the n_rows = Q*K rows
    g H^H D^-1 r of a T-sample stream there (its circular correlation with
    the taps).  A one-block bank of the same models and overlap then solves
    them in place into its estimates.
    """

    def __init__(self, n_rows: int, T: int, overlap: int):
        self.rows = np.empty((n_rows, T), dtype=np.complex128)
        self.overlap = overlap


def unitary_dft_matrix(n: int) -> np.ndarray:
    """The unitary transform F used throughout (positive-exponent kernel)."""
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def build_filter_bank(
    taps: ChannelTaps, models: Sequence[BussgangModel], cfg: FdeConfig
) -> FilterBank:
    """The factored MMSE filters of every model on the N_b = cfg.block_len subbands.

    Model q's filter is that of its gain times the gain-free subbands
    freq_channel(taps, N_b), its effective-noise diagonal and its transmit
    power; the rho_q = 0 model gives the quantization-unaware filter.
    """
    return _lag_bank(taps, models, cfg.block_len, cfg.block_len)


def build_one_block_bank(
    taps: ChannelTaps, models: Sequence[BussgangModel], cfg: FdeConfig
) -> FilterBank:
    """build_filter_bank's filters for a stream of one block (N_b = T), on short spectra.

    The spectra are the taps' at _one_block_spectra_len(cfg.overlap, N_b),
    so that overlap_save_stream never forms the N_b subbands; cfg.overlap
    must cover the channel memory L.
    """
    N_b = cfg.block_len
    if cfg.overlap < taps.memory:
        raise ConfigurationError(
            f"overlap {cfg.overlap} must cover the channel memory L={taps.memory}"
        )
    return _lag_bank(taps, models, N_b, _one_block_spectra_len(cfg.overlap, N_b))


def _one_block_spectra_len(overlap: int, N_b: int) -> int:
    """A one-block bank's spectra length: its short block, at most N_b."""
    return min(_short_fft_len(overlap, N_b), N_b)


def _lag_len(L: int) -> int:
    """The transform length of the taps' 2L+1 weighted-autocorrelation lags."""
    return _next_pow2(2 * L + 1)


def _lag_bank(taps: ChannelTaps, models: Sequence[BussgangModel], N_b: int, n_spec: int):
    """The bank of every model's Gram factors at N_b subbands and the taps' spectra at n_spec.

    The Gram matrix g^2 H^H D^-1 H is the transform of the taps' weighted
    autocorrelation, which has the 2L+1 lags -L..L: the taps' spectra at a
    power of 2 of at least 2L+1 points give the Gram sums of _gram_sums,
    whose inverse transforms are those lags.  A group of models at a time,
    as many as _CHUNK_BYTES of (K(K+1)/2, N_b) rows hold, the lags go
    circularly into rows of N_b (added where they alias, when N_b < 2L+1),
    which are transformed, loaded with 1 / sigma_x^2 and factored.
    """
    subbands = freq_channel(taps, n_spec)
    L, M, K = taps.memory, taps.n_rx, taps.n_users
    weights, gram_weights, loads = _model_weights(models, M)
    rows = np.ascontiguousarray(taps.taps.transpose(1, 2, 0))
    n = _lag_len(L)
    lags = np.fft.ifft(_gram_sums(np.fft.fft(rows, n, axis=-1), gram_weights), axis=-1)
    Q = len(models)
    mult = np.empty((K * (K - 1) // 2, Q, N_b), dtype=np.complex128)
    rpiv = np.empty((K, Q, N_b))
    pairs = [(i, j) for i in range(K) for j in range(i, K)]
    group = max(1, _CHUNK_BYTES // (len(pairs) * N_b * 16))
    gram = np.empty((min(group, Q), len(pairs), N_b), dtype=np.complex128)
    for lo in range(0, Q, group):
        hi = min(lo + group, Q)
        g = gram[: hi - lo]
        g[..., L + 1 :] = 0
        g[..., : L + 1] = lags[lo:hi, :, : L + 1]
        g[..., N_b - L :] += lags[lo:hi, :, n - L :]
        np.fft.fft(g, axis=-1, out=g)
        entry = {ij: g[:, p] for p, ij in enumerate(pairs)}
        for k in range(K):
            entry[k, k].real += loads[lo:hi, None]
        _ldl_factor([[entry.get((i, j)) for j in range(K)] for i in range(K)],
                    mult[:, lo:hi], rpiv[:, lo:hi])
    return FilterBank(subbands, weights, mult, rpiv)


def _model_weights(models: Sequence[BussgangModel], M: int):
    """The (Q, M) weights g / D and g^2 / D and the (Q,) loads 1 / sigma_x^2."""
    if not models:
        raise DimensionError("at least one Bussgang model is required")
    if any(np.shape(bm.eff_noise_diag) != (M,) for bm in models):
        raise DimensionError(f"effective-noise diagonals must hold one entry per antenna ({M})")
    diags = np.array([bm.eff_noise_diag for bm in models], dtype=np.float64)
    if np.any(diags <= 0):
        raise ConfigurationError("effective-noise diagonal must be strictly positive")
    gains = np.array([bm.gain for bm in models], dtype=np.float64)[:, None]
    loads = 1.0 / np.array([bm.sigma_x2 for bm in models], dtype=np.float64)
    return gains / diags, gains**2 / diags, loads


def _subband_chunks(N_b: int, entries: int) -> list[tuple[int, int]]:
    """(lo, hi) subband ranges of about _CHUNK_BYTES of entries complex values each."""
    step = max(1, _CHUNK_BYTES // (entries * 16))
    return [(lo, min(lo + step, N_b)) for lo in range(0, N_b, step)]


def _gram_sums(H, weights) -> np.ndarray:
    """The (Q, K(K+1)/2, n) sums over the antennas of weights * conj(H_i) H_j (i <= j),
    for (M, K, n) spectra H and their (Q, M) weights g^2 / D: the products are
    formed antenna-major once, and one real product sums them for all models."""
    M, K, n = H.shape
    Hc = np.conjugate(H)
    pairs = [(i, j) for i in range(K) for j in range(i, K)]
    P = np.empty((M, len(pairs), n), dtype=np.complex128)
    for p, (i, j) in enumerate(pairs):
        np.multiply(Hc[:, i], H[:, j], out=P[:, p])
    sums = (weights @ P.reshape(M, -1).view(np.float64)).view(np.complex128)
    return sums.reshape(len(weights), len(pairs), n)


def _ldl_factor(A, mult, rpiv) -> None:
    """Factor the Hermitian systems A = L D L^H by elimination without pivoting.

    A[i][j] (i <= j) holds entry (i, j) of every system, as arrays over any
    batch shape, so each step runs vectorized over the batch; A is
    overwritten and the diagonal's imaginary parts are not read.  The
    multipliers L[i, k] (k < i, in the order k, then i) go to mult and the
    reciprocal pivots to rpiv.  Raises ConfigurationError if a pivot is at most _PIVOT_RTOL
    times its diagonal entry (or not a number).
    """
    K = len(A)
    diag = [A[k][k].real for k in range(K)]  # views: the pivots, in place
    floor = [_PIVOT_RTOL * d for d in diag]
    p = 0
    for k in range(K):
        if not np.all(diag[k] > floor[k]):
            raise ConfigurationError(
                f"the {K} x {K} Gram matrix is singular to working precision"
                " (for example more users than antennas at a very high Eb/N0)"
            )
        np.divide(1.0, diag[k], out=rpiv[k])
        for i in range(k + 1, K):
            f = mult[p]
            np.multiply(A[k][i].conj(), rpiv[k], out=f)
            diag[i] -= (f * A[k][i]).real
            for j in range(i + 1, K):
                A[i][j] -= f * A[k][j]
            p += 1


def _ldl_solve(mult, rpiv, b) -> None:
    """Solve L D L^H x = b in place, with the factors of _ldl_factor.

    b is a (K, ...) array over the factors' batch shape.
    """
    K = len(b)
    pairs = [(k, i) for k in range(K) for i in range(k + 1, K)]
    for p, (k, i) in enumerate(pairs):
        b[i] -= mult[p] * b[k]
    b *= rpiv
    for p, (k, i) in reversed(list(enumerate(pairs))):
        b[k] -= mult[p].conj() * b[i]


def equalize_stream(
    r: np.ndarray, taps: ChannelTaps, models: Sequence[BussgangModel], cfg: FdeConfig
) -> np.ndarray:
    """(len(models), K, T) MMSE estimates of an M x T stream, one K x T per model."""
    bank = build_filter_bank(taps, models, cfg)
    return overlap_save_stream(r, bank, cfg)[0].reshape(len(models), taps.n_users, -1)


def equalize_block(R: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Equalize one M x N_b receive block (columns newest-first) to Q*K x N_b.

    Row q*K + k holds user k's estimates under model q of the bank.  A
    (B, M, N_b) stack of blocks gives (B, Q*K, N_b), each block's estimates
    bitwise those of its own call.
    """
    R = np.asarray(R, dtype=np.complex128)
    M, _, N_b = bank.subbands.shape
    if bank.rpiv is not None and bank.rpiv.shape[-1] != N_b:
        raise DimensionError(
            f"bank spectra of length {N_b} but factors of {bank.rpiv.shape[-1]}:"
            " a one-block bank equalizes only through overlap_save_stream"
        )
    if R.ndim not in (2, 3) or R.shape[-2:] != (M, N_b):
        raise DimensionError(
            f"receive block must be {M} x {N_b} or a stack of them, got {R.shape}"
        )
    r = R.reshape(-1, M, N_b)[..., ::-1]
    X = _equalize_block(r, bank, pooled=True)[..., ::-1]
    return X if R.ndim == 3 else X[0]


def _equalize_job_block(R, bank):
    # equalize_block's arithmetic inside a pool job, which starts no pool.
    return _equalize_block(R[..., ::-1], bank, pooled=False)[..., ::-1]


def _stack_len(M: int, K: int, N_b: int) -> int:
    """Blocks per equalize_block stack: as many as fit in one subband chunk."""
    return max(1, _CHUNK_BYTES // ((K + 1) * M * N_b * 16))


def _equalize_block(r, bank: FilterBank, pooled: bool) -> np.ndarray:
    """(B, Q*K, N_b) estimates, in time order, of the time-order (B, M, N_b) blocks r.

    A bank without factors (mult None) gives the matched-filter outputs
    instead, transformed back to time like the estimates, and a keep_matched
    bank gives both, in (B, 2*Q*K, N_b).  Pooled, a stack of
    _PARALLEL_MIN_BYTES or more splits its transform rows and its subband
    chunks over the pool.
    """
    M, K, N_b = bank.subbands.shape
    B = len(r)
    Rc = np.empty((B, M, N_b), dtype=np.complex128)
    Q = len(bank.weights)
    X = np.empty((B, 2 * Q if bank.keep_matched else Q, K, N_b), dtype=np.complex128)
    chunks = [
        (bank.subbands, Rc, bank.weights, X, bank.mult, bank.rpiv, lo, hi)
        for lo, hi in _subband_chunks(N_b, (K + 1) * M)
    ]
    rows = _split(M, r.nbytes) if pooled else [(0, M)]
    if len(rows) > 1:
        _map(_transform_rows, [(r, Rc, lo, hi) for lo, hi in rows])
        _map(_solve_subbands, chunks)
    else:
        _transform_rows(r, Rc, 0, M)
        for job in chunks:
            _solve_subbands(*job)
    X = X.reshape(B, -1, N_b)
    np.fft.ifft(X, axis=-1, out=X)
    return X


def _transform_rows(r, Rc, lo, hi) -> None:
    """Write the conjugated transform of rows lo..hi-1 of every block of r into Rc."""
    np.fft.fft(r[:, lo:hi], axis=-1, out=Rc[:, lo:hi])
    np.conjugate(Rc[:, lo:hi], out=Rc[:, lo:hi])


def _solve_subbands(H, Rc, weights, X, mult, rpiv, lo, hi) -> None:
    """Write every model's matched-filter output on subbands lo..hi-1 to X
    (B, Q, K, N_b) and, with mult, solve it with the factors mult and rpiv.
    An X of (B, 2Q, K, N_b) keeps a copy of the unsolved outputs in its last
    Q models.

    H holds the (M, K, N_b) subbands, Rc (B, M, N_b) the conjugated transforms
    of B blocks' rows and weights the (Q, M) g / D.  The products H conj(R_f),
    block-major and then antenna-major, are shared by all models; per block,
    one real product with the weights sums them over the antennas.
    """
    H = H[:, :, lo:hi]
    M, K, n = H.shape
    Q = len(weights)
    P = H * Rc[:, :, None, lo:hi]
    b = X[:, :Q, :, lo:hi]
    S = (weights @ P.reshape(len(P), M, -1).view(np.float64)).view(np.complex128)
    np.conjugate(S.reshape(b.shape), out=b)
    if X.shape[1] > Q:
        X[:, Q:, :, lo:hi] = b
    if mult is not None:
        _ldl_solve(mult[..., lo:hi], rpiv[:, None, :, lo:hi], b.transpose(2, 0, 1, 3))


def overlap_save_stream(
    r: np.ndarray, bank: FilterBank, cfg: FdeConfig, matched: MatchedFilter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Equalize an M x T_c stream block-wise with overlap and edge discard.

    Consecutive blocks advance by N_b - L'; from each equalized block the L'
    newest estimates, which carry the post-filter interference of the causal
    channel, are dropped and the rest is emitted.  The last block also keeps
    its newest samples (the end of the stream); the returned edge mask flags
    them.  A final block that would run past the stream is clamped to end with
    it and emits only the positions not yet written.  Returns (Q*K x T_c
    estimates, rows as for equalize_block, and a length-T_c boolean edge mask).

    The blocks go to equalize_block in stacks of consecutive blocks, views of
    the stream (the clamped final block alone); the stream is not written.
    A bank of build_one_block_bank whose spectra are shorter than N_b takes
    a stream of one block (N_b = T) only.  It solves the stream's
    matched-filter rows in place into its estimates: rows that a pass of its
    short spectra forms (_matched_filter), or matched's.  With matched, any
    stream of one block takes that route, and a longer one writes those rows
    to matched in its own pass: its blocks' unsolved products, transformed
    back with the estimates.
    """
    r = np.asarray(r, dtype=np.complex128)
    M, K, n_spec = bank.subbands.shape
    if r.ndim != 2 or r.shape[0] != M:
        raise DimensionError(f"stream must be M x T with M={M}")
    N_b = cfg.block_len
    if bank.rpiv.shape[-1] != N_b:
        raise DimensionError(f"bank factors for N_b = {bank.rpiv.shape[-1]} != config {N_b}")
    T = r.shape[1]
    if T < N_b:
        raise ConfigurationError(f"stream length {T} shorter than block length {N_b}")
    rows = len(bank.weights) * K
    if matched is not None and (matched.rows.shape, matched.overlap) != ((rows, T), cfg.overlap):
        raise DimensionError(
            f"matched-filter rows {matched.rows.shape} at overlap {matched.overlap} for a"
            f" {rows} x {T} stream at overlap {cfg.overlap}"
        )
    edge = np.zeros(T, dtype=bool)
    edge[T - cfg.overlap :] = True
    if T == N_b and (n_spec != N_b or matched is not None):
        return _equalize_one_block(r, bank, cfg, matched), edge
    if n_spec != N_b:
        raise DimensionError(f"a one-block bank for N_b = {N_b} got a stream of {T}")
    out = np.empty((rows, T), dtype=np.complex128)
    if matched is None:
        _overlap_save(r, bank, N_b - cfg.overlap, out)
    else:
        _matched_filter(r, bank, cfg.overlap, matched.rows, out)
    return out, edge


def _equalize_one_block(r, bank: FilterBank, cfg: FdeConfig, matched) -> np.ndarray:
    """The Q*K x N_b estimates of an M x N_b stream of one block, from a bank of short spectra.

    The matched-filter rows are matched's, or else _matched_filter forms them
    by overlap-save at the bank's short length (Falconer et al., IEEE Commun.
    Mag. 2002).  They are transformed, solved with the bank's factors and
    transformed back, in place.
    """
    K = bank.subbands.shape[1]
    N_b = cfg.block_len
    if matched is None:
        X = np.empty((len(bank.weights) * K, N_b), dtype=np.complex128)
        _matched_filter(r, bank, cfg.overlap, X)
    else:
        X = matched.rows
    np.fft.fft(X, axis=-1, out=X)
    _ldl_solve(bank.mult, bank.rpiv, X.reshape(-1, K, N_b).transpose(1, 0, 2))
    np.fft.ifft(X, axis=-1, out=X)
    return X


def _matched_filter(r, bank: FilterBank, overlap: int, rows, out=None) -> None:
    """Write the matched-filter rows of the stream r, its circular correlation
    with the taps, to rows by overlap-save with the bank's spectra; with out,
    the same pass writes the bank's estimates to out.

    A block of n = step + overlap samples gives the correlation at its first
    step positions.  The blocks within the stream (_overlap_save, which keeps
    their unsolved products for rows) give every position but the last
    overlap.  The c blocks that wrap round the end, c step >= overlap, give
    the last c step: they read the stream's tail, then its first overlap
    samples.
    """
    n = bank.subbands.shape[-1]
    step, T = n - overlap, r.shape[1]
    unsolved = replace(bank, mult=None, rpiv=None)
    if out is None:
        _overlap_save(r, unsolved, step, rows)
    else:
        _overlap_save(r, replace(bank, keep_matched=True), step, out, rows)
    c = -(-overlap // step)
    if c:
        wrapped = np.concatenate([r[:, T - c * step :], r[:, :overlap]], axis=1)
        blocks = np.lib.stride_tricks.sliding_window_view(wrapped, n, axis=1)[:, ::step]
        mf = _equalize_block(blocks.transpose(1, 0, 2), unsolved, pooled=False)
        rows[:, T - c * step :] = mf[..., :step].transpose(1, 0, 2).reshape(len(rows), -1)


def _overlap_save(r, bank, step, out, matched=None) -> None:
    """Write to out the positions that r's blocks at multiples of step emit and,
    where these stop short of the end, the clamped final block's; a
    keep_matched bank writes its matched-filter rows at the same positions to
    matched.  The stacks run through equalize_block, or in contiguous ranges
    through _equalize_job_block on the pool.
    """
    M, K, N_b = bank.subbands.shape
    T = r.shape[1]
    n = (T - N_b) // step + 1  # regular blocks
    size = _stack_len(M, K, N_b)
    stacks = [(j * step, min(size, n - j)) for j in range(0, n, size)]  # (start, blocks)
    if (T - N_b) % step:
        stacks.append((T - N_b, 1))  # clamped final block
    windows = np.lib.stride_tricks.sliding_window_view(r, N_b, axis=1)
    parts = _split(len(stacks), r.nbytes)
    if len(parts) == 1:
        _equalize_stacks(equalize_block, windows, bank, step, stacks, out, matched)
    else:
        # Contiguous stack ranges write disjoint stretches of out (and matched).
        jobs = [(_equalize_job_block, windows, bank, step, stacks[lo:hi], out, matched)
                for lo, hi in parts]
        _map(_equalize_stacks, jobs)


def _equalize_stacks(equalize, windows, bank, step, stacks, out, matched=None) -> None:
    """Equalize stacks of blocks and write the stream positions they emit to out,
    and with matched the positions of the matched-filter rows that follow the
    estimate rows of a keep_matched bank.

    windows (M, T - N_b + 1, N_b) are the stream's blocks in time order;
    stacks are (s, B) for B blocks starting at s, s + step, ...  Block j of
    the regular blocks emits positions j*step .. j*step + step - 1, and the
    final block, regular or clamped, every position after the regular ones.
    """
    last = windows.shape[1] - 1
    n = last // step + 1  # regular blocks
    targets = [out] if matched is None else [out, matched]
    for s, B in stacks:
        blocks = windows[:, s : s + (B - 1) * step + 1 : step].transpose(1, 0, 2)
        est = equalize(blocks[..., ::-1], bank)[..., ::-1]  # newest-first in
        for dst, e in zip(targets, np.split(est, len(targets), axis=1)):
            if s % step == 0:
                kept = dst[:, : n * step].reshape(len(dst), n, step)
                kept[:, s // step : s // step + B] = e[..., :step].transpose(1, 0, 2)
            if s + (B - 1) * step == last:
                dst[:, n * step :] = e[-1, :, n * step - last :]


def time_domain_wf(r_stacked: np.ndarray, H_cir: np.ndarray, bm: BussgangModel) -> np.ndarray:
    """Dense time-domain Wiener filter oracle on the stacked M*N_b receive vector.

    Solves (H^H R^-1 H + I/sigma_x^2) x = H^H R^-1 r with R the block-constant
    diagonal lift of the per-antenna effective-noise diagonal and sigma_x^2 the
    model's transmit power.  Small instances only (M*N_b at most DENSE_SIZE_CAP).
    """
    H = np.asarray(H_cir)
    r = np.asarray(r_stacked, dtype=np.complex128).ravel()
    if H.shape[0] != r.size:
        raise DimensionError("stacked receive vector does not match H_cir rows")
    if H.shape[0] > DENSE_SIZE_CAP:
        raise DimensionError(f"dense instance {H.shape[0]} exceeds cap {DENSE_SIZE_CAP}")
    M = bm.eff_noise_diag.shape[0]
    if H.shape[0] % M:
        raise DimensionError("H_cir rows not a multiple of the antenna count")
    N_b = H.shape[0] // M
    diag = np.tile(np.asarray(bm.eff_noise_diag, dtype=np.float64), N_b)
    Hh_Rinv = H.conj().T * (1.0 / diag)[None, :]
    gram = Hh_Rinv @ H + (1.0 / bm.sigma_x2) * np.eye(H.shape[1])
    return np.linalg.solve(gram, Hh_Rinv @ r)

