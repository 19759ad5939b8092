"""Frequency-domain block equalization with overlap-save streaming.

The block-circulant channel approximation is diagonalized subband-by-subband,
a K x M MMSE filter is precomputed per subband for the coherence block, and
received blocks are equalized through a row-wise FFT / per-subband filter /
row-wise inverse FFT pipeline.  A dense time-domain Wiener filter is provided
as an oracle for small instances.

Convention: blocks are newest-sample-first (column 0 holds time n).  With that
ordering a delay by l taps is a cyclic shift by +l columns, so the unitary
transform that diagonalizes the circulant onto the tap-wise DFT subbands is
F[a, b] = exp(+2j pi a b / N) / sqrt(N); its conjugate maps back to time.

Large filter-bank builds, one-block streams and overlap-save streams are cut
into chunks that fit in cache, or into antenna rows, and mapped over the
thread pool of _pool (numpy's FFT, matmul, einsum and inv release the GIL).
The chunks do not depend on the thread count, so results are bit-identical
for any thread count.

equalize_stream is the sweep's entry point: it equalizes one stream with the
filters of several Bussgang models (WF and WF_Q) and transforms the stream
once for all of them.  A stream of exactly one block (T = N_b, the paper's
N_b = T_c) builds no filters at all: per subband it forms the matched-filter
output g H^H D^-1 R and the Gram matrix g^2 H^H D^-1 H + I/sigma_x^2 of every
model and solves the K x K system, vectorized over the subbands of a chunk.
Its estimates agree with the bank's to a relative 1e-12 (rounding: the
arithmetic is ordered differently).  Any other stream builds each model's
bank; small banks are applied side by side, as one bank of more users, in one
overlap-save pass, and a large one alone.  The bathtub profile calls
build_filter_bank and equalize_block itself.

Both routes reject a Gram matrix that is singular to working precision (a
pivot of its LDL^H factorization at most _PIVOT_RTOL times its diagonal entry,
as with more users than antennas at a very high Eb/N0) with
ConfigurationError, rather than return NaN or rounding noise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._pool import _map, _split
from .errors import ConfigurationError, DimensionError
from .quant import BussgangModel

DENSE_SIZE_CAP = 4096

# Subbands are equalized in chunks of about this many bytes: of filters on
# the bank route, of the temporaries per subband on the one-block route; a
# call of one chunk runs in the calling thread.
_CHUNK_BYTES = 2 << 20
# A multi-block stream is equalized with all models' banks side by side, one
# transform per block for all of them, while each bank is smaller than this.
# A larger bank (8 MB at paper scale, N_b = 4096) is applied alone: holding
# both banks and their concatenation raised paper-scale peak RSS by about
# 25 MB to save about 2% of the time.
_SHARED_BANK_BYTES = 4 << 20
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


def unitary_dft_matrix(n: int) -> np.ndarray:
    """The unitary transform F used throughout (positive-exponent kernel)."""
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def build_filter_bank(subbands: np.ndarray, bm: BussgangModel, cfg: FdeConfig) -> np.ndarray:
    """Per-subband MMSE filters G_fi = (H^H D^-1 H + I/sigma_x^2)^-1 H^H D^-1, (N_b, K, M).

    H is the model's gain times the gain-free (N_b, M, K) subbands of
    freq_channel, D the model's effective-noise diagonal and sigma_x^2 its
    transmit power.  The rho_q = 0 model gives the quantization-unaware filter.
    """
    inv_diag = _inverse_noise_diag(subbands, bm, cfg)
    N_b, M, K = subbands.shape
    G = np.empty((N_b, K, M), dtype=np.complex128)
    _map(
        _build_filters,
        [
            (subbands[lo:hi], bm.gain, inv_diag, bm.sigma_x2, G[lo:hi])
            for lo, hi in _subband_chunks(N_b, K * M)
        ],
    )
    return G


def _inverse_noise_diag(subbands, bm: BussgangModel, cfg: FdeConfig) -> np.ndarray:
    """1 / D after checking the subbands against cfg and D for positivity."""
    if subbands.shape[0] != cfg.block_len:
        raise DimensionError(
            f"frequency channel block_len {subbands.shape[0]} != config {cfg.block_len}"
        )
    diag = np.asarray(bm.eff_noise_diag, dtype=np.float64)
    if np.any(diag <= 0):
        raise ConfigurationError("effective-noise diagonal must be strictly positive")
    return 1.0 / diag


def _subband_chunks(N_b: int, entries: int) -> list[tuple[int, int]]:
    """(lo, hi) subband ranges of about _CHUNK_BYTES of entries complex values each."""
    step = max(1, _CHUNK_BYTES // (entries * np.dtype(np.complex128).itemsize))
    return [(lo, min(lo + step, N_b)) for lo in range(0, N_b, step)]


def _build_filters(H, gain, inv_diag, sigma_x2, out) -> None:
    """Write the MMSE filters of the subbands gain * H (n, M, K) into out (n, K, M)."""
    if gain != 1.0:
        H = H * gain
    O = H.conj().transpose(0, 2, 1)  # H^H D^-1, scaled in place
    O *= inv_diag[None, None, :]
    gram = O @ H + (1.0 / sigma_x2) * np.eye(H.shape[2])[None]
    _solve_hermitian(gram.transpose(1, 2, 0).copy(), [], [])  # the singularity check
    # One batched K x K inverse serves all M right-hand sides of a subband.
    np.matmul(np.linalg.inv(gram), O, out=out)


def _solve_hermitian(A, b, x) -> None:
    """Solve the Hermitian systems A x = b by LDL^H elimination without pivoting.

    A[i][j] (i <= j) holds entry (i, j) of every system and b[i], x[i] entry
    i, as arrays over any batch shape, so each step runs vectorized over the
    batch.  The diagonal's imaginary parts are not read.  A and b are
    overwritten; with b and x empty only the pivots are checked.  Raises
    ConfigurationError if a pivot is at most _PIVOT_RTOL times its diagonal
    entry (or not a number).
    """
    K = len(A)
    diag = [A[k][k].real for k in range(K)]  # views: the pivots, in place
    floor = [_PIVOT_RTOL * d for d in diag]
    for k in range(K):
        if not np.all(diag[k] > floor[k]):
            raise ConfigurationError(
                f"the {K} x {K} Gram matrix is singular to working precision"
                " (for example more users than antennas at a very high Eb/N0)"
            )
        for i in range(k + 1, K):
            f = A[k][i].conj()
            f /= diag[k]  # L[i, k]
            diag[i] -= (f * A[k][i]).real
            for j in range(i + 1, K):
                A[i][j] -= f * A[k][j]
            if b:
                b[i] -= f * b[k]
    for k in reversed(range(len(b))):
        for j in range(k + 1, K):
            b[k] -= A[k][j] * x[j]
        np.divide(b[k], diag[k], out=x[k])


def equalize_stream(
    r: np.ndarray, subbands: np.ndarray, models: Sequence[BussgangModel], cfg: FdeConfig
) -> np.ndarray:
    """(len(models), K, T) MMSE estimates of an M x T stream, one K x T per model.

    Estimate i is what overlap_save_stream gives with the bank that
    build_filter_bank makes of subbands and models[i]: bitwise on a stream of
    several blocks, and to a relative 1e-12 on a stream of exactly one block.
    That one is transformed once and solved one subband chunk at a time for
    all models, without any (N_b, K, M) filters.  Any other stream is
    transformed once per block for all models while their banks are below
    _SHARED_BANK_BYTES each, and once per model above.
    """
    r = np.asarray(r, dtype=np.complex128)
    N_b, M, K = subbands.shape
    if r.ndim != 2 or r.shape[0] != M:
        raise DimensionError(f"stream must be M x T with M={M}")
    if r.shape[1] != cfg.block_len:
        if N_b * K * M * 16 >= _SHARED_BANK_BYTES:
            banks = (build_filter_bank(subbands, bm, cfg) for bm in models)
            return np.stack([overlap_save_stream(r, bank, cfg)[0] for bank in banks])
        # The banks side by side are one bank of len(models) * K users.
        bank = np.concatenate([build_filter_bank(subbands, bm, cfg) for bm in models], axis=1)
        return overlap_save_stream(r, bank, cfg)[0].reshape(len(models), K, -1)
    # All models' inverse noise diagonals, gains and transmit powers, stacked.
    weights = np.stack([_inverse_noise_diag(subbands, bm, cfg) for bm in models])
    gains = np.array([bm.gain for bm in models], dtype=np.float64)
    loads = 1.0 / np.array([bm.sigma_x2 for bm in models], dtype=np.float64)
    # _equalize_block on the newest-first block, solved per subband chunk.
    Rf = np.empty((M, N_b), dtype=np.complex128)
    _map(_transform_block, [(r, Rf, lo, hi) for lo, hi in _split(M, r.nbytes)])
    Xf = np.empty((len(models), K, N_b), dtype=np.complex128)
    _map(
        _solve_subbands,
        [
            (subbands[lo:hi], Rf[:, lo:hi], weights, gains, loads, Xf[..., lo:hi])
            for lo, hi in _subband_chunks(N_b, (K * (K + 1) // 2 + 2 * K) * M)
        ],
        r.nbytes,
    )
    np.fft.fft(Xf, axis=-1, out=Xf)
    Xf /= np.sqrt(N_b)
    return np.ascontiguousarray(Xf[..., ::-1])  # back to time order


def _transform_block(r, Rf, lo, hi) -> None:
    """Write the transform of rows lo..hi-1 of the block r, newest-first, into Rf."""
    np.fft.ifft(r[lo:hi, ::-1], axis=-1, out=Rf[lo:hi])
    Rf[lo:hi] *= np.sqrt(r.shape[1])


def _solve_subbands(H, Rf, weights, gains, loads, out) -> None:
    """Write every model's MMSE estimates of the subbands H (n, M, K) of Rf (M, n) into out.

    Model q has inverse noise diagonal weights[q], gain gains[q] and transmit
    power 1 / loads[q]; out is (models, K, n).  The products conj(H_i) H_j
    (i <= j) and conj(H_i) Rf, antenna-major, are shared by all models; one
    real product with the weights sums them over the antennas for all models.
    """
    n, M, K = H.shape
    pairs = [(i, j) for i in range(K) for j in range(i, K)]
    slots = pairs + [(k, K) for k in range(K)]  # Gram entries, then matched filter
    Hc = np.empty((M, K, n), dtype=np.complex128)
    np.conjugate(H.transpose(1, 2, 0), out=Hc)
    P = np.empty((M, len(slots), n), dtype=np.complex128)
    for p, (i, j) in enumerate(slots):
        np.multiply(Hc[:, i], H[:, :, j].T if j < K else Rf, out=P[:, p])
    S = weights @ P.reshape(M, -1).view(np.float64)  # (models, 2 * slots * n)
    S = S.view(np.complex128).reshape(len(gains), len(slots), n)
    S[:, : len(pairs)] *= (gains**2)[:, None, None]
    S[:, len(pairs) :] *= gains[:, None, None]
    entry = {ij: S[:, p] for p, ij in enumerate(slots)}
    for k in range(K):
        entry[k, k].real += loads[:, None]
    A = [[entry.get((i, j)) for j in range(K)] for i in range(K)]
    _solve_hermitian(A, [entry[k, K] for k in range(K)], [out[:, k] for k in range(K)])


def equalize_block(R: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Equalize one M x N_b receive block (columns newest-first) to K x N_b.

    bank holds the (N_b, K, M) filters of build_filter_bank.
    """
    R = np.asarray(R, dtype=np.complex128)
    N_b, _, M = bank.shape
    if R.ndim != 2 or R.shape != (M, N_b):
        raise DimensionError(f"receive block must be {M} x {N_b}, got {R.shape}")
    return _equalize_block(R, bank)


def _equalize_block(R: np.ndarray, bank: np.ndarray) -> np.ndarray:
    # The row-wise unitary transform F into subbands, the per-subband filters,
    # then F^H back to time.  Pool threads call this, not the public wrapper.
    n = R.shape[-1]
    Rf = np.fft.ifft(R, axis=-1) * np.sqrt(n)
    Xf = np.einsum("skm,ms->ks", bank, Rf)
    return np.fft.fft(Xf, axis=-1) / np.sqrt(n)


def overlap_save_stream(
    r: np.ndarray, bank: np.ndarray, cfg: FdeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Equalize an M x T_c stream block-wise with overlap and edge discard.

    Consecutive blocks advance by N_b - L'; from each equalized block the L'
    newest estimates, which carry the post-filter interference of the causal
    channel, are dropped and the rest is emitted.  The last block also keeps
    its newest samples (the end of the stream); the returned edge mask flags
    them.  A final block that would run past the stream is clamped to end with
    it and emits only the positions not yet written.  Returns (K x T_c
    estimates, length-T_c boolean edge mask).  bank is as for equalize_block.
    """
    r = np.asarray(r, dtype=np.complex128)
    _, K, M = bank.shape
    if r.ndim != 2 or r.shape[0] != M:
        raise DimensionError(f"stream must be M x T with M={M}")
    N_b = cfg.block_len
    T = r.shape[1]
    if T < N_b:
        raise ConfigurationError(f"stream length {T} shorter than block length {N_b}")
    step = N_b - cfg.overlap
    out = np.empty((K, T), dtype=np.complex128)
    edge = np.zeros(T, dtype=bool)
    edge[T - cfg.overlap :] = True

    starts = list(range(0, T - N_b + 1, step))
    if starts[-1] != T - N_b:
        starts.append(T - N_b)  # clamped final block
    plan = []  # (block start, first and last stream position it writes)
    for j, s in enumerate(starts):
        lo = plan[-1][2] + 1 if plan else 0
        hi = T - 1 if j == len(starts) - 1 else s + step - 1
        plan.append((s, lo, hi))
    parts = _split(len(plan), r.nbytes)
    if len(parts) == 1:
        _equalize_segments(equalize_block, r, bank, plan, out)
    else:
        # Contiguous block ranges write disjoint stretches of out.
        jobs = [(_equalize_block, r, bank, plan[lo:hi], out) for lo, hi in parts]
        _map(_equalize_segments, jobs)
    return out, edge


def _equalize_segments(equalize, r, bank, plan, out) -> None:
    N_b = bank.shape[0]
    for s, lo, hi in plan:
        block = r[:, s : s + N_b][:, ::-1]  # newest-first column order
        est = equalize(block, bank)[:, ::-1]  # back to time order
        out[:, lo : hi + 1] = est[:, lo - s : hi - s + 1]


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

