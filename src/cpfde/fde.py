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

Large filter-bank builds and overlap-save streams are cut into chunks that fit
in cache and mapped over a thread pool that lives for that one call (numpy's
FFT, matmul, einsum and inv release the GIL).  Every chunk runs the same
arithmetic as a one-shot call, so results are bit-identical for any thread
count.

equalize_stream is the one entry point of the simulator.  A stream of exactly
one block (T = N_b, the paper's N_b = T_c) holds no filter bank: each subband
chunk builds its filters and applies them at once to its slice of the block's
transform, bitwise as the bank would.  Any other stream builds the bank once
and reuses it for every block of overlap_save_stream.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .quant import BussgangModel

DENSE_SIZE_CAP = 4096

# An overlap-save stream of fewer bytes than this is equalized serially in the
# calling thread; desk-scale streams (1-2 MB) stay below it.
_PARALLEL_MIN_BYTES = 4 << 20
# Filter-bank subbands are built in chunks of about this many bytes of filters;
# a bank of one chunk is built in the calling thread.
_CHUNK_BYTES = 2 << 20

# Work on the pool calls only private helpers: a tracer may wrap the public
# functions of this module, and a wrapper keeps a single span stack.
_threads: int | None = None  # equalizer threads; None means every usable CPU


def _thread_count() -> int:
    if _threads is not None:
        return _threads
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def _set_threads(n: int) -> None:
    """Process-pool initializer: give this worker process n equalizer threads."""
    global _threads
    _threads = n


def _map(fn, jobs: list[tuple]) -> None:
    """Run fn(*job) for every job: on a pool of its own, or inline with one
    thread or job.

    Every future's result is read, so an exception in any job is raised here.
    """
    n = min(_thread_count(), len(jobs))
    if n < 2:
        for job in jobs:
            fn(*job)
        return
    with ThreadPoolExecutor(max_workers=n, thread_name_prefix="cpfde-fde") as pool:
        for future in [pool.submit(fn, *job) for job in jobs]:
            future.result()


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
            for lo, hi in _subband_chunks(N_b, K, M)
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


def _subband_chunks(N_b: int, K: int, M: int) -> list[tuple[int, int]]:
    """(lo, hi) subband ranges of about _CHUNK_BYTES of K x M filters each."""
    step = max(1, _CHUNK_BYTES // (K * M * np.dtype(np.complex128).itemsize))
    return [(lo, min(lo + step, N_b)) for lo in range(0, N_b, step)]


def _build_filters(H, gain, inv_diag, sigma_x2, out) -> None:
    """Write the MMSE filters of the subbands gain * H (n, M, K) into out (n, K, M)."""
    if gain != 1.0:
        H = H * gain
    O = H.conj().transpose(0, 2, 1)  # H^H D^-1, scaled in place
    O *= inv_diag[None, None, :]
    gram = O @ H + (1.0 / sigma_x2) * np.eye(H.shape[2])[None]
    # Hermitian positive definite for any finite sigma_x2, so invertible; one
    # batched K x K inverse serves all M right-hand sides of a subband.
    np.matmul(np.linalg.inv(gram), O, out=out)


def equalize_stream(
    r: np.ndarray, subbands: np.ndarray, bm: BussgangModel, cfg: FdeConfig
) -> np.ndarray:
    """K x T MMSE estimates of an M x T stream, as overlap_save_stream gives them.

    The filters are those build_filter_bank makes of subbands and bm.  A
    stream of exactly one block is equalized one subband chunk at a time,
    without the (N_b, K, M) bank; the estimates are bitwise the same.
    """
    r = np.asarray(r, dtype=np.complex128)
    if r.ndim != 2 or r.shape[1] != cfg.block_len:
        return overlap_save_stream(r, build_filter_bank(subbands, bm, cfg), cfg)[0]
    inv_diag = _inverse_noise_diag(subbands, bm, cfg)
    N_b, M, K = subbands.shape
    if r.shape[0] != M:
        raise DimensionError(f"stream must be M x T with M={M}")
    # _equalize_block on the newest-first block, with the bank built per chunk.
    Rf = np.fft.ifft(r[:, ::-1], axis=-1)
    Rf *= np.sqrt(N_b)
    Xf = np.empty((K, N_b), dtype=np.complex128)
    _map(
        _filter_subbands,
        [
            (subbands[lo:hi], bm.gain, inv_diag, bm.sigma_x2, Rf[:, lo:hi], Xf[:, lo:hi])
            for lo, hi in _subband_chunks(N_b, K, M)
        ],
    )
    est = np.fft.fft(Xf, axis=-1) / np.sqrt(N_b)
    return np.ascontiguousarray(est[:, ::-1])  # back to time order


def _filter_subbands(H, gain, inv_diag, sigma_x2, Rf, out) -> None:
    """Build the filters of the subbands gain * H and apply them to Rf (M, n): out (K, n)."""
    G = np.empty((H.shape[0], H.shape[2], H.shape[1]), dtype=np.complex128)
    _build_filters(H, gain, inv_diag, sigma_x2, G)
    np.einsum("skm,ms->ks", G, Rf, out=out)


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
    if r.nbytes < _PARALLEL_MIN_BYTES:
        _equalize_segments(equalize_block, r, bank, plan, out)
    else:
        # Contiguous block ranges write disjoint stretches of out.
        n = _thread_count()
        parts = [plan[i * len(plan) // n : (i + 1) * len(plan) // n] for i in range(n)]
        _map(_equalize_segments, [(_equalize_block, r, bank, p, out) for p in parts if p])
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

