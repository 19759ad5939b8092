"""Frequency-selective block-fading MIMO channels and their stacked matrix forms.

The channel between K single-antenna users and M receive antennas is a set of
L+1 tap matrices H_l (M x K).  This module synthesizes random realizations from
a power-delay profile and materializes the block-Toeplitz, block-circulant and
per-subband frequency-domain representations used by the equalizer.

Dense matrices (block-Toeplitz / block-circulant) are validation aids for small
instances only; the streaming path never forms them.  freq_channel and the
inverse transform of convolve_transmit split their antenna rows over the
thread pool of _pool when the call is large, bitwise as one serial call.
convolve_transmit is an overlap-save, so each range of its blocks is
independent of the others; it and add_noise hold no intermediate of a
stream's size: they work a range of blocks or rows (_RANGE_BYTES) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._pool import _map, _split
from .errors import ConfigurationError, DimensionError

# Stream-sized work (the transmit convolution's spectra, the noise draws) is
# done in pieces of about this many bytes, so none reaches a stream's size.
_RANGE_BYTES = 8 << 20

# 3GPP Extended Vehicular A tapped-delay-line definition.
EVA_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
EVA_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)


@dataclass(frozen=True)
class PowerDelayProfile:
    """Sparse power-delay profile: (tap index, linear power) pairs over L+1 taps."""

    entries: tuple[tuple[int, float], ...]
    total_taps: int

    def __post_init__(self):
        if self.total_taps < 1:
            raise ConfigurationError("total_taps must be >= 1")
        if not self.entries:
            raise ConfigurationError("power-delay profile needs at least one entry")
        prev = -1
        for idx, power in self.entries:
            if idx <= prev:
                raise ConfigurationError("tap indices must be strictly increasing")
            if idx >= self.total_taps:
                raise ConfigurationError(
                    f"tap index {idx} >= total_taps {self.total_taps}"
                )
            if not (power > 0 and np.isfinite(power)):
                raise ConfigurationError("tap powers must be finite and positive")
            prev = idx

    @property
    def memory(self) -> int:
        """Channel memory L (total taps minus one)."""
        return self.total_taps - 1

    @classmethod
    def uniform(cls, total_taps: int) -> "PowerDelayProfile":
        """Equal power on every tap."""
        return cls(
            entries=tuple((i, 1.0) for i in range(total_taps)),
            total_taps=total_taps,
        )

    @classmethod
    def eva(cls, total_taps: int = 128) -> "PowerDelayProfile":
        """Extended Vehicular A profile (9 nonzero taps) on an integer tap grid.

        The sample period places the last EVA tap at index total_taps-1.  Taps
        that collide on the grid have their linear powers merged.
        """
        if total_taps < 2:
            raise ConfigurationError("EVA profile needs total_taps >= 2")
        period_ns = EVA_DELAYS_NS[-1] / (total_taps - 1)
        merged: dict[int, float] = {}
        for delay, power_db in zip(EVA_DELAYS_NS, EVA_POWERS_DB):
            idx = int(round(delay / period_ns))
            if idx >= total_taps:
                raise ConfigurationError(
                    f"EVA delay {delay} ns maps to tap {idx} >= total_taps {total_taps}"
                )
            merged[idx] = merged.get(idx, 0.0) + 10.0 ** (power_db / 10.0)
        entries = tuple(sorted(merged.items()))
        return cls(entries=entries, total_taps=total_taps)


@dataclass(frozen=True)
class ChannelTaps:
    """Ordered per-tap channel matrices, shape (L+1, M, K)."""

    taps: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=np.complex128)
        if t.ndim != 3 or t.shape[0] < 1 or t.shape[1] < 1 or t.shape[2] < 1:
            raise DimensionError("taps must have shape (L+1, M, K) with L>=0, M,K>=1")
        object.__setattr__(self, "taps", t)

    @property
    def memory(self) -> int:
        return self.taps.shape[0] - 1

    @property
    def n_rx(self) -> int:
        return self.taps.shape[1]

    @property
    def n_users(self) -> int:
        return self.taps.shape[2]

    def tap_gram_diag(self) -> np.ndarray:
        """Per-antenna diagonal of sum_l H_l H_l^H, length M."""
        return np.sum(np.abs(self.taps) ** 2, axis=(0, 2)).real

    def energy(self) -> float:
        """Total tap energy sum_l ||H_l||_F^2."""
        return float(np.sum(np.abs(self.taps) ** 2))


def generate_channel(
    pdp: PowerDelayProfile, M: int, K: int, rng: np.random.Generator
) -> ChannelTaps:
    """Draw a random channel realization from a power-delay profile.

    Nonzero taps are i.i.d. circularly-symmetric complex Gaussian; per-tap
    variances are the profile powers normalized so each scalar link has unit
    total energy: sum_l E|h_mk[l]|^2 = 1.
    """
    if M < 1 or K < 1:
        raise ConfigurationError("M and K must be >= 1")
    taps = np.zeros((pdp.total_taps, M, K), dtype=np.complex128)
    total_power = sum(p for _, p in pdp.entries)
    for idx, power in pdp.entries:
        var = power / total_power
        taps[idx] = np.sqrt(var / 2.0) * (
            rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))
        )
    return ChannelTaps(taps)


def build_block_toeplitz(taps: ChannelTaps, N_b: int) -> np.ndarray:
    """Stack the linear convolution into the M*N_b x K*(N_b+L) block-Toeplitz matrix.

    Block-row i (time n-i, newest first) carries H_0..H_L starting at
    column-block i, so the matrix maps vec{X[n]} to vec{Y[n]} exactly.
    """
    L, M, K = taps.memory, taps.n_rx, taps.n_users
    if N_b <= L:
        raise DimensionError(f"N_b={N_b} must exceed channel memory L={L}")
    H = np.zeros((M * N_b, K * (N_b + L)), dtype=np.complex128)
    for i in range(N_b):
        for l in range(L + 1):
            j = i + l
            H[i * M : (i + 1) * M, j * K : (j + 1) * K] = taps.taps[l]
    return H


def build_block_circulant(taps: ChannelTaps, N_b: int, rho_q: float = 0.0) -> np.ndarray:
    """Build the M*N_b x K*N_b block-circulant approximation of the channel.

    Block-row i carries (1 - rho_q) H_l at column-block (i + l) mod N_b: the
    block-Toeplitz part plus the wrap-around blocks H_L..H_1 in the
    bottom-left corner.
    """
    L, M, K = taps.memory, taps.n_rx, taps.n_users
    if N_b <= L:
        raise DimensionError(f"N_b={N_b} must exceed channel memory L={L}")
    if not (0.0 <= rho_q < 1.0):
        raise ConfigurationError("rho_q must lie in [0, 1)")
    gain = 1.0 - rho_q
    H = np.zeros((M * N_b, K * N_b), dtype=np.complex128)
    for i in range(N_b):
        for l in range(L + 1):
            j = (i + l) % N_b
            H[i * M : (i + 1) * M, j * K : (j + 1) * K] = gain * taps.taps[l]
    return H


def freq_channel(taps: ChannelTaps, N_b: int, rho_q: float = 0.0) -> np.ndarray:
    """Per-subband channel matrices H_fi = sum_l H_l e^{-j 2pi l i / N_b}, as (M, K, N_b).

    The subbands are antenna-major: subband i is [:, :, i].  The tap-wise
    transform is the unnormalized DFT over the tap index, taken along the
    contiguous last axis of the (M, K, L+1) taps straight into the contiguous
    result, a range of antenna rows per job.  The subbands never carry the
    Bussgang gain: fde.build_filter_bank applies each model's.  rho_q must be
    0; it stays in the signature because perfbench's tracer keys freq_channel
    calls on it.
    """
    L = taps.memory
    if N_b < L + 1:
        raise DimensionError(f"N_b={N_b} must be >= L+1={L + 1}")
    if rho_q != 0.0:
        raise ConfigurationError("freq_channel is gain-free; build_filter_bank applies rho_q")
    rows = np.ascontiguousarray(taps.taps.transpose(1, 2, 0))
    out = np.empty((taps.n_rx, taps.n_users, N_b), dtype=np.complex128)
    _map(_transform_taps, [(rows, out, lo, hi) for lo, hi in _split(taps.n_rx, out.nbytes)])
    return out


def _transform_taps(rows, out, lo, hi) -> None:
    """Write the spectra of the (M, K, L+1) tap rows lo..hi-1 into out[lo:hi]."""
    np.fft.fft(rows[lo:hi], n=out.shape[-1], axis=-1, out=out[lo:hi])


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _short_fft_len(L: int, T: int) -> int:
    """The FFT block of an overlap method for L+1 taps on a stream of T samples."""
    return min(_next_pow2(max(4 * (L + 1), 64)), _next_pow2(T + L))


def add_noise(
    y: np.ndarray, noise_std: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Add receiver noise to the complex stream y in place and return it.

    Noise is i.i.d. circularly symmetric complex Gaussian with total variance
    noise_std^2 per sample: (noise_std/sqrt(2)) * (N_1 + j N_2), where the real
    draws N_1 (shape of y) come from rng before the imaginary draws N_2.  Each
    is drawn a range of rows at a time, into one reused buffer of about
    _RANGE_BYTES: the same draws as one of the whole shape.  A y that is
    not a complex array raises DimensionError before anything is written.
    """
    if not (isinstance(y, np.ndarray) and np.iscomplexobj(y)):
        raise DimensionError(f"y must be a complex array, got {np.asarray(y).dtype}")
    if noise_std > 0:
        if rng is None:
            raise ConfigurationError("rng required when noise_std > 0")
        scale = noise_std / np.sqrt(2.0)
        rows = np.atleast_1d(y)  # a view: drawn and added a range of rows at a time
        step = max(1, _RANGE_BYTES // (8 * math.prod(rows.shape[1:]) or 1))
        draws = np.empty((min(step, len(rows)), *rows.shape[1:]))
        for part in (rows.real, rows.imag):
            for lo in range(0, len(rows), step):
                buf = draws[: min(step, len(rows) - lo)]
                rng.standard_normal(out=buf)
                buf *= scale
                part[lo : lo + step] += buf
    return y


def convolve_transmit(taps: ChannelTaps, x: np.ndarray) -> np.ndarray:
    """Pass a K x T symbol stream through the channel: y[n] = sum_l H_l x[n-l].

    Symbols before the stream start are zero.  The convolution is an FFT
    overlap-save over time, as the equalizer's: the stream, with L zeros in
    front, is cut into blocks of nfft samples that start every nfft - L
    samples (nfft a power of 2 of at least 4(L+1), 64 minimum, points, or
    one block covering the whole stream when that is shorter); each block is
    transformed, multiplied by the tap spectra per frequency bin and
    transformed back, and its last nfft - L samples are the output's.  The
    result is noiseless; add_noise adds receiver noise.

    The blocks go through the product and the inverse transform a range at a
    time, a multiple of 8 blocks of at most about _RANGE_BYTES of spectra.
    The result is bitwise that of one range of all blocks: OpenBLAS rounds a
    batched product of a multiple of 8 columns as the leading columns of a
    wider one, and a last range of one block joins the one before it.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != taps.n_users:
        raise DimensionError(f"x must be K x T with K={taps.n_users}")
    K, T = x.shape
    if T < 1:
        raise DimensionError("stream length must be >= 1")
    L, M = taps.memory, taps.n_rx
    nfft = _short_fft_len(L, T)
    step = nfft - L
    n_blk = -(-T // step)
    xp = np.zeros((K, L + n_blk * step), dtype=np.complex128)
    xp[:, L : L + T] = x
    Xf = np.fft.fft(sliding_window_view(xp, nfft, axis=-1)[:, ::step], axis=-1)
    Hf = np.fft.fft(taps.taps, n=nfft, axis=0)
    # The largest odd multiple of 8 blocks within _RANGE_BYTES (at least 8): a
    # power of 2 would put the transposing copy of _inverse_rows on a stride
    # that caches serve badly.
    blocks = max(0, _RANGE_BYTES // (nfft * M * 16) - 8) // 16 * 16 + 8
    # Written into a contiguous M x T array, which callers scale, add noise to
    # and quantize in place.
    y = np.empty((M, T), dtype=np.complex128)
    starts = list(range(0, n_blk, blocks))
    if len(starts) > 1 and starts[-1] == n_blk - 1:
        starts.pop()  # numpy multiplies a lone block by another BLAS kernel
    ends = starts[1:] + [n_blk]
    # Every range's spectra and blocks go to the front of the same two buffers.
    size = nfft * M * max(b - a for a, b in zip(starts, ends))
    spectra, times = np.empty(size, dtype=np.complex128), np.empty(size, dtype=np.complex128)
    for b0, b1 in zip(starts, ends):
        n = nfft * M * (b1 - b0)
        yf = spectra[:n].reshape(nfft, M, b1 - b0)
        np.matmul(Hf, Xf[:, b0:b1].transpose(2, 0, 1), out=yf)
        yb = times[:n].reshape(M, b1 - b0, nfft)
        _map(_inverse_rows, [(yf, yb, lo, hi) for lo, hi in _split(M, yf.nbytes)])
        _save(y, yb[..., L:], b0 * step)
    return y


def _save(y, kept, start) -> None:
    """Write the kept samples (M, n, step) of n blocks into y from sample start
    on, block after block; the stream's last block is cut at its end."""
    M, n, step = kept.shape
    part = y[:, start : start + n * step]
    full = part.shape[1] // step
    part[:, : full * step].reshape(M, full, step, copy=False)[...] = kept[:, :full]
    if full < n:
        part[:, full * step :] = kept[:, full, : part.shape[1] - full * step]


def _inverse_rows(yf, yb, lo, hi) -> None:
    """Inverse-transform antenna rows lo..hi-1 of yf (nfft, M, n) into yb (M, n, nfft)."""
    yb[lo:hi] = yf[:, lo:hi].transpose(1, 2, 0)
    np.fft.ifft(yb[lo:hi], axis=-1, out=yb[lo:hi])
