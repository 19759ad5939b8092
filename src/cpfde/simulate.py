"""End-to-end Monte-Carlo link simulation: QAM uplink through a quantized
multiantenna receiver with frequency-domain equalization.

Each channel realization is an independent work unit with its own RNG stream
split from the master seed; accumulation runs in realization order so results
are identical for any worker count.  Within a small realization a helper
thread may draw the next Eb/N0 point's noise ahead, the same draws in the
same order, so results do not depend on the thread count either.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    ChannelTaps,
    PowerDelayProfile,
    _short_fft_len,
    add_noise,
    convolve_transmit,
    generate_channel,
)
from . import _pool
from ._pool import _set_threads, _thread_count
from .errors import ConfigurationError
from .fde import (
    FdeConfig,
    MatchedFilter,
    _lag_len,
    _one_block_spectra_len,
    _stack_len,
    build_filter_bank,
    build_one_block_bank,
    equalize_block,
    overlap_save_stream,
)
from .quant import MAX_BITS, bussgang_model, design_quantizer, per_antenna_agc, quantize

METHODS = ("WF", "WF_Q")

# Largest |Eb/N0| in dB accepted.  10**(300/10) leaves the mapped transmit
# power hundreds of decades inside the finite positive float range.
MAX_EBN0_DB = 300.0

# Largest M x T_c complex128 receive stream, in bytes.  A realization holds at
# most two such streams at once, the noiseless and the received one (one array
# at the last Eb/N0 point); paper scale (M=64, T_c=50000) is 51 MB.  Every
# other array that grows with the config has the same bound (the checks of
# SimConfig name each); the block length scan has its own cap
# (blockopt.MAX_COHERENCE).
MAX_STREAM_BYTES = 2**28


# --------------------------------------------------------------------------
# Gray-mapped square QAM
# --------------------------------------------------------------------------

def _gray_to_binary(g: np.ndarray, width: int) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < width:
        b ^= b >> shift
        shift *= 2
    return b


def _binary_to_gray(b: np.ndarray) -> np.ndarray:
    return b ^ (b >> 1)


# 4**8 = 65536-QAM.  Larger orders are not meaningful here (at 4**32 the BER is
# near 0.5) and at 64 bits per axis overflow map_symbols' int64 bit weights.
MAX_QAM_BITS_PER_AXIS = 8


def _qam_params(order: int) -> tuple[int, int, float]:
    side = math.isqrt(order) if order >= 4 else 0
    if side < 2 or side * side != order or (side & (side - 1)):
        raise ConfigurationError(f"modulation order {order} is not a square QAM order")
    bits_per_axis = side.bit_length() - 1
    if bits_per_axis > MAX_QAM_BITS_PER_AXIS:
        raise ConfigurationError(
            f"modulation order {order} > 4**{MAX_QAM_BITS_PER_AXIS} unsupported"
        )
    scale = np.sqrt(3.0 / (2.0 * (order - 1)))  # unit average symbol energy
    return side, bits_per_axis, scale


def map_symbols(bits: np.ndarray, order: int) -> np.ndarray:
    """Map a 0/1 bit stream to Gray-coded square QAM with unit average energy."""
    side, bpa, scale = _qam_params(order)
    bits = np.asarray(bits, dtype=np.int64).ravel()
    B = 2 * bpa
    if bits.size % B:
        raise ConfigurationError(f"bit count {bits.size} not divisible by {B}")
    groups = bits.reshape(-1, B)
    weights = 1 << np.arange(bpa - 1, -1, -1)
    gi = groups[:, :bpa] @ weights
    gq = groups[:, bpa:] @ weights
    li = _gray_to_binary(gi, bpa)
    lq = _gray_to_binary(gq, bpa)
    re = (2 * li - (side - 1)) * scale
    im = (2 * lq - (side - 1)) * scale
    return re + 1j * im


def demap_symbols(estimates: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-distance detection: the detected Gray indices per axis.

    Returns the in-phase and quadrature Gray indices of the nearest
    constellation point, each shaped as estimates, in the smallest unsigned
    dtype that holds them; map_symbols sends the most significant bit of each
    index first.  Points outside the constellation clip to its edge, and
    midpoint ties break toward the smaller level.  The bit errors of a
    detection are popcount(detected ^ sent), added over both axes.
    """
    side, _, scale = _qam_params(order)
    est = np.ascontiguousarray(estimates, dtype=np.complex128)
    u = est.view(np.float64) / scale  # real and imaginary parts interleaved
    u += side
    u /= 2.0
    np.ceil(u, out=u)
    u -= 1
    np.clip(u, 0, side - 1, out=u)
    gray = _binary_to_gray(u.astype(np.min_scalar_type(side - 1)))
    gray = gray.reshape(*np.shape(estimates), 2)
    return gray[..., 0], gray[..., 1]


def _bit_errors(sent, detected) -> np.ndarray:
    """Bits in which per-axis Gray indices differ, over both axes: one count
    per leading index that detected has beyond sent's dimensions."""
    axes = tuple(range(-np.ndim(sent[0]), 0))
    return sum(np.bitwise_count(d ^ s).sum(axis=axes) for s, d in zip(sent, detected))


# --------------------------------------------------------------------------
# Configuration and report
# --------------------------------------------------------------------------

def _check_bytes(name: str, dims: tuple[int, ...], what: str) -> None:
    """Reject a complex array of shape dims above MAX_STREAM_BYTES."""
    if math.prod(dims) * 16 > MAX_STREAM_BYTES:
        shape = " x ".join(map(str, dims))
        raise ConfigurationError(f"{name} = {shape} {what} exceeds {MAX_STREAM_BYTES} bytes")


@dataclass
class SimConfig:
    """Monte-Carlo experiment description (desk-scale defaults)."""

    K: int = 2
    M: int = 32
    L: int = 15
    pdp: PowerDelayProfile | None = None  # defaults to uniform over L+1 taps
    modulation: int = 16
    T_c: int = 2048
    N_sim: int = 20
    ebn0_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0)
    block_lens: tuple[int, ...] = (64, 2048)
    quant_bits: int | None = 1  # None disables quantization entirely
    methods: tuple[str, ...] = METHODS
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.K < 1 or self.M < 1:
            raise ConfigurationError("K and M must be >= 1")
        _check_bytes("M x T_c", (self.M, self.T_c), "stream")
        _check_bytes("K x T_c", (self.K, self.T_c), "symbol stream")
        _check_bytes("(L+1) x M x K", (self.L + 1, self.M, self.K), "taps array")
        spectra = sum(_one_block_spectra_len(self.L, n) if n == self.T_c else n
                      for n in self.block_lens)
        _check_bytes("M x K x sum(n)", (self.M, self.K, spectra), "tap spectra")
        # Every N_b's bank lives from the first Eb/N0 point to the last.
        pairs, Q = self.K * (self.K - 1) // 2, len(self.methods) * len(self.ebn0_grid)
        longest = max(self.block_lens, default=0)
        _check_bytes("K(K-1)/2 x Q x sum(N_b)", (pairs, Q, sum(self.block_lens)), "Gram factors")
        _check_bytes("K(K+1)/2 x max(N_b)", (pairs + self.K, longest), "Gram rows")
        n_lag, nfft = _lag_len(self.L), _short_fft_len(self.L, self.T_c)
        _check_bytes("M x K(K+1)/2 x n_lag", (self.M, pairs + self.K, n_lag), "Gram products")
        _check_bytes("Q x K(K+1)/2 x n_lag", (Q, pairs + self.K, n_lag), "Gram sums")
        _check_bytes("M x K x nfft", (self.M, self.K, nfft), "transmit spectra")
        if self.N_sim < 1:
            raise ConfigurationError("N_sim must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.quant_bits is not None and not 1 <= self.quant_bits <= MAX_BITS:
            raise ConfigurationError(f"quant_bits must be in 1..{MAX_BITS} (or None)")
        if not np.all(np.abs(self.ebn0_grid) <= MAX_EBN0_DB):
            raise ConfigurationError(f"Eb/N0 grid points must lie within +-{MAX_EBN0_DB:g} dB")
        # Grid points key the per-point results; a repeat would count twice.
        for name in ("ebn0_grid", "block_lens", "methods"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ConfigurationError(f"{name} is empty")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name} has duplicate entries: {values}")
        if self.pdp is None:
            self.pdp = PowerDelayProfile.uniform(self.L + 1)
        if self.pdp.memory != self.L:
            raise ConfigurationError("power-delay profile length disagrees with L")
        for n_b in self.block_lens:
            if n_b < self.L + 1:
                raise ConfigurationError(f"block length {n_b} < L+1={self.L + 1}")
            if n_b > self.T_c:
                raise ConfigurationError(f"block length {n_b} > T_c={self.T_c}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigurationError(f"unknown method {m!r}")
        _qam_params(self.modulation)

    @property
    def bits_per_symbol(self) -> int:
        return self.modulation.bit_length() - 1

    def snapshot(self) -> dict:
        d = asdict(self)
        d["pdp"] = {"entries": list(self.pdp.entries), "total_taps": self.pdp.total_taps}
        return d


@dataclass(frozen=True)
class SimRow:
    ebn0_db: float
    n_b: int
    method: str
    mse: float
    ber: float
    symbols_counted: int
    edge_symbols_excluded: int
    mse_stderr: float


@dataclass
class SimReport:
    """Per-grid-point MSE/BER results and the per-realization MSEs behind them."""

    rows: list[SimRow]
    realization_mse: dict  # (ebn0, n_b, method) -> array over realizations

    def row(self, ebn0_db: float, n_b: int, method: str) -> SimRow:
        for r in self.rows:
            if r.ebn0_db == ebn0_db and r.n_b == n_b and r.method == method:
                return r
        raise KeyError((ebn0_db, n_b, method))


# --------------------------------------------------------------------------
# Eb/N0 bookkeeping
# --------------------------------------------------------------------------

def ebn0_to_sigma_x2(
    ebn0_db: float, taps_ensemble_trace: float, cfg: SimConfig, N_b_ref: int
) -> float:
    """Per-user transmit power sigma_x^2 for a target Eb/N0 in dB.

    taps_ensemble_trace is the ensemble average of the per-realization tap
    energy sum_l ||H_l||_F^2; the stacked-channel trace at the reference block
    length is N_b_ref times that.  Total power P_t = K sigma_x^2 against unit
    noise power per antenna sample.

    sigma_x^2 scales as 1/N_b_ref.  Both commands take the smallest block
    length of their configuration as the reference: min(block_lens) for a
    sweep, the profiled N_b for the bathtub.  The same nominal Eb/N0 can give
    transmit powers 10 log10(ratio) dB apart between them (15 dB for a bathtub
    at N_b = 2048 against the desk sweep's 64).
    """
    if not (taps_ensemble_trace > 0):
        raise ConfigurationError("trace estimate must be positive")
    trace = N_b_ref * taps_ensemble_trace
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    pt = ebn0 * cfg.K * cfg.M * cfg.bits_per_symbol / trace
    return pt / cfg.K


# --------------------------------------------------------------------------
# Monte-Carlo engine
# --------------------------------------------------------------------------

def _realization_taps(cfg: SimConfig, index: int) -> ChannelTaps:
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, index))
    return generate_channel(cfg.pdp, cfg.M, cfg.K, np.random.default_rng(ss))


def _sigma_x2(cfg: SimConfig) -> dict:
    """Transmit power per Eb/N0 point, at reference block length min(block_lens)."""
    trace_avg = float(
        np.mean([_realization_taps(cfg, i).energy() for i in range(cfg.N_sim)])
    )
    return {e: ebn0_to_sigma_x2(e, trace_avg, cfg, min(cfg.block_lens)) for e in cfg.ebn0_grid}


def _symbols(cfg: SimConfig, index: int):
    """Taps, data/noise generator and unit-power symbols of one realization."""
    taps = _realization_taps(cfg, index)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, index)))
    bits = rng.integers(0, 2, size=cfg.K * cfg.T_c * cfg.bits_per_symbol)
    return taps, rng, map_symbols(bits, cfg.modulation).reshape(cfg.K, cfg.T_c)


def _models(cfg: SimConfig, taps: ChannelTaps, sigma_x2_by_ebn0: dict) -> list:
    """Every (Eb/N0 point, method)'s Bussgang model, point-major; WF's has rho_q = 0."""
    rho = 0.0 if cfg.quant_bits is None else design_quantizer(cfg.quant_bits, 1.0).rho_q
    return [
        bussgang_model(taps, rho if method == "WF_Q" else 0.0, 1.0, sigma_x2_by_ebn0[ebn0])
        for ebn0 in cfg.ebn0_grid
        for method in cfg.methods
    ]


def _draw_noise(rng, out):
    """add_noise's unit-power draws for one stream, made ahead: the real parts
    into out[0], then the imaginary parts into out[1], scaled as add_noise
    scales them."""
    for part in out:
        rng.standard_normal(out=part)
        part *= 1.0 / np.sqrt(2.0)
    return out


def _noise_ahead(cfg: SimConfig, rng):
    """A context manager that gives every Eb/N0 point's noise in turn: a
    (2, M, T_c) array of _draw_noise, or None where add_noise draws inline.

    Below the pool floor every stage of a point runs serially, so with more
    than one thread and point a helper thread draws the next point's noise
    from rng (the first point's while the stream is transmitted) into one of
    two buffers in turn.  Above it the pool already uses every CPU, and a
    buffer ahead would add a stream to the peak memory.
    """
    points = len(cfg.ebn0_grid)
    if points > 1 and _thread_count() > 1 and cfg.M * cfg.T_c * 16 < _pool._PARALLEL_MIN_BYTES:
        buffers = np.empty((2, 2, cfg.M, cfg.T_c))
        return _pool._ahead(_draw_noise, [(rng, buffers[i % 2]) for i in range(points)])
    return nullcontext(itertools.repeat(None))


def _receive(cfg: SimConfig, taps: ChannelTaps, r, sigma_x2: float, rng, noise=None):
    """Add unit-power noise to r, the stream already at power sigma_x2, and
    quantize it, both in place; returns r.

    The noise is add_noise's draws from rng or, if given, noise: the same
    draws made ahead by _draw_noise.  One unit-std quantizer design is scaled
    by each antenna's AGC std.
    """
    if noise is None:
        add_noise(r, 1.0, rng)
    else:
        r.real += noise[0]
        r.imag += noise[1]
    if cfg.quant_bits is not None:
        spec = design_quantizer(cfg.quant_bits, 1.0)
        quantize(r, spec, per_antenna_agc(taps, sigma_x2, 1.0), out=r)
    return r


def _run_one_realization(args):
    """Score one realization at every grid point: (sq, bit_err).

    sq (float64) is the squared error per unit symbol energy and bit_err
    (int64) the bit errors, both shaped (Eb/N0 points, block lengths,
    methods).  Only the first T_c - L positions of each user are scored:
    overlap_save_stream flags the last L as edge for every N_b.

    The models need the taps, the design's rho_q and each point's transmit
    power, not the received stream, so each N_b gets one filter bank for
    every point's models, built at the first point and dropped after the
    last; each point streams through its own subset of the bank.  The
    one-block N_b = T_c gets build_one_block_bank's, whose short spectra
    keep its N_b subbands unformed.  Each point's Q*K estimate rows are
    scored at once.

    A point visits its N_b as listed, except that the smallest multi-block
    N_b and then N_b = T_c come last: the smallest one's pass writes the
    stream's matched-filter rows into a MatchedFilter, which N_b = T_c
    solves in place into its estimates, so no pass of its own transforms the
    M-row stream again.  The smallest N_b has the smallest bank and
    temporaries to hold beside those rows.

    Each point's noise comes from _noise_ahead: where a CPU would idle, a
    helper thread draws the next point's noise while this point is
    quantized, equalized and scored, the same draws as add_noise's.

    No stream outlives its last reader: the last point scales the noiseless
    stream in place into its received one.  So a paper realization holds one
    stream while it equalizes its last (or only) point, and two before.
    """
    cfg, index, sigma_x2_by_ebn0 = args
    taps, rng, unit_syms = _symbols(cfg, index)
    with _noise_ahead(cfg, rng) as drawn:
        hx = convolve_transmit(taps, unit_syms)
        n = cfg.T_c - cfg.L  # scored positions per user
        sent = demap_symbols(unit_syms[:, :n], cfg.modulation)
        Q = len(cfg.methods)
        models = _models(cfg, taps, sigma_x2_by_ebn0)  # Q per point

        shape = (len(cfg.ebn0_grid), len(cfg.block_lens), Q)
        sq = np.empty(shape)
        bit_err = np.empty(shape, dtype=np.int64)
        banks = {}
        last = len(cfg.ebn0_grid) - 1
        feeder = None  # the N_b whose pass forms N_b = T_c's matched filter
        if cfg.T_c in cfg.block_lens and len(cfg.block_lens) > 1:
            feeder = min(cfg.block_lens)
        visits = sorted(cfg.block_lens, key=lambda n_b: (n_b == cfg.T_c, n_b == feeder))
        for i, (ebn0, noise_i) in enumerate(zip(cfg.ebn0_grid, drawn)):
            sigma_x2 = sigma_x2_by_ebn0[ebn0]
            r = np.multiply(np.sqrt(sigma_x2), hx, out=hx if i == last else None)
            _receive(cfg, taps, r, sigma_x2, rng, noise_i)
            matched = None
            for n_b in visits:
                j = cfg.block_lens.index(n_b)
                fde_cfg = FdeConfig(block_len=n_b, overlap=cfg.L)
                if i == 0:
                    build = build_one_block_bank if n_b == cfg.T_c else build_filter_bank
                    banks[n_b] = build(taps, models, fde_cfg)
                bank = (banks[n_b] if i < last else banks.pop(n_b)).subset(i * Q, (i + 1) * Q)
                if n_b == feeder:  # written here, solved in place by N_b = T_c
                    matched = MatchedFilter(Q * cfg.K, cfg.T_c, cfg.L)
                out = overlap_save_stream(r, bank, fde_cfg, matched)[0]
                # Per unit symbol energy, against the unit constellation: a
                # fixed unit change, not blind scaling.
                xhat = out.reshape(Q, cfg.K, -1)[..., :n] / np.sqrt(sigma_x2)
                sq[i, j] = np.sum(np.abs(xhat - unit_syms[:, :n]) ** 2, axis=(1, 2))
                bit_err[i, j] = _bit_errors(sent, demap_symbols(xhat, cfg.modulation))
                del bank, out, xhat  # before the next N_b's bank is built
            del r, matched  # before the next point's stream is made
    return sq, bit_err


def run_experiment(cfg: SimConfig) -> SimReport:
    """Run the full Monte-Carlo sweep over (Eb/N0 x N_b x method).

    Deterministic for a fixed seed; channel and data/noise streams are split
    per realization index, and reduction runs in index order (the order of
    the pool's map, like the serial list's) regardless of the worker count.
    """
    sigma_x2_by_ebn0 = _sigma_x2(cfg)
    tasks = [(cfg, i, sigma_x2_by_ebn0) for i in range(cfg.N_sim)]
    # Never more processes than realizations or CPUs: a process pool forks
    # all of its workers up front.
    workers = min(cfg.workers, cfg.N_sim, _thread_count())
    if workers > 1:
        # Each worker process gets an equal share of the equalizer threads, so
        # workers x threads stays within the CPUs.
        share = max(1, _thread_count() // workers)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_set_threads, initargs=(share,)
        ) as pool:
            results = list(pool.map(_run_one_realization, tasks))
    else:
        results = [_run_one_realization(t) for t in tasks]
    # (N_sim, Eb/N0 points, block lengths, methods), in realization order
    sq, bit_err = (np.stack(a) for a in zip(*results))

    n_sym = cfg.K * (cfg.T_c - cfg.L)  # scored symbols per realization
    counted = cfg.N_sim * n_sym
    mse = sq / n_sym
    sq_total = sum(sq)  # a running sum in index order, whatever the grid shape
    err_total = bit_err.sum(axis=0)
    stderr = np.zeros_like(mse[0])  # one realization has no spread to estimate
    if cfg.N_sim > 1:
        stderr = np.std(mse, axis=0, ddof=1) / np.sqrt(cfg.N_sim)

    rows, realization_mse = [], {}
    for idx in np.ndindex(*sq.shape[1:]):
        i, j, k = idx
        key = (cfg.ebn0_grid[i], cfg.block_lens[j], cfg.methods[k])
        realization_mse[key] = mse[(slice(None), *idx)]
        rows.append(
            SimRow(
                *key,
                mse=float(sq_total[idx] / counted),
                ber=float(err_total[idx] / (counted * cfg.bits_per_symbol)),
                symbols_counted=counted,
                edge_symbols_excluded=cfg.N_sim * cfg.K * cfg.L,
                mse_stderr=float(stderr[idx]),
            )
        )
    return SimReport(rows, realization_mse)


def per_position_error_profile(cfg: SimConfig) -> np.ndarray:
    """Ensemble-averaged squared error per within-block position, discard off.

    cfg holds exactly one block length, Eb/N0 point and method: the profiled
    N_b, point and filter.  Blocks are taken from the stream interior (full
    interference history) and equalized independently, in stacks; position 0
    is the newest sample of a block.
    """
    if any(len(getattr(cfg, f)) != 1 for f in ("block_lens", "ebn0_grid", "methods")):
        raise ConfigurationError("the profile takes one block length, Eb/N0 point and method")
    n_b = cfg.block_lens[0]
    if cfg.T_c < 2 * n_b:
        raise ConfigurationError(
            f"T_c={cfg.T_c} too short for an interior block (needs 2 n_b = {2 * n_b})"
        )
    sigma_x2_by_ebn0 = _sigma_x2(cfg)
    sigma_x2 = sigma_x2_by_ebn0[cfg.ebn0_grid[0]]

    acc = np.zeros(n_b)
    count = 0
    interior = cfg.T_c // n_b - 1  # blocks at n_b, 2 n_b, ...
    stack = _stack_len(cfg.M, cfg.K, n_b)  # blocks per equalize_block call
    for i in range(cfg.N_sim):
        taps, rng, unit_syms = _symbols(cfg, i)
        x = np.sqrt(sigma_x2) * unit_syms
        hx = convolve_transmit(taps, unit_syms)
        r = _receive(cfg, taps, np.multiply(np.sqrt(sigma_x2), hx, out=hx), sigma_x2, rng)
        models = _models(cfg, taps, sigma_x2_by_ebn0)
        bank = build_filter_bank(taps, models, FdeConfig(n_b, overlap=0))
        # skip the first block: its history is the zero-padded stream start
        blocks, refs = (
            a[:, n_b : (interior + 1) * n_b].reshape(len(a), interior, n_b).transpose(1, 0, 2)
            for a in (r, x)
        )
        for lo in range(0, interior, stack):
            est = equalize_block(blocks[lo : lo + stack, :, ::-1], bank)
            for e, ref in zip(est, refs[lo : lo + stack, :, ::-1]):  # in block order
                acc += np.sum(np.abs(e - ref) ** 2, axis=0) / sigma_x2
        count += cfg.K * interior
    return acc / count
