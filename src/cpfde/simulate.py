"""End-to-end Monte-Carlo link simulation: QAM uplink through a quantized
multiantenna receiver with frequency-domain equalization.

Each channel realization is an independent work unit with its own RNG stream
split from the master seed; accumulation runs in realization order so results
are identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    ChannelTaps,
    PowerDelayProfile,
    add_noise,
    convolve_transmit,
    freq_channel,
    generate_channel,
)
from ._pool import _set_threads, _thread_count
from .errors import ConfigurationError
from .fde import FdeConfig, build_filter_bank, equalize_block, equalize_stream
from .quant import MAX_BITS, bussgang_model, design_quantizer, per_antenna_agc, quantize

METHODS = ("WF", "WF_Q")

# Largest |Eb/N0| in dB accepted.  10**(300/10) leaves the mapped transmit
# power hundreds of decades inside the finite positive float range.
MAX_EBN0_DB = 300.0

# Largest M x T_c complex128 receive stream, in bytes.  A realization holds a
# few such streams at once; paper scale (M=64, T_c=50000) is 51 MB.  The K x T_c
# symbol stream and the (L+1, M, K) channel taps have the same bound.  The block
# length scan has its own, larger cap on T_c (blockopt.MAX_COHERENCE).
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
    """Minimum-distance detection: hard symbols plus recovered Gray bits.

    Midpoint ties break toward the lexicographically smaller (real, imag) point.
    """
    side, bpa, scale = _qam_params(order)
    est = np.asarray(estimates, dtype=np.complex128).ravel()

    def axis_index(v):
        u = v / scale
        idx = np.ceil((u + side) / 2.0) - 1
        return np.clip(idx, 0, side - 1).astype(np.int64)

    li = axis_index(est.real)
    lq = axis_index(est.imag)
    symbols = ((2 * li - (side - 1)) + 1j * (2 * lq - (side - 1))) * scale
    gi = _binary_to_gray(li)
    gq = _binary_to_gray(lq)
    shifts = np.arange(bpa - 1, -1, -1)
    bits = np.empty((est.size, 2 * bpa), dtype=np.int64)
    bits[:, :bpa] = (gi[:, None] >> shifts) & 1
    bits[:, bpa:] = (gq[:, None] >> shifts) & 1
    return symbols.reshape(np.shape(estimates)), bits.ravel()


# --------------------------------------------------------------------------
# Configuration and report
# --------------------------------------------------------------------------

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
        for name, dims, what in (
            ("M x T_c", (self.M, self.T_c), "stream"),
            ("K x T_c", (self.K, self.T_c), "symbol stream"),
            ("(L+1) x M x K", (self.L + 1, self.M, self.K), "taps array"),
        ):
            if math.prod(dims) * 16 > MAX_STREAM_BYTES:
                shape = " x ".join(map(str, dims))
                raise ConfigurationError(
                    f"{name} = {shape} {what} exceeds {MAX_STREAM_BYTES} bytes"
                )
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

    sigma_x^2 scales as 1/N_b_ref.  run_experiment takes min(block_lens) as the
    reference and per_position_error_profile the profiled N_b, so the same
    nominal Eb/N0 gives transmit powers 10 log10(ratio) dB apart between them
    (15 dB at the desk defaults, 2048 against 64).
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


def _sigma_x2(cfg: SimConfig, ebn0s, ref: int) -> dict:
    """Transmit power per Eb/N0 point at reference block length ref."""
    trace_avg = float(
        np.mean([_realization_taps(cfg, i).energy() for i in range(cfg.N_sim)])
    )
    return {e: ebn0_to_sigma_x2(e, trace_avg, cfg, ref) for e in ebn0s}


def _transmit(cfg: SimConfig, index: int):
    """Taps, data/noise generator, bits, unit-power symbols and their noiseless H*x."""
    taps = _realization_taps(cfg, index)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, index)))
    bits = rng.integers(0, 2, size=cfg.K * cfg.T_c * cfg.bits_per_symbol)
    unit_syms = map_symbols(bits, cfg.modulation).reshape(cfg.K, cfg.T_c)
    return taps, rng, bits, unit_syms, convolve_transmit(taps, unit_syms)


def _receive(cfg: SimConfig, taps: ChannelTaps, hx, sigma_x2: float, rng):
    """Stream at power sigma_x2 plus unit-power noise, quantized in place, and its rho_q.

    One unit-std quantizer design is scaled by each antenna's AGC std.
    """
    r = add_noise(np.sqrt(sigma_x2) * hx, 1.0, rng)
    if cfg.quant_bits is None:
        return r, 0.0
    spec = design_quantizer(cfg.quant_bits, 1.0)
    quantize(r, spec, per_antenna_agc(taps, sigma_x2, 1.0), out=r)
    return r, spec.rho_q


def _run_one_realization(args):
    """Score one realization at every grid point: (index, sq, bit_err).

    sq (float64) is the squared error per unit symbol energy and bit_err
    (int64) the bit errors, both shaped (Eb/N0 points, block lengths,
    methods).  Only the first T_c - L positions of each user are scored:
    overlap_save_stream flags the last L as edge for every N_b.
    """
    cfg, index, sigma_x2_by_ebn0 = args
    taps, rng, bits, unit_syms, hx = _transmit(cfg, index)
    n = cfg.T_c - cfg.L  # scored positions per user
    tx_bits = bits.reshape(cfg.K, -1)[:, : n * cfg.bits_per_symbol].ravel()

    # Once per realization: the subband channels per N_b.  Both methods share
    # the gain-free subbands; the equalizer applies each model's gain.
    subbands = {n_b: freq_channel(taps, n_b) for n_b in cfg.block_lens}

    shape = (len(cfg.ebn0_grid), len(cfg.block_lens), len(cfg.methods))
    sq = np.empty(shape)
    bit_err = np.empty(shape, dtype=np.int64)
    for i, ebn0 in enumerate(cfg.ebn0_grid):
        sigma_x2 = sigma_x2_by_ebn0[ebn0]
        x = np.sqrt(sigma_x2) * unit_syms[:, :n]
        r, rho = _receive(cfg, taps, hx, sigma_x2, rng)
        # WF is the filter of the model that ignores quantization (rho_q = 0).
        models = [
            bussgang_model(taps, rho if method == "WF_Q" else 0.0, 1.0, sigma_x2)
            for method in cfg.methods
        ]
        for j, n_b in enumerate(cfg.block_lens):
            fde_cfg = FdeConfig(block_len=n_b, overlap=cfg.L)
            estimates = equalize_stream(r, subbands[n_b], models, fde_cfg)
            for k, xhat in enumerate(estimates[..., :n]):
                # MSE per unit symbol energy: fixed unit change, not blind scaling
                sq[i, j, k] = np.sum(np.abs((xhat - x) / np.sqrt(sigma_x2)) ** 2)
                # BER on the same positions, against the scaled constellation
                _, rx_bits = demap_symbols(xhat / np.sqrt(sigma_x2), cfg.modulation)
                bit_err[i, j, k] = np.count_nonzero(rx_bits != tx_bits)
    return index, sq, bit_err


def run_experiment(cfg: SimConfig) -> SimReport:
    """Run the full Monte-Carlo sweep over (Eb/N0 x N_b x method).

    Deterministic for a fixed seed; channel and data/noise streams are split
    per realization index, and reduction runs in index order regardless of the
    worker count.
    """
    sigma_x2_by_ebn0 = _sigma_x2(cfg, cfg.ebn0_grid, min(cfg.block_lens))
    tasks = [(cfg, i, sigma_x2_by_ebn0) for i in range(cfg.N_sim)]
    # Never more processes than realizations or CPUs: a process pool forks
    # all of its workers up front.
    workers = min(cfg.workers, cfg.N_sim, _thread_count())
    if workers > 1:
        # Each worker process gets an equal share of the equalizer threads, so
        # workers x threads stays within the CPUs.
        share = max(1, _thread_count() // workers)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_set_threads, initargs=(share,)
        ) as pool:
            results = list(pool.map(_run_one_realization, tasks))
    else:
        results = [_run_one_realization(t) for t in tasks]
    results.sort(key=lambda r: r[0])  # fixed-order reduction
    # (N_sim, Eb/N0 points, block lengths, methods)
    sq, bit_err = (np.stack([r[n] for r in results]) for n in (1, 2))

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


def per_position_error_profile(cfg: SimConfig, n_b: int, ebn0_db: float) -> np.ndarray:
    """Ensemble-averaged squared error per within-block position, discard off.

    Blocks are taken from the stream interior (full interference history) and
    equalized independently; position 0 is the newest sample of a block.
    """
    if n_b < cfg.L + 1:
        raise ConfigurationError(f"n_b={n_b} infeasible for L={cfg.L}")
    if cfg.T_c < 2 * n_b:
        raise ConfigurationError(
            f"T_c={cfg.T_c} too short for an interior block (needs 2 n_b = {2 * n_b})"
        )
    sigma_x2 = _sigma_x2(cfg, (ebn0_db,), n_b)[ebn0_db]

    acc = np.zeros(n_b)
    count = 0
    for i in range(cfg.N_sim):
        taps, rng, _, unit_syms, hx = _transmit(cfg, i)
        x = np.sqrt(sigma_x2) * unit_syms
        r, rho = _receive(cfg, taps, hx, sigma_x2, rng)
        bm = bussgang_model(taps, rho, 1.0, sigma_x2)
        bank = build_filter_bank(freq_channel(taps, n_b), bm, FdeConfig(block_len=n_b, overlap=0))
        # skip the first block: its history is the zero-padded stream start
        for s in range(n_b, cfg.T_c - n_b + 1, n_b):
            block = r[:, s : s + n_b][:, ::-1]
            est = equalize_block(block, bank)
            ref = x[:, s : s + n_b][:, ::-1]
            acc += np.sum(np.abs(est - ref) ** 2, axis=0) / sigma_x2
            count += cfg.K
    return acc / count
