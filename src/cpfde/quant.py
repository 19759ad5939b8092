"""Low-resolution scalar quantization and its Bussgang linearization.

The b-bit uniform quantizer is designed for a zero-mean Gaussian input: its
step minimizes the quantization MSE, and the achieved normalized MSE is the
distortion factor rho_q, which equals one minus the Bussgang gain for an
MSE-optimal quantizer.  The unit-std designs for b = 1..MAX_BITS are tabulated
(_UNIT_DESIGNS); _derive_unit(b), a bounded scalar minimization that needs
scipy, is their derivation and the oracle the table is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelTaps
from .errors import ConfigurationError, DimensionError

MAX_BITS = 16

# (step Delta_b, rho_b) of the MSE-optimal uniform quantizer for N(0, 1), row
# b-1 for b = 1..MAX_BITS: exactly the values _derive_unit(b) returns.
_UNIT_DESIGNS = tuple(
    (float.fromhex(delta), float.fromhex(rho))
    for delta, rho in (
        ("0x1.9884533d43654p+0", "0x1.7419f246c6ef8p-2"),
        ("0x1.fdcaa5b441d54p-1", "0x1.e6cb1dba88b7ep-4"),
        ("0x1.2c0abdd88e085p-1", "0x1.32b4a8151e7b7p-5"),
        ("0x1.573ed4e602888p-2", "0x1.7a3cbb912c170p-7"),
        ("0x1.814eeb1388cafp-3", "0x1.ca1fd4fb05178p-9"),
        ("0x1.aa3df9c90e4e1p-4", "0x1.10a4441186870p-10"),
        ("0x1.d1dc280fa579cp-5", "0x1.3f1db4c3be8c2p-12"),
        ("0x1.f802ccd13f8bfp-6", "0x1.6fc8533755d4cp-14"),
        ("0x1.0e51a5f791dd9p-6", "0x1.a2126ad942a6bp-16"),
        ("0x1.1fe1d1db7e0a6p-7", "0x1.d58fa24b40544p-18"),
        ("0x1.30bb645c30beap-8", "0x1.04f986c062bb1p-19"),
        ("0x1.40eae4552d7cap-9", "0x1.1f8394c4974d8p-21"),
        ("0x1.507e6a9060b06p-10", "0x1.3a53638b7ee8cp-23"),
        ("0x1.5f833ee9b1b2cp-11", "0x1.555bdb1d8546ap-25"),
        ("0x1.6e02ce6841b16p-12", "0x1.709389f02a95cp-27"),
        ("0x1.7c0c5de27361fp-13", "0x1.8bf3686af1095p-29"),
    )
)


@dataclass(frozen=True)
class QuantizerSpec:
    """Scalar quantizer: thresholds a_0..a_{2^b} (outer ones infinite) and levels."""

    thresholds: np.ndarray
    levels: np.ndarray
    rho_q: float


@dataclass(frozen=True)
class BussgangModel:
    """Linear model of the quantized receiver: all a filter bank is built from.

    gain is the scalar Bussgang gain (1 - rho_q); eff_noise_diag holds the
    per-antenna diagonal of the effective-noise covariance, identical for
    every time slot within a block; sigma_x2 is the per-user transmit power.
    The model at rho_q = 0 (gain 1, noise sigma_eta^2 I) ignores quantization.
    """

    gain: float
    eff_noise_diag: np.ndarray
    sigma_x2: float


def _gaussian_partial_moments(thresholds, sigma):
    """P, E[y 1], E[y^2 1] of N(0, sigma^2) over every cell (t_j, t_{j+1}].

    Arrays over the cells; pdf terms at infinite thresholds are zero.
    """
    from scipy.special import ndtr

    t = np.asarray(thresholds, dtype=np.float64) / sigma
    pdf = np.exp(-0.5 * t**2) / np.sqrt(2.0 * np.pi)
    tpdf = np.where(np.isfinite(t), t, 0.0) * pdf
    P = np.diff(ndtr(t))
    m1 = sigma * (pdf[:-1] - pdf[1:])
    m2 = sigma**2 * (P + tpdf[:-1] - tpdf[1:])
    return P, m1, m2


def gaussian_quant_mse(thresholds: np.ndarray, levels: np.ndarray, sigma: float) -> float:
    """Exact quantization MSE for a zero-mean Gaussian input of std sigma (needs scipy)."""
    P, m1, m2 = _gaussian_partial_moments(thresholds, sigma)
    q = np.asarray(levels, dtype=np.float64)
    # Accumulated in cell order (not pairwise) so that designs, whose optimal
    # step sits on a flat minimum, reproduce those of a scalar loop over cells.
    return float(np.cumsum(q * q * P - 2.0 * q * m1 + m2)[-1])


def _uniform_grid(bits: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    n = 2**bits
    half = n // 2
    interior = (np.arange(1, n) - half) * delta
    thresholds = np.concatenate(([-np.inf], interior, [np.inf]))
    levels = (np.arange(1, n + 1) - half - 0.5) * delta
    return thresholds, levels


def design_quantizer(b: int, sigma: float) -> QuantizerSpec:
    """MSE-optimal uniform b-bit quantizer for a zero-mean Gaussian of std sigma.

    Equal steps, levels at interval centers, and the step that minimizes the
    closed-form Gaussian MSE, read from the unit-std table and rescaled.
    """
    if not 1 <= b <= MAX_BITS:
        raise ConfigurationError(f"bit depth {b} outside 1..{MAX_BITS}")
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ConfigurationError("sigma must be finite and positive")
    thresholds, levels, rho = _design_unit(b)
    return QuantizerSpec(
        thresholds=thresholds * sigma,
        levels=levels * sigma,
        rho_q=rho,
    )


def _derive_unit(b: int) -> tuple[float, float]:
    """Unit-std step and rho_q of the b-bit design, by bounded minimization.

    The derivation of _UNIT_DESIGNS; only the tests and a re-derivation of the
    table call it, so scipy is imported here rather than with the module.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda d: gaussian_quant_mse(*_uniform_grid(b, d), 1.0),
        bounds=(1e-8, 32.0 / 2**b),
        method="bounded",
        options={"xatol": 1e-12},
    )
    delta = float(res.x)
    return delta, gaussian_quant_mse(*_uniform_grid(b, delta), 1.0)


@lru_cache(maxsize=None)
def _design_unit(b: int):
    """Tabulated design for unit std (cached); other inputs are exact rescalings."""
    delta, rho = _UNIT_DESIGNS[b - 1]
    thresholds, levels = _uniform_grid(b, delta)
    return thresholds, levels, rho


def quantize(
    y: np.ndarray,
    spec: QuantizerSpec,
    scale: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Quantize real and imaginary parts element-wise with one design.

    y is an M-vector or an M x T stream.  scale, if given, holds one factor per
    receive antenna (its AGC std): row m uses the thresholds and levels of spec
    times scale[m], which for a unit-std spec is design_quantizer(b, scale[m]).
    out, if given, is a complex array of y's shape that receives the result;
    it may be y itself (each part of a row is read before it is written).
    """
    y = np.asarray(y, dtype=np.complex128)
    if out is None:
        out = np.empty_like(y)
    elif out.shape != y.shape or out.dtype != np.complex128:
        raise DimensionError(f"out must be complex128 of shape {y.shape}")
    squeeze = y.ndim == 1
    if squeeze:
        y, out = y[:, None], out[:, None]
    M = y.shape[0]
    scale = np.ones(M) if scale is None else np.asarray(scale, dtype=np.float64)
    if scale.shape != (M,):
        raise DimensionError(f"scale must hold one factor per antenna ({M})")
    # Row by row: one normalized whole-stream searchsorted measured slower.
    for m in range(M):
        thresholds = spec.thresholds[1:-1] * scale[m]
        levels = spec.levels * scale[m]
        out[m].real = levels[np.searchsorted(thresholds, y[m].real, side="left")]
        out[m].imag = levels[np.searchsorted(thresholds, y[m].imag, side="left")]
    return out[:, 0] if squeeze else out


def bussgang_model(
    taps: ChannelTaps, rho_q: float, sigma_eta2: float, sigma_x2: float = 1.0
) -> BussgangModel:
    """Bussgang model of the linearized quantized receiver at transmit power sigma_x2.

    Per-antenna diagonal: (1-rho_q) * (sigma_eta^2 + rho_q * sigma_x^2 * c_m)
    with c_m the m-th diagonal entry of sum_l H_l H_l^H.  sigma_x2 scales the
    signal part of the receive variance; the quantizer is assumed matched to
    each antenna's input variance.
    """
    if not (0.0 <= rho_q < 1.0):
        raise ConfigurationError("rho_q must lie in [0, 1)")
    if not (sigma_eta2 > 0):
        raise ConfigurationError("sigma_eta2 must be positive")
    if not (sigma_x2 > 0):
        raise ConfigurationError("sigma_x2 must be positive")
    c = taps.tap_gram_diag()
    gain = 1.0 - rho_q
    diag = gain * (sigma_eta2 + rho_q * sigma_x2 * c)
    return BussgangModel(gain=gain, eff_noise_diag=diag, sigma_x2=sigma_x2)


def per_antenna_agc(taps: ChannelTaps, sigma_x2: float, sigma_eta2: float) -> np.ndarray:
    """Receive std per real dimension for each antenna, from known CSI.

    Antenna m sees variance sigma_x^2 * c_m + sigma_eta^2 split evenly over the
    real and imaginary parts.
    """
    c = taps.tap_gram_diag()
    return np.sqrt((sigma_x2 * c + sigma_eta2) / 2.0)
