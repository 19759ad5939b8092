"""Closed-form complexity model of block FDE and the optimal block length.

Costs are counted in complex multiplications.  The dynamic part covers the
per-block FFT / subband filtering / inverse FFT; the static part covers the
once-per-coherence-time filter-bank construction.  The per-symbol cost is
minimized over the block length by exhaustive integer (or power-of-2) scan
inside the feasible range [L'+1, T_c].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation


@dataclass(frozen=True)
class ComplexityParams:
    """Users K, antennas M, overlap L' and coherence time T_c (symbols)."""

    K: int
    M: int
    L_prime: int
    T_c: int

    def __post_init__(self):
        if self.K < 1 or self.M < 1 or self.L_prime < 0 or self.T_c < 1:
            raise ConstraintViolation("K, M >= 1; L' >= 0; T_c >= 1 required")
        if self.T_c < self.L_prime + 1:
            raise ConstraintViolation(
                f"T_c={self.T_c} leaves no feasible block length (need >= L'+1={self.L_prime + 1})"
            )


@dataclass(frozen=True)
class OptResult:
    """Optimal block length, its power-of-2 surrogate, and the cost curve."""

    n_opt: int
    n_opt_pow2: int
    cost_at_opt: float
    cost_at_pow2: float
    curve: np.ndarray | None = None  # columns: n_b, t_sym, t_s, t_d_per_frame


def dynamic_cost(N_b, p: ComplexityParams):
    """Per-frame cost: (M+K) N_b log2(N_b) + K M N_b complex multiplications."""
    N_b = np.asarray(N_b, dtype=np.float64)
    if np.any(N_b < 2):
        raise ConstraintViolation("N_b must be >= 2")
    out = (p.M + p.K) * N_b * np.log2(N_b) + p.K * p.M * N_b
    return float(out) if out.ndim == 0 else out


def static_cost(N_b, p: ComplexityParams):
    """Once-per-coherence-time cost: (K M log2(N_b) + K M + 2 K^2 M + K^3) N_b."""
    N_b = np.asarray(N_b, dtype=np.float64)
    if np.any(N_b < 2):
        raise ConstraintViolation("N_b must be >= 2")
    out = (
        p.K * p.M * np.log2(N_b) + p.K * p.M + 2 * p.K**2 * p.M + p.K**3
    ) * N_b
    return float(out) if out.ndim == 0 else out


def frame_count(N_b, p: ComplexityParams, exact: bool = False):
    """Frames per coherence time with N_b - L' retained samples per frame.

    The default is the smooth real-valued count T_c / (N_b - L'); exact=True
    counts whole frames covering the stream.
    """
    N_b = np.asarray(N_b, dtype=np.float64)
    if exact:
        return np.ceil((p.T_c - p.L_prime) / (N_b - p.L_prime))
    return p.T_c / (N_b - p.L_prime)


def per_symbol_cost(N_b, p: ComplexityParams, exact: bool = False):
    """Complex multiplications per estimated symbol at block length N_b."""
    arr = np.asarray(N_b, dtype=np.float64)
    if np.any(arr < p.L_prime + 1) or np.any(arr > p.T_c):
        raise ConstraintViolation(
            f"N_b must lie in [{p.L_prime + 1}, {p.T_c}]"
        )
    ts = static_cost(arr, p)
    td = dynamic_cost(arr, p)
    if exact:
        out = (ts + td * frame_count(arr, p, exact=True)) / (p.K * p.T_c)
    else:
        out = ts / (p.K * p.T_c) + td / (p.K * (arr - p.L_prime))
    return float(out) if np.ndim(out) == 0 else out


def _pow2_candidates(lo: int, hi: int) -> list[int]:
    out = []
    n = 2
    while n <= hi:
        if n >= lo:
            out.append(n)
        n *= 2
    return out


def optimal_block_length(
    p: ComplexityParams,
    mode: str = "integer-exhaustive",
    emit_curve: bool = False,
) -> OptResult:
    """Minimize the per-symbol cost over feasible block lengths.

    integer-exhaustive scans every integer in [max(L'+1, 2), T_c]; power-of-2
    scans powers of 2 in range.  n_opt_pow2 is the cheaper of the two powers
    of 2 bracketing the integer optimum (clipped to the feasible range).
    """
    lo = max(p.L_prime + 1, 2)
    hi = p.T_c
    if hi < lo:
        raise ConstraintViolation(f"no feasible block length in [{lo}, {hi}]")
    if mode == "integer-exhaustive":
        grid = np.arange(lo, hi + 1, dtype=np.int64)
    elif mode == "power-of-2":
        cands = _pow2_candidates(lo, hi)
        if not cands:
            raise ConstraintViolation("no feasible power-of-2 block length")
        grid = np.asarray(cands, dtype=np.int64)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    cost = per_symbol_cost(grid, p)
    i = int(np.argmin(cost))
    n_opt = int(grid[i])
    cost_opt = float(cost[i])

    if mode == "power-of-2":
        n_pow2, cost_pow2 = n_opt, cost_opt
    else:
        below = 2 ** math.floor(math.log2(n_opt))
        above = 2 ** math.ceil(math.log2(n_opt))
        cands = [n for n in {below, above} if lo <= n <= hi]
        if not cands:
            cands = _pow2_candidates(lo, hi)
        if cands:
            costs = {n: float(per_symbol_cost(n, p)) for n in cands}
            n_pow2 = min(costs, key=lambda n: (costs[n], n))
            cost_pow2 = costs[n_pow2]
        else:
            n_pow2, cost_pow2 = n_opt, cost_opt  # no power of 2 is feasible

    curve = None
    if emit_curve:
        curve = np.column_stack(
            [grid.astype(np.float64), cost, static_cost(grid, p), dynamic_cost(grid, p)]
        )
    return OptResult(
        n_opt=n_opt,
        n_opt_pow2=n_pow2,
        cost_at_opt=cost_opt,
        cost_at_pow2=cost_pow2,
        curve=curve,
    )


def write_curve_csv(curve: np.ndarray, path) -> None:
    """Write a sampled cost curve as CSV (n_b,t_sym,t_s,t_d_per_frame)."""
    with open(path, "w") as f:
        f.write("n_b,t_sym,t_s,t_d_per_frame\n")
        for n_b, t_sym, t_s, t_d in curve:
            f.write(f"{int(n_b)},{t_sym:.12g},{t_s:.12g},{t_d:.12g}\n")
