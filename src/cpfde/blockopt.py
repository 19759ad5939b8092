"""Closed-form complexity model of block FDE and the optimal block length.

Costs are counted in complex multiplications.  The dynamic part covers the
per-block FFT / subband filtering / inverse FFT; the static part covers the
once-per-coherence-time filter-bank construction.  One exhaustive scan of the
per-symbol cost over every integer block length in the feasible range
[max(L'+1, 2), T_c] gives both the integer optimum and the cheapest power of 2.
"""

from __future__ import annotations

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


def optimal_block_length(p: ComplexityParams, emit_curve: bool = False) -> OptResult:
    """Minimize the per-symbol cost over every integer in [max(L'+1, 2), T_c].

    n_opt_pow2 is the cheapest power of 2 on the same scan, or n_opt when the
    range holds none.  Ties go to the shorter block.
    """
    lo = max(p.L_prime + 1, 2)
    hi = p.T_c
    if hi < lo:
        raise ConstraintViolation(f"no feasible block length in [{lo}, {hi}]")
    grid = np.arange(lo, hi + 1, dtype=np.int64)
    cost = per_symbol_cost(grid, p)
    i = int(np.argmin(cost))
    pow2 = np.flatnonzero((grid & (grid - 1)) == 0)
    j = int(pow2[np.argmin(cost[pow2])]) if pow2.size else i
    curve = None
    if emit_curve:
        curve = np.column_stack(
            [grid.astype(np.float64), cost, static_cost(grid, p), dynamic_cost(grid, p)]
        )
    return OptResult(
        n_opt=int(grid[i]),
        n_opt_pow2=int(grid[j]),
        cost_at_opt=float(cost[i]),
        cost_at_pow2=float(cost[j]),
        curve=curve,
    )


def write_curve_csv(curve: np.ndarray, path) -> None:
    """Write a sampled cost curve as CSV (n_b,t_sym,t_s,t_d_per_frame)."""
    with open(path, "w") as f:
        f.write("n_b,t_sym,t_s,t_d_per_frame\n")
        for n_b, t_sym, t_s, t_d in curve:
            f.write(f"{int(n_b)},{t_sym:.12g},{t_s:.12g},{t_d:.12g}\n")
