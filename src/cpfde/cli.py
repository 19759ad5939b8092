"""Command-line front end.

Subcommands: optimize-block, sweep, bathtub, quantizer-table, validate.
Configuration precedence: command-line flags > config file > defaults, and the
effective configuration is echoed to a JSON sidecar next to every CSV output.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from . import blockopt, channel, fde, quant, simulate
from .errors import CpfdeError

# Defaults of the settings that --paper-scale changes, as (desk, paper);
# optimize-block always takes the paper column.
SCALE_DEFAULTS = {
    "antennas": (32, 64), "taps": (16, 128), "coherence": (2048, 50000), "realizations": (20, 200)
}


def _scaled(args, name: str) -> int:
    value = getattr(args, name)
    return SCALE_DEFAULTS[name][args.paper_scale] if value is None else value


def _config_tokens(path: str) -> list[str]:
    """Every `key = value` of an INI file, from any section, as `--key=value`."""
    cp = configparser.ConfigParser()
    with open(path) as f:
        cp.read_file(f)
    tokens = []
    for section in cp.values():
        for key, value in section.items():
            if key == "config":
                raise configparser.Error("a config file cannot name another config file")
            tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _output_path(args, name: str) -> Path:
    """`name` under --output-dir, with its parent directory created."""
    out = Path(args.output_dir) / name
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, header: str, lines, sidecar: dict) -> None:
    """Write a CSV of `header` and one line per item of `lines` to out, and
    `sidecar` as JSON to out's name plus `.json`."""
    with open(out, "w") as f:
        f.write(header + "\n")
        f.writelines(line + "\n" for line in lines)
    with open(out.with_suffix(out.suffix + ".json"), "w") as f:
        json.dump(sidecar, f, indent=2, default=str)


# --------------------------------------------------------------------------
# optimize-block
# --------------------------------------------------------------------------

def cmd_optimize_block(args) -> int:
    p = blockopt.ComplexityParams(
        K=args.users, M=_scaled(args, "antennas"), L_prime=args.overlap,
        T_c=_scaled(args, "coherence"),
    )
    out = _output_path(args, args.emit_curve) if args.emit_curve else None
    res = blockopt.optimal_block_length(p, emit_curve=out is not None)
    print(f"n_opt {res.n_opt}")
    print(f"n_opt_pow2 {res.n_opt_pow2}")
    print(f"t_sym_at_opt {res.cost_at_opt:.12g}")
    print(f"t_sym_at_pow2 {res.cost_at_pow2:.12g}")
    if out is not None:
        _write_report(
            out,
            "n_b,t_sym,t_s,t_d_per_frame",
            (f"{int(n)},{t:.12g},{ts:.12g},{td:.12g}" for n, t, ts, td in res.curve),
            {
                "subcommand": "optimize-block",
                "params": {"K": p.K, "M": p.M, "L_prime": p.L_prime, "T_c": p.T_c},
                "n_opt": res.n_opt,
                "n_opt_pow2": res.n_opt_pow2,
            },
        )
    return 0


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _list_of(cast, what: str):
    def parse(text: str) -> tuple:
        try:
            return tuple(cast(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None

    return parse


def _methods(text: str) -> tuple[str, ...]:
    # Other names pass through for SimConfig to reject.
    names = {"wf": "WF", "wfq": "WF_Q", "wf_q": "WF_Q"}
    tokens = (t.strip().lower() for t in text.split(","))
    return tuple(names.get(t, t) for t in tokens)


def _sim_config(args, **extra) -> simulate.SimConfig:
    K, M, T_c = args.users, _scaled(args, "antennas"), _scaled(args, "coherence")
    L = _scaled(args, "taps") - 1
    block_lens = args.block_lens
    if block_lens is None:
        opt = blockopt.optimal_block_length(
            blockopt.ComplexityParams(K=K, M=M, L_prime=L, T_c=T_c)
        )
        block_lens = tuple(dict.fromkeys((opt.n_opt_pow2, T_c)))
    return simulate.SimConfig(
        K=K, M=M, L=L, T_c=T_c, N_sim=_scaled(args, "realizations"),
        pdp=channel.PowerDelayProfile.eva(L + 1) if args.channel == "eva" else None,
        modulation=args.modulation, quant_bits=args.bits, block_lens=block_lens,
        methods=args.methods, seed=args.seed, workers=args.workers, **extra,
    )


def cmd_sweep(args) -> int:
    cfg = _sim_config(args, ebn0_grid=args.ebn0)
    out = _output_path(args, args.output)
    report = simulate.run_experiment(cfg)
    _write_report(
        out,
        "ebn0_db,n_b,method,mse,ber,symbols,edge_excluded,seed",
        (
            f"{r.ebn0_db:.12g},{r.n_b},{r.method},{r.mse:.12g},{r.ber:.12g},"
            f"{r.symbols_counted},{r.edge_symbols_excluded},{cfg.seed}"
            for r in report.rows
        ),
        {
            "seed": cfg.seed,
            "config": cfg.snapshot(),
            "mse_stderr": [r.mse_stderr for r in report.rows],  # in CSV row order
        },
    )
    for r in report.rows:
        print(
            f"ebn0={r.ebn0_db:g} n_b={r.n_b} {r.method}: "
            f"mse={r.mse:.12g} ber={r.ber:.12g}"
        )
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# bathtub
# --------------------------------------------------------------------------

def cmd_bathtub(args) -> int:
    cfg = _sim_config(args, ebn0_grid=(args.ebn0_point,))
    n_b = cfg.block_lens[0] if args.block_len is None else args.block_len
    out = _output_path(args, args.output)
    profile = simulate.per_position_error_profile(cfg, n_b, args.ebn0_point)
    # Edge: the n_b//8 newest and n_b//8 oldest positions (at least one each);
    # center: the middle half.
    k = max(n_b // 8, 1)
    edge = (profile[:k].mean() + profile[-k:].mean()) / 2
    center = profile[n_b // 4 : n_b - n_b // 4].mean()
    ratio = float(edge / center)
    _write_report(
        out,
        "position,error_power",
        (f"{i},{p:.12g}" for i, p in enumerate(profile)),
        {
            "subcommand": "bathtub",
            "n_b": n_b,
            "ebn0_db": args.ebn0_point,
            "edge_center_ratio": ratio,
            "config": cfg.snapshot(),
        },
    )
    print(f"edge/center error ratio {ratio:.6g}")
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# quantizer-table
# --------------------------------------------------------------------------

def cmd_quantizer_table(args) -> int:
    print("b,delta_over_sigma,rho_q")
    for b in range(1, 9):
        spec = quant.design_quantizer(b, 1.0)
        delta = spec.levels[1] - spec.levels[0]
        print(f"{b},{delta:.12g},{spec.rho_q:.12g}")
    return 0


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def _check_diagonalization(broken: bool) -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        M, K, L = rng.integers(1, 5), rng.integers(1, 4), rng.integers(0, 5)
        N_b = int(rng.integers(L + 1, 17))
        taps = channel.ChannelTaps(
            rng.standard_normal((L + 1, M, K)) + 1j * rng.standard_normal((L + 1, M, K))
        )
        cir = channel.build_block_circulant(taps, N_b)
        if broken:
            # negative-control hook: perturb one tap after the circulant build
            taps = channel.ChannelTaps(taps.taps + 0.1)
        subbands = channel.freq_channel(taps, N_b)
        F = fde.unitary_dft_matrix(N_b)
        lhs = np.kron(F, np.eye(M)) @ cir @ np.kron(F.conj().T, np.eye(K))
        bd = np.zeros_like(lhs)
        for i in range(N_b):
            bd[i * M : (i + 1) * M, i * K : (i + 1) * K] = subbands[i]
        worst = max(worst, np.linalg.norm(lhs - bd) / max(np.linalg.norm(bd), 1e-30))
    return worst < 1e-10, f"max relative error {worst:.3g}"


def _check_fde_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        M, K, L, N_b = 6, 2, 3, 16
        taps = channel.ChannelTaps(
            rng.standard_normal((L + 1, M, K)) + 1j * rng.standard_normal((L + 1, M, K))
        )
        rho = float(rng.uniform(0.0, 0.5))
        bm = quant.bussgang_model(taps, rho, 1.0)
        cir = channel.build_block_circulant(taps, N_b, rho)
        cfg = fde.FdeConfig(block_len=N_b, overlap=L)
        bank = fde.build_filter_bank(channel.freq_channel(taps, N_b), bm, cfg)
        x = rng.standard_normal(K * N_b) + 1j * rng.standard_normal(K * N_b)
        r = cir @ x + 0.1 * (
            rng.standard_normal(M * N_b) + 1j * rng.standard_normal(M * N_b)
        )
        dense = fde.time_domain_wf(r, cir, bm)
        fast = fde.equalize_block(r.reshape(M, N_b, order="F"), bank).reshape(-1, order="F")
        worst = max(worst, np.linalg.norm(fast - dense) / np.linalg.norm(dense))
    return worst < 1e-9, f"max relative error {worst:.3g}"


def _check_bussgang_gain() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    spec = quant.design_quantizer(1, 1.0)
    y = rng.standard_normal(10**6)
    qy = np.where(y > 0, spec.levels[1], spec.levels[0])
    gain = float(np.mean(qy * y) / np.mean(y * y))
    err = abs(gain - 2 / np.pi) / (2 / np.pi)
    return err < 0.01, f"empirical gain {gain:.5f}, relative error {err:.3g}"


def _check_argmin_invariance() -> tuple[bool, str]:
    # The integer argmin can shift by one when M doubles (the curve is flat to
    # ~1e-7 relative there); the deployable power-of-2 choice is M-invariant.
    details = []
    ok = True
    for lp in (31, 127):
        opts = {}
        for M in (64, 128):
            p = blockopt.ComplexityParams(K=2, M=M, L_prime=lp, T_c=50000)
            opts[M] = blockopt.optimal_block_length(p).n_opt_pow2
        ok = ok and opts[64] == opts[128]
        details.append(f"L'={lp}: pow2 {opts[64]} vs {opts[128]}")
    return ok, "; ".join(details)


def cmd_validate(args) -> int:
    checks = {
        "diagonalization": lambda: _check_diagonalization(args.broken == "circulant"),
        "fde_vs_wf_oracle": _check_fde_oracle,
        "bussgang_gain": _check_bussgang_gain,
        "argmin_m_invariance": _check_argmin_invariance,
    }
    results = {}
    failures = []
    for name, fn in checks.items():
        ok, detail = fn()
        ok = bool(ok)
        results[name] = {"pass": ok, "detail": detail}
        if not ok:
            failures.append(name)
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for name, res in results.items():
            print(f"{'PASS' if res['pass'] else 'FAIL'} {name}: {res['detail']}")
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpfde",
        description="CP-free frequency-domain equalization for quantized massive MIMO",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="INI file; each key is read as --key=value")
        p.add_argument("--output-dir", default=".", help="output directory")
        p.add_argument("--users", type=int, default=2)
        p.add_argument("--antennas", type=int)
        p.add_argument("--coherence", type=int)

    p = sub.add_parser("optimize-block", help="minimize per-symbol complexity over N_b")
    common(p)
    p.add_argument("--overlap", type=int, default=127)
    p.add_argument("--emit-curve", metavar="FILE.csv")
    p.set_defaults(func=cmd_optimize_block, paper_scale=True)

    def simulation(p):
        common(p)
        p.add_argument("--taps", type=int, help="channel impulse response length L+1")
        p.add_argument("--channel", choices=["uniform", "eva"], default="uniform")
        p.add_argument("--modulation", type=int, default=16)
        p.add_argument("--realizations", type=int)
        p.add_argument("--bits", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument(
            "--block-lens", type=_list_of(int, "integers"),
            help="comma-separated block lengths (default: n_opt_pow2 and T_c)",
        )
        p.add_argument(
            "--methods", type=_methods, default="wf,wfq", help="comma-separated subset of wf,wfq"
        )

    p = sub.add_parser("sweep", help="Monte-Carlo MSE/BER sweep")
    simulation(p)
    p.add_argument(
        "--ebn0", type=_list_of(float, "numbers"), default="0,5,10,15",
        help="comma-separated Eb/N0 grid in dB",
    )
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--output", default="report.csv")
    p.set_defaults(func=cmd_sweep)

    # No abbreviations: --ebn0 would otherwise be taken for --ebn0-point.
    p = sub.add_parser(
        "bathtub", help="per-position error profile (discard disabled)", allow_abbrev=False
    )
    simulation(p)
    p.add_argument("--block-len", type=int)
    p.add_argument("--ebn0-point", type=float, default=10.0, help="profiled Eb/N0 in dB")
    p.add_argument("--output", default="bathtub.csv")
    p.set_defaults(func=cmd_bathtub, paper_scale=False)

    p = sub.add_parser("quantizer-table", help="print the b-bit design table as CSV")
    p.set_defaults(func=cmd_quantizer_table)

    p = sub.add_parser("validate", help="run the oracle-equivalence property suite")
    p.add_argument("--json", action="store_true")
    p.add_argument("--break", dest="broken", choices=["circulant"], help="fault hook")
    p.set_defaults(func=cmd_validate)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse `argv`; a `--config` file's tokens go ahead of the flags, so a flag wins."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            tokens = _config_tokens(args.config)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            parser.error(f"--config {args.config}: {exc}")
        i = argv.index(args.subcommand) + 1
        args = parser.parse_args([*argv[:i], *tokens, *argv[i:]])
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except CpfdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
