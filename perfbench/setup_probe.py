"""Time the one-off cost a CLI user pays before the first realization.

Run in a fresh interpreter so that imports and the quantizer-design cache are
cold: import `cpfde`, choose the block length with
`blockopt.optimal_block_length` as the CLI does, and design the b-bit
quantizer.  Prints one JSON object with the three parts and their sum.

    python3 perfbench/setup_probe.py --src src --K 2 --M 32 --L 15 --T-c 2048 --bits 1
"""

import argparse
import json
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    for flag in ("--K", "--M", "--L", "--T-c", "--bits"):
        parser.add_argument(flag, type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    t0 = time.perf_counter()
    import cpfde  # noqa: F401  (the import itself is timed)
    from cpfde import blockopt, quant

    t1 = time.perf_counter()
    blockopt.optimal_block_length(
        blockopt.ComplexityParams(K=args.K, M=args.M, L_prime=args.L, T_c=args.T_c)
    )
    t2 = time.perf_counter()
    quant.design_quantizer(args.bits, 1.0)
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "optimal_block_length_s": t2 - t1,
        "design_quantizer_s": t3 - t2,
        "setup_s": t3 - t0,
    }))


if __name__ == "__main__":
    main()
