"""Correctness checks on the CLI's outputs.

An operation is one sweep report row or one bathtub profile.  It fails if the
CLI raised or returned non-zero, if a value is non-finite or out of range, or,
at the seed the reference was stored for, if it differs from the reference by
more than rounding: a change such as FFT convolution or loop hoisting may move
the last digits, but never the counts or the leading digits.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
REL_TOL = 1e-6
BER_ABS_BITS = 2  # bit decisions that may flip when an estimate moves by rounding
BITS_PER_SYMBOL = 4  # 16-QAM, the CLI default that every workload uses


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json"


def load_reference(workload_name: str, seed: int) -> dict | None:
    path = reference_path(workload_name)
    if seed != REFERENCE_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())


def read_output(workload, path: Path):
    """Parse the CLI's CSV: sweep rows as dicts, or the bathtub profile as floats."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if workload.subcommand == "sweep":
        return [
            {
                "ebn0_db": float(r["ebn0_db"]),
                "n_b": int(r["n_b"]),
                "method": r["method"],
                "mse": float(r["mse"]),
                "ber": float(r["ber"]),
                "symbols": int(r["symbols"]),
                "edge_excluded": int(r["edge_excluded"]),
            }
            for r in rows
        ]
    return [float(r["error_power"]) for r in rows]


def _close(a: float, b: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def _row_errors(row: dict, workload, ref: dict | None) -> list[str]:
    errors = []
    if not (math.isfinite(row["mse"]) and row["mse"] >= 0):
        errors.append(f"mse {row['mse']} not finite and >= 0")
    if not (math.isfinite(row["ber"]) and 0 <= row["ber"] <= 1):
        errors.append(f"ber {row['ber']} not in [0, 1]")
    if row["symbols"] + row["edge_excluded"] != workload.N_sim * workload.K * workload.T_c:
        errors.append("symbols + edge_excluded != N_sim * K * T_c")
    if row["symbols"] < 1:
        errors.append("no symbols scored")
    if ref is not None:
        bits = max(row["symbols"], 1) * BITS_PER_SYMBOL
        if row["symbols"] != ref["symbols"] or row["edge_excluded"] != ref["edge_excluded"]:
            errors.append("symbol counts differ from reference")
        if not _close(row["mse"], ref["mse"]):
            errors.append(f"mse {row['mse']!r} != reference {ref['mse']!r}")
        if not _close(row["ber"], ref["ber"], BER_ABS_BITS / bits):
            errors.append(f"ber {row['ber']!r} != reference {ref['ber']!r}")
    return errors


def _key(row: dict) -> tuple:
    return row["ebn0_db"], row["n_b"], row["method"]


def check_output(workload, output, reference: dict | None) -> list[str]:
    """One message per failed operation (empty when every operation passed).

    A missing expected row is a failed operation; unexpected or duplicate rows
    add one more failure.
    """
    if workload.subcommand != "sweep":
        return _profile_errors(output, workload, reference)
    expected = [
        (e, n, m) for e in workload.ebn0 for n in workload.block_lens for m in workload.methods
    ]
    by_key = {_key(r): r for r in output}
    refs = {_key(r): r for r in reference["rows"]} if reference else {}
    failures = []
    for k in expected:
        if k not in by_key:
            failures.append(f"{k}: missing from report")
            continue
        errors = _row_errors(by_key[k], workload, refs.get(k) if reference else None)
        if reference and k not in refs:
            errors.append("missing from reference")
        if errors:
            failures.append(f"{k}: " + "; ".join(errors))
    extra = set(by_key) - set(expected)
    if len(output) != len(by_key) or extra:
        failures.append(f"unexpected or duplicate rows: {sorted(extra)}")
    return failures


def _profile_errors(profile: list[float], workload, reference: dict | None) -> list[str]:
    errors = []
    if len(profile) != workload.block_len:
        errors.append(f"profile has {len(profile)} positions, expected {workload.block_len}")
    if not all(math.isfinite(v) and v >= 0 for v in profile):
        errors.append("profile value not finite and >= 0")
    if reference is not None:
        ref = reference["profile"]
        if len(ref) != len(profile) or not all(_close(a, b) for a, b in zip(profile, ref)):
            errors.append("profile differs from reference")
    return ["profile: " + "; ".join(errors)] if errors else []


def check_validate(stdout: str, code: int) -> tuple[int, list[str]]:
    """Score `cpfde validate --json`: (checks attempted, failure messages)."""
    try:
        results = json.loads(stdout)
    except json.JSONDecodeError:
        return 1, [f"validate printed no JSON (exit {code})"]
    failures = [
        f"validate {name}: {res.get('detail')}" for name, res in results.items() if not res.get("pass")
    ]
    if code != 0 and not failures:
        failures.append(f"validate exited {code}")
    return max(len(results), 1), failures


def as_reference(workload, output) -> dict:
    """The reference-file form of a parsed output."""
    key = "rows" if workload.subcommand == "sweep" else "profile"
    return {"workload": workload.name, key: output}
