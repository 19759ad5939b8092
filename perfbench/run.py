"""cpfde benchmark: drive the `cpfde` CLI in-process on one workload and score it.

    python3 perfbench/run.py --workload desk_sweep --seed 0 --seconds 55 --trace 0

Run from anywhere; the library is imported from `src/` next to this directory.
The run measures setup (fresh interpreters), runs `cpfde validate --json`
once, fills the quantizer-design cache, then repeats the workload until
`--seconds` have passed.  Every run's output is checked (see checks.py).
With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates traced and untraced runs and reports the per-layer
metrics, including the tracing overhead.  The last line of standard output is one JSON
object; a record with provenance, per-run times and the spans is written to
`.perfbench-results/` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make `perfbench` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks
from perfbench.tracer import PROBES, Tracer
from perfbench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS_DIR = ROOT / ".perfbench-results"
SETUP_REPEATS = 3
# Every N_b any workload sweeps; the cost-model metrics are named after these.
COST_GRID = sorted({n for w in WORKLOADS.values() for n in w.block_lens})
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, the library sources are missing)."""


def cap_blas_threads() -> int:
    """Run BLAS on one thread; call before numpy loads.

    The workloads' matrices are small: on a 2-CPU host two OpenBLAS threads
    spin on both CPUs for about 2x the CPU time and a slower, noisier run.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def load_cli(src: Path = SRC):
    """Import `cpfde.cli` from `src`, refusing any other installed copy."""
    if not (src / "cpfde" / "__init__.py").is_file():
        raise BenchmarkError(f"cpfde sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cpfde.cli

    if Path(cpfde.__file__).resolve().parent != (src / "cpfde").resolve():
        raise BenchmarkError(f"imported cpfde from {cpfde.__file__}, not {src}")
    return cpfde.cli


def run_cli(main, argv: list[str]) -> tuple[object, float, str]:
    """(exit code or exception text, wall seconds, captured stdout) of one CLI call."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a crashing run is a failed operation
        code = f"raised {exc!r}"
    return code, time.perf_counter() - start, out.getvalue()


def measure_setup(workload: Workload, repeats: int) -> list[dict]:
    """Setup cost in `repeats` fresh interpreters (see setup_probe.py)."""
    argv = [
        sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"),
        "--src", str(SRC), "--K", str(workload.K), "--M", str(workload.M),
        "--L", str(workload.L), "--T-c", str(workload.T_c), "--bits", str(workload.bits),
    ]
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


class Runner:
    """Runs one workload repeatedly and scores every run's output."""

    def __init__(self, cli, workload: Workload, seed: int, output_dir: str):
        self.cli = cli  # call cli.main through the module so the tracer's wrapper is seen
        self.workload = workload
        self.output = Path(output_dir) / workload.output_name
        self.argv = workload.cli_argv(seed, output_dir)
        # At other seeds the first run becomes the reference for the later ones.
        self.reference = checks.load_reference(workload.name, seed)
        self.attempted = 0
        self.failures: list[str] = []

    def validate(self) -> None:
        code, _, stdout = run_cli(self.cli.main, ["validate", "--json"])
        attempted, failures = checks.check_validate(stdout, code)
        self.attempted += attempted
        self.failures += failures

    def run(self) -> float:
        """Run the workload once; return its wall time in seconds."""
        ops = self.workload.operations
        self.output.unlink(missing_ok=True)
        code, seconds, _ = run_cli(self.cli.main, self.argv)
        self.attempted += ops
        if code != 0:
            self.failures += [f"cpfde exited {code}"] * ops
            return seconds
        try:
            output = checks.read_output(self.workload, self.output)
        except (OSError, ValueError, KeyError) as exc:
            self.failures += [f"unreadable output: {exc!r}"] * ops
            return seconds
        self.failures += checks.check_output(self.workload, output, self.reference)[:ops]
        if self.reference is None:
            self.reference = checks.as_reference(self.workload, output)
        return seconds


def layer_metrics(tracer: Tracer, runs: int, workload: Workload, model_cost: dict) -> dict:
    """Per-layer metrics of each traced run, reduced to their medians over runs."""
    per_run = []
    for run_id in range(runs):
        stats = tracer.layer_stats(run_id)
        rec = tracer.records[run_id]
        m = {}
        for name, s in stats.items():
            for stat, value in s.items():
                m[f"{name}.{stat}"] = value
        m["simulate.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.startswith("simulate.")
        )
        fc_calls = m.get("channel.freq_channel.calls", 0)
        distinct = len(rec.get("freq_channel_inputs", ()))
        m["channel.freq_channel.distinct_ratio"] = distinct / fc_calls if fc_calls else 0.0
        m["fde.build_filter_bank.subbands"] = rec.get("subbands", 0)
        m["fde.overlap_save_stream.blocks"] = rec.get("blocks", 0)
        computed = rec.get("computed", 0)
        m["fde.overlap_save_stream.useful_ratio"] = rec["retained"] / computed if computed else 0.0
        for n_b in sorted(set(COST_GRID) | set(workload.block_lens)):
            symbols = rec.get("fde_symbols", {}).get(n_b, 0)
            s_per_symbol = rec["fde_s"][n_b] / symbols if symbols else 0.0
            cmult = model_cost.get(n_b, 0.0)
            m[f"blockopt.cmult_per_symbol.n{n_b}"] = cmult
            m[f"fde.s_per_symbol.n{n_b}"] = s_per_symbol
            m[f"fde.ns_per_cmult.n{n_b}"] = s_per_symbol * 1e9 / cmult if cmult else 0.0
        per_run.append(m)
    names = set().union(*per_run)
    return {k: statistics.median(m.get(k, 0) for m in per_run) for k in sorted(names)}


def model_costs(workload: Workload) -> dict[int, float]:
    """`blockopt.per_symbol_cost` (whole frames) at each N_b the workload sweeps."""
    from cpfde import blockopt

    p = blockopt.ComplexityParams(K=workload.K, M=workload.M, L_prime=workload.L, T_c=workload.T_c)
    return {n_b: float(blockopt.per_symbol_cost(n_b, p, exact=True)) for n_b in workload.block_lens}


def provenance(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    def proc_field(path: str, key: str) -> str:
        with contextlib.suppress(OSError):
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        return "unknown"

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # never report the commit of an enclosing repository
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "ram": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": commit,
        "seed": seed,
    }


def select(metrics: dict, kind: str, default_zero: bool) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, each with its unit."""
    out = {}
    for spec in SPEC[kind]:
        value = metrics.get(spec["name"], 0) if default_zero else metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_repeats: int = SETUP_REPEATS,
    log=print,
) -> tuple[dict, dict]:
    """Benchmark one workload: returns (result line, full record)."""
    blas_threads = cap_blas_threads()
    cli = load_cli()
    record = {"workload": workload.name, "seconds": seconds, "trace": int(trace)}
    setup = [] if trace else measure_setup(workload, setup_repeats)

    tracer = Tracer()
    untraced, traced = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as output_dir:
        runner = Runner(cli, workload, seed, output_dir)
        runner.validate()
        # The one lazy set-up of a run is the quantizer-design cache; fill it
        # (setup_s measures it cold) so that every timed run is warm.
        from cpfde import quant

        quant.design_quantizer(workload.bits, 1.0)
        start = time.perf_counter()
        # Start a run only if a typical run still ends inside the window.
        while (
            not untraced
            or (trace and not traced)
            or time.perf_counter() - start + statistics.median(untraced + traced) <= seconds
        ):
            if trace and len(traced) <= len(untraced):
                tracer.run_id = len(traced)
                tracer.install(PROBES)
                try:
                    traced.append(runner.run())
                finally:
                    tracer.uninstall()
            else:
                untraced.append(runner.run())

    wall = statistics.median(untraced)
    record.update(
        provenance=provenance(seed, blas_threads),
        untraced_s=untraced,
        traced_s=traced,
        setup_runs=setup,
        failures=runner.failures,
        error_rate=len(runner.failures) / runner.attempted,
    )
    if trace:
        metrics = layer_metrics(tracer, len(traced), workload, model_costs(workload))
        metrics["trace.overhead_ratio"] = statistics.median(traced) / wall - 1.0
        record["provenance"]["tracing_overhead"] = metrics["trace.overhead_ratio"]
        record.update(layer_metrics=metrics, probe_errors=tracer.probe_errors, spans=tracer.dump_spans())
        selected = select(metrics, "per_layer", default_zero=True)
    else:
        metrics = {
            "wall_s": wall,
            "symbols_per_s": workload.symbols / wall,
            "setup_s": statistics.median(r["setup_s"] for r in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        selected = select(metrics, "end_to_end", default_zero=False)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": selected,
    }
    report(workload, record, result, metrics if trace else {}, log)
    return result, record


def report(workload: Workload, record: dict, result: dict, layers: dict, log) -> None:
    """Human-readable summary: provenance, runs, metrics, failures, cost model table."""
    for key, value in record["provenance"].items():
        log(f"# {key}: {value}")
    for kind in ("untraced", "traced"):
        if record[f"{kind}_s"]:
            times = ", ".join(f"{t:.3f}" for t in record[f"{kind}_s"])
            log(f"# {workload.name}: {len(record[f'{kind}_s'])} {kind} runs (s): {times}")
    log(f"# error_rate: {record['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    for message in record["failures"][:20]:
        log(f"# FAILED {message}")
    for name, m in result["metrics"].items():
        log(f"{name} {m['value']:.6g} {m['unit']}")
    if layers and workload.block_lens:
        log("# cost model: N_b, model cmult/symbol, measured filter bank + overlap-save s/symbol, ns/cmult")
        for n_b in workload.block_lens:
            log(
                f"# {n_b:>6} {layers[f'blockopt.cmult_per_symbol.n{n_b}']:12.2f} "
                f"{layers[f'fde.s_per_symbol.n{n_b}']:12.4e} {layers[f'fde.ns_per_cmult.n{n_b}']:8.3f}"
            )
    for message in record.get("probe_errors", [])[:5]:
        log(f"# probe error: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))
    print(f"# record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
