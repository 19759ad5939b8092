"""Store the reference outputs the correctness checks compare against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload once at the reference seed and writes
perfbench/reference/<workload>.json.  Regenerate only when the program's
results are meant to change, and say so in the change that does it.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    run.cap_blas_threads()
    cli = run.load_cli()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as out:
            code, seconds, _ = run.run_cli(cli.main, workload.cli_argv(checks.REFERENCE_SEED, out))
            if code != 0:
                print(f"{name}: cpfde exited {code}", file=sys.stderr)
                return 1
            output = checks.read_output(workload, Path(out) / workload.output_name)
        failures = checks.check_output(workload, output, None)
        if failures:
            print(f"{name}: {failures}", file=sys.stderr)
            return 1
        ref = checks.as_reference(workload, output) | {"seed": checks.REFERENCE_SEED}
        checks.reference_path(name).write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: {seconds:.2f} s -> {checks.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
