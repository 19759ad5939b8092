"""The benchmark's workloads: `cpfde` CLI invocations and their expected output shape.

Each workload is one argv for `cpfde.cli.main`, run in-process with one worker.
The seed is appended by the runner (`--seed <n>`); everything else is fixed, so
the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One CLI invocation plus the parameters the checks and the cost model need."""

    name: str
    subcommand: str  # "sweep" or "bathtub"
    argv: tuple[str, ...]  # CLI arguments after the subcommand, without --seed
    K: int
    M: int
    L: int  # channel memory; the sweep's overlap L' equals it
    T_c: int
    N_sim: int
    bits: int
    ebn0: tuple[float, ...] = ()  # sweep grid
    block_lens: tuple[int, ...] = ()  # sweep N_b grid
    methods: tuple[str, ...] = ("WF", "WF_Q")
    block_len: int = 0  # bathtub N_b

    def cli_argv(self, seed: int, output_dir: str) -> list[str]:
        return [self.subcommand, *self.argv, "--seed", str(seed), "--output-dir", output_dir]

    @property
    def output_name(self) -> str:
        return "report.csv" if self.subcommand == "sweep" else "bathtub.csv"

    @property
    def bathtub_blocks(self) -> int:
        """Interior blocks per realization that per_position_error_profile equalizes."""
        return len(range(self.block_len, self.T_c - self.block_len + 1, self.block_len))

    @property
    def symbols(self) -> int:
        """Symbol estimates one run produces.

        Sweep: K * T_c * N_sim * |Eb/N0| * |N_b| * |methods|.
        Bathtub: K * N_b estimates per equalized interior block, over all realizations.
        """
        if self.subcommand == "sweep":
            grid = len(self.ebn0) * len(self.block_lens) * len(self.methods)
            return self.K * self.T_c * self.N_sim * grid
        return self.K * self.block_len * self.bathtub_blocks * self.N_sim

    @property
    def operations(self) -> int:
        """Checked operations per run: one per report row, or one bathtub profile."""
        if self.subcommand == "sweep":
            return len(self.ebn0) * len(self.block_lens) * len(self.methods)
        return 1


# Why each workload is here, and which layers it should and should not move,
# is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # `cpfde sweep` with its defaults; N_b = (n_opt_pow2, T_c) = (64, 2048).
        Workload(
            name="desk_sweep",
            subcommand="sweep",
            argv=(),
            K=2, M=32, L=15, T_c=2048, N_sim=20, bits=1,
            ebn0=(0.0, 5.0, 10.0, 15.0),
            block_lens=(64, 2048),
        ),
        # The paper's operating point, one realization, four N_b for the cost model.
        Workload(
            name="paper_realization",
            subcommand="sweep",
            argv=(
                "--paper-scale", "--realizations", "1", "--ebn0", "10",
                "--block-lens", "256,1024,4096,50000",
            ),
            K=2, M=64, L=127, T_c=50000, N_sim=1, bits=1,
            ebn0=(10.0,),
            block_lens=(256, 1024, 4096, 50000),
        ),
        # 8-bit ADCs and the per-block equalize_block path with no overlap.
        Workload(
            name="fine_bathtub",
            subcommand="bathtub",
            argv=(
                "--bits", "8", "--block-len", "64", "--coherence", "65536",
                "--realizations", "8", "--ebn0-point", "10",
            ),
            K=2, M=32, L=15, T_c=65536, N_sim=8, bits=8,
            block_len=64,
        ),
    )
}
