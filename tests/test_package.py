"""The package's public surface."""

import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import cpfde


def test_every_export_resolves():
    missing = [name for name in cpfde.__all__ if not hasattr(cpfde, name)]
    assert not missing, f"cpfde.__all__ names missing from the package: {missing}"


def test_readme_module_references_resolve():
    # Every `module.name` the README cites names an attribute of that module,
    # so a renamed or removed function cannot linger in the docs.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    modules = "channel|quant|fde|blockopt|simulate|cli|_pool"
    refs = set(re.findall(rf"`({modules})\.([A-Za-z_]\w*)", readme))
    assert len(refs) >= 10
    missing = sorted(
        f"{module}.{name}" for module, name in refs
        if not hasattr(importlib.import_module(f"cpfde.{module}"), name)
    )
    assert not missing, f"README names missing from their modules: {missing}"


def test_cli_runs_without_scipy(tmp_path):
    # The test modules import scipy.stats, so only a fresh interpreter shows
    # what the package itself loads.
    script = textwrap.dedent(
        f"""
        import sys
        from cpfde import cli

        assert cli.main(["optimize-block"]) == 0
        assert cli.main(["quantizer-table"]) == 0
        assert cli.main([
            "sweep", "--antennas", "4", "--taps", "4", "--coherence", "64",
            "--realizations", "1", "--ebn0", "10", "--block-lens", "16",
            "--output-dir", {str(tmp_path)!r},
        ]) == 0
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, f"scipy modules loaded: {{loaded}}"
        """
    )
    run_fresh(script)


def test_import_loads_no_process_pool():
    # Only a sweep with more than one worker starts a process pool; importing
    # the package, as every CLI command does, loads none of its modules.
    run_fresh(
        textwrap.dedent(
            """
            import sys
            import cpfde, cpfde.cli

            loaded = sorted(
                m for m in sys.modules
                if m.partition(".")[0] == "multiprocessing" or m == "concurrent.futures.process"
            )
            assert not loaded, f"process pool modules loaded: {loaded}"
            """
        )
    )


def run_fresh(script):
    """Run script in a fresh interpreter that imports this package's sources."""
    src = str(Path(cpfde.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
