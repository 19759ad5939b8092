"""Per-layer tracing of the `cpfde` modules from outside the library.

`install` wraps every public function of the layer modules and rebinds each
wrapper wherever the original is bound in a loaded `cpfde` module (for example
both `cpfde.channel.convolve_transmit` and `cpfde.simulate.convolve_transmit`),
so calls through any import path are seen.  `uninstall` puts the originals back.

A span records (name, start, end, parent span index, run id).  Spans stay in
memory; `layer_stats` reduces them to calls, busy time and self time per
function, and probes add counters measured at the same boundary.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("channel", "quant", "fde", "blockopt", "simulate", "cli")


class Tracer:
    """In-memory span recorder; one instance per traced benchmark run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.run_id = 0
        self.records: dict[int, dict] = defaultdict(dict)  # run id -> probe counters
        self.probe_errors: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, probe=None):
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            outermost = self._active[name] == 0
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id, outermost)
            if probe is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    probe(self.records[self.run_id], bound.arguments, result, end - start)
                except Exception as exc:  # a probe must never fail the traced run
                    self.probe_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def install(self, probes: dict | None = None) -> None:
        """Wrap the public functions of every layer module and rebind them."""
        probes = probes or {}
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cpfde.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue  # re-exported from another layer; wrapped there
                name = f"{layer}.{attr}"
                wrappers[fn] = self.wrap(name, fn, probes.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cpfde" and not mod_name.startswith("cpfde."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_stats(self, run_id: int) -> dict[str, dict[str, float]]:
        """{function: {calls, busy_s, self_s}} for one run.

        busy_s counts only outermost spans of a name, so recursion is not
        counted twice; self_s is a span's duration minus its children's.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[4] == run_id and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            if span is None or span[4] != run_id:
                continue
            name, start, end, _, _, outermost = span
            s = stats[name]
            s["calls"] += 1
            if outermost:
                s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[index]
        return dict(stats)

    def dump_spans(self) -> list[list]:
        return [list(s[:5]) for s in self.spans if s is not None]


# ---------------------------------------------------------------------------
# probes: counters taken from the arguments and results at a layer boundary
# ---------------------------------------------------------------------------

def _add(rec: dict, key: str, n_b: int, value: float) -> None:
    rec.setdefault(key, defaultdict(float))[n_b] += value


def _probe_freq_channel(rec, a, result, dt):
    # Identity of the input: realization (tap contents), N_b and Bussgang rho.
    digest = hashlib.blake2b(a["taps"].taps.tobytes(), digest_size=16).digest()
    rec.setdefault("freq_channel_inputs", set()).add((digest, int(a["N_b"]), float(a["rho_q"])))


def _probe_filter_bank(rec, a, result, dt):
    n_b = int(a["cfg"].block_len)
    rec["subbands"] = rec.get("subbands", 0) + n_b
    _add(rec, "fde_s", n_b, dt)


def _probe_overlap_save(rec, a, result, dt):
    cfg = a["cfg"]
    n_b, T = int(cfg.block_len), int(a["r"].shape[1])
    step = n_b - int(cfg.overlap)
    blocks = (T - n_b) // step + 1 + (1 if (T - n_b) % step else 0)
    rec["blocks"] = rec.get("blocks", 0) + blocks
    rec["computed"] = rec.get("computed", 0) + blocks * n_b
    rec["retained"] = rec.get("retained", 0) + T
    _add(rec, "fde_s", n_b, dt)
    _add(rec, "fde_symbols", n_b, result[0].shape[0] * T)


PROBES = {
    "channel.freq_channel": _probe_freq_channel,
    "fde.build_filter_bank": _probe_filter_bank,
    "fde.overlap_save_stream": _probe_overlap_save,
}
