"""Spans around the library's public functions, for the traced run.

The tracer rebinds each traced function in every ``metaplectic`` module that
holds it, so calls are seen wherever the caller looks the name up (for
example ``dj_factorize`` inside ``shiftinv`` and ``rescale_apply`` inside
``operators``).  Spans are kept in memory as ``[name, start, end, parent,
op, extra]`` and written out when the run ends.  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from importlib import import_module

import numpy as np

#: traced name -> (defining module, attribute)
TRACED = {
    "symplectic_core.dj_factorize": ("metaplectic.symplectic_core.factorize", "dj_factorize"),
    "symplectic_core.classify_lp": ("metaplectic.symplectic_core.classify", "classify_lp"),
    "shiftinv.shift_invertible": ("metaplectic.symplectic_core.shiftinv", "shift_invertible"),
    "shiftinv.admissible_shift_range": ("metaplectic.symplectic_core.shiftinv", "admissible_shift_range"),
    "shiftinv.shift_perturb": ("metaplectic.symplectic_core.shiftinv", "shift_perturb"),
    "shiftinv.wigner_split": ("metaplectic.symplectic_core.shiftinv", "wigner_split"),
    "operators.rescale_apply": ("metaplectic.metaplectic_numeric.operators", "rescale_apply"),
    "operators.partial_ft": ("metaplectic.metaplectic_numeric.operators", "partial_ft"),
    "operators.multiplier_apply": ("metaplectic.metaplectic_numeric.operators", "multiplier_apply"),
    "operators.chirp_apply": ("metaplectic.metaplectic_numeric.operators", "chirp_apply"),
    "grid.partial_dft": ("metaplectic.metaplectic_numeric.grid", "partial_dft"),
    "grid.lpq_norm": ("metaplectic.metaplectic_numeric.grid", "lpq_norm"),
    "distributions.wigner": ("metaplectic.metaplectic_numeric.distributions", "wigner"),
    "distributions.stft": ("metaplectic.metaplectic_numeric.distributions", "stft"),
    "distributions.rihacek": ("metaplectic.metaplectic_numeric.distributions", "rihacek"),
    "probes.norm_equiv": ("metaplectic.probes", "norm_equiv_probe"),
    "quantize.opA_build": ("metaplectic.metaplectic_numeric.quantize", "opA_build"),
    "io.write_grid_function": ("metaplectic.io", "write_grid_function"),
    "io.parse_grid_function": ("metaplectic.io", "parse_grid_function"),
    "cli.wigner_verb": ("metaplectic.cli", "cmd_wigner"),
    "cli.quantize_verb": ("metaplectic.cli", "cmd_quantize"),
}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """In-memory span recorder; ``op`` is the id of the operation running."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        rss = name.startswith("distributions.")
        io_kind = {"io.write_grid_function": "write", "io.parse_grid_function": "parse"}.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rss0 = resident_bytes() if rss else 0
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if rss:
                rec[5] = resident_bytes() - rss0
            elif io_kind == "write":
                rec[5] = args[0].values.size
                if self.op is not None:
                    self.counts["io.bytes_written"] += len(out)
            elif io_kind == "parse":
                rec[5] = out.values.size
            return out

        return traced

    def _count_init(self, init):
        def counted(obj, grid, values):
            if self.op is not None:
                self.counts["grid.gridfunction_new"] += 1
                self.counts["grid.gridfunction_copy_bytes"] += np.size(values) * 16
            return init(obj, grid, values)

        return counted

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in each ``metaplectic`` module holding it."""
        for name, (modname, attr) in TRACED.items():
            fn = getattr(import_module(modname), attr)
            wrapped = self._wrap(name, fn)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("metaplectic"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))
        gf = import_module("metaplectic.metaplectic_numeric.grid").GridFunction
        self._undo.append((gf, "__init__", gf.__init__))
        gf.__init__ = self._count_init(gf.__init__)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def write(self, path, ops: int, op_seconds: list[float]) -> None:
        """Spans as JSON lines, preceded by one summary line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": ops, "op_seconds": op_seconds, "counts": self.counts}) + "\n")
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "extra": extra}) + "\n")

    def layer_metrics(self, ops: int, startup_ms: float) -> dict:
        """Per-layer metrics over the spans of timed operations.

        ``*_ms`` is wall time per call; a function the workload never calls
        reports 0.  Counts are per operation.
        """
        timed = [s for s in self.spans if s[4] is not None]
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        by_name = defaultdict(list)
        self_ms = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[4] is None:
                continue
            by_name[s[0]].append(s)
            self_ms[s[0]] += (s[2] - s[1] - child_time[i]) * 1e3

        def per_call_ms(name: str) -> float:
            spans = by_name.get(name, [])
            return sum(s[2] - s[1] for s in spans) * 1e3 / len(spans) if spans else 0.0

        def us_per_value(name: str) -> float:
            spans = by_name.get(name, [])
            values = sum(s[5] for s in spans)
            return sum(s[2] - s[1] for s in spans) * 1e6 / values if values else 0.0

        dist = [s[5] for s in timed if s[0].startswith("distributions.")]
        shift = sum(v for k, v in self_ms.items() if k.startswith("shiftinv."))
        m = {
            "symplectic_core.dj_factorize_ms": (per_call_ms("symplectic_core.dj_factorize"), "ms"),
            "symplectic_core.dj_factorize_calls": (len(by_name["symplectic_core.dj_factorize"]) / ops, "count"),
            "symplectic_core.classify_lp_ms": (per_call_ms("symplectic_core.classify_lp"), "ms"),
            "symplectic_core.shiftinv_self_ms": (shift / ops, "ms"),
        }
        for name in ("operators.rescale_apply", "operators.partial_ft",
                     "operators.multiplier_apply", "operators.chirp_apply",
                     "grid.partial_dft", "grid.lpq_norm"):
            m[name + "_ms"] = (per_call_ms(name), "ms")
        m["grid.gridfunction_new"] = (self.counts["grid.gridfunction_new"] / ops, "count")
        m["grid.gridfunction_copy_mb"] = (
            self.counts["grid.gridfunction_copy_bytes"] / ops / 1e6, "MB-computed")
        for name in ("distributions.wigner", "distributions.stft", "distributions.rihacek"):
            m[name + "_ms"] = (per_call_ms(name), "ms")
        m["distributions.rss_growth_mb"] = (statistics.fmean(dist) / 1e6 if dist else 0.0, "MB")
        m["probes.norm_equiv_self_ms"] = (self_ms["probes.norm_equiv"] / ops, "ms")
        m["quantize.opA_build_ms"] = (per_call_ms("quantize.opA_build"), "ms")
        m["io.write_grid_function_ms"] = (per_call_ms("io.write_grid_function"), "ms")
        m["io.parse_grid_function_ms"] = (per_call_ms("io.parse_grid_function"), "ms")
        m["io.write_us_per_value"] = (us_per_value("io.write_grid_function"), "us")
        m["io.parse_us_per_value"] = (us_per_value("io.parse_grid_function"), "us")
        m["io.bytes_written_mb"] = (self.counts["io.bytes_written"] / ops / 1e6, "MB")
        m["cli.startup_ms"] = (startup_ms, "ms")
        m["cli.wigner_verb_ms"] = (per_call_ms("cli.wigner_verb"), "ms")
        m["cli.quantize_verb_ms"] = (per_call_ms("cli.quantize_verb"), "ms")
        return m
