"""Outside-in tracing of the qdiscord layers.

The tracer wraps public library functions by name. A function imported
into several modules (``from .linalg import psd_sqrt`` binds one name in
``discord`` and another in ``metrology``) is replaced under every name
that refers to it, so calls made inside the package are seen as well as
calls made by the benchmark. Spans are kept in memory, self time is taken
from a call stack, and :meth:`Tracer.uninstall` puts every original
attribute back.
"""

import csv
import importlib
import inspect
import os
import sys
from time import perf_counter

#: Functions traced as layers, named ``<module>.<function>`` after the
#: module that defines them. Each gets ``calls``, ``busy_s`` and ``self_s``.
TRACED = (
    "cli.main",
    "states.load_density",
    "states.validation_report",
    "states.noon_lossy_density",
    "linalg.haar_unitary",
    "linalg.psd_sqrt",
    "linalg.hermitian_eig",
    "linalg.trace_norm",
    "linalg.partial_transpose",
    "discord.derive_child_seeds",
    "discord.scan_uncertainty",
    "discord.minimize_uncertainty",
    "discord.local_quantum_uncertainty",
    "discord.min_uncertainty_assignment",
    "metrology.negativity",
    "metrology.qfi_fidelity_estimate",
    "experiments.run_fig1",
    "experiments.run_fig2",
    "experiments.run_fig4",
    "tables.write_csv",
    "tables.write_sidecar",
)

#: Unit and better-direction of every per-layer metric the traced run prints.
STAT_UNITS = {
    "calls": ("calls/round", "lower"),
    "busy_s": ("s/round", "lower"),
    "self_s": ("s/round", "lower"),
}
DERIVED_UNITS = {
    "discord.scan.us_per_sample": ("us", "lower"),
    "discord.pair_trace.flops_computed": ("flop/round", "lower"),
    "discord.pair_trace.bytes_computed": ("B/round", "lower"),
    "linalg.psd_sqrt.per_item": ("calls/item", "lower"),
    "states.validation_report.per_item": ("calls/item", "lower"),
    "tables.write_csv.rows": ("rows/round", "higher"),
    "tables.write_csv.bytes": ("B/round", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_units() -> dict:
    """Every per-layer metric name mapped to its (unit, better) pair."""
    units = {
        f"{name}.{stat}": spec for name in TRACED for stat, spec in STAT_UNITS.items()
    }
    units.update(DERIVED_UNITS)
    return units


def pair_trace_cost(dim_a: int, dim_b: int) -> tuple:
    """Computed (flops, bytes) of one sample of the pair-trace kernel.

    The kernel is two tensordots of the dim_a x dim_a unitary with the
    (dim_a, dim_b, dim_a, dim_b) block tensor of sqrt(rho), each
    dim_a^3 dim_b^2 complex multiply-adds, and one einsum of dim_a^2 dim_b^2
    multiply-adds; a complex multiply-add is 8 real flops. Bytes are the
    operands read and results written by those three contractions, at 16
    bytes per complex entry, ignoring caches.
    """
    a2b2 = dim_a * dim_a * dim_b * dim_b
    flops = 8 * (2 * dim_a * a2b2 + a2b2)
    nbytes = 16 * (2 * dim_a * dim_a + 6 * a2b2) + 8 * dim_a * dim_a
    return flops, nbytes


class Tracer:
    """Wraps the TRACED functions while installed and records their spans."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}  # calls, busy, self
        self.counters = {"scan_samples": 0, "flops": 0, "bytes": 0, "csv_rows": 0, "csv_bytes": 0}
        self.spans = []  # (span id, parent id, round id, name, start, end)
        self.round_id = None
        self._stack = []  # [span id, child time] per open call
        self._next_id = 0
        self._saved = []  # (module, attribute, original)

    def install(self, round_id: int) -> None:
        """Replace every qdiscord module attribute bound to a traced function."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.round_id = round_id
        modules = [m for n, m in sys.modules.items() if n == "qdiscord" or n.startswith("qdiscord.")]
        for name in TRACED:
            module_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"qdiscord.{module_name}"), func_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute that :meth:`install` replaced."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, func):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        signature = inspect.signature(func)
        count = {"discord.scan_uncertainty": self._count_scan, "tables.write_csv": self._count_csv}.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                spans.append((span_id, parent, self.round_id, name, start, end))
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(bound.arguments)

        traced.__wrapped__ = func
        return traced

    def _count_scan(self, arguments: dict) -> None:
        rho = arguments["rho"]
        samples = int(arguments["samples"])
        flops, nbytes = pair_trace_cost(rho.dim_a, rho.dim_b)
        self.counters["scan_samples"] += samples
        self.counters["flops"] += samples * flops
        self.counters["bytes"] += samples * nbytes

    def _count_csv(self, arguments: dict) -> None:
        rows = arguments["rows"]
        if hasattr(rows, "__len__"):
            self.counters["csv_rows"] += len(rows)
        else:
            with open(arguments["path"], "rb") as fh:
                self.counters["csv_rows"] += sum(1 for _ in fh) - 1
        self.counters["csv_bytes"] += os.path.getsize(arguments["path"])

    def metrics(self, traced_rounds: int, items: int, overhead_frac: float) -> dict:
        """Per-layer metrics, normalized per traced round or per item."""
        rounds = max(traced_rounds, 1)
        out = {}
        for name, (calls, busy, own) in self.stats.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.busy_s"] = busy / rounds
            out[f"{name}.self_s"] = own / rounds
        scan_busy = self.stats["discord.scan_uncertainty"][1]
        samples = self.counters["scan_samples"]
        out["discord.scan.us_per_sample"] = 1e6 * scan_busy / samples if samples else 0.0
        out["discord.pair_trace.flops_computed"] = self.counters["flops"] / rounds
        out["discord.pair_trace.bytes_computed"] = self.counters["bytes"] / rounds
        out["linalg.psd_sqrt.per_item"] = self.stats["linalg.psd_sqrt"][0] / max(items, 1)
        out["states.validation_report.per_item"] = (
            self.stats["states.validation_report"][0] / max(items, 1)
        )
        out["tables.write_csv.rows"] = self.counters["csv_rows"] / rounds
        out["tables.write_csv.bytes"] = self.counters["csv_bytes"] / rounds
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV, times relative to the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("span", "parent", "round", "name", "start_s", "end_s"))
            for span_id, parent, round_id, name, start, end in sorted(self.spans):
                writer.writerow(
                    (span_id, "" if parent is None else parent, round_id, name,
                     f"{start - origin:.9f}", f"{end - origin:.9f}")
                )
