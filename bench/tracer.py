"""In-memory call spans around catbath's public functions.

The package is not edited: each traced function is replaced, in every
catbath module namespace that holds it, by a wrapper that records a
span (name, start, end, parent, operation).  Re-imported names such as
``tomography.displacement`` are the same function object as
``hilbert.displacement``, so one scan over the module namespaces
patches every place a caller looks the name up.
"""

from __future__ import annotations

import functools
import json
import time

# Layer -> traced public functions.  Each gets `.calls` and `.self_s`
# metrics except those in CALLS_ONLY; each layer gets `<layer>.self_s`.
TRACED = {
    "config": ("load_config",),
    "hilbert": ("displacement", "coherent_state", "evolve_td"),
    "catprep": ("make_amplitude_cat", "backward_angles"),
    "floquet": ("swap_frequency", "full_floquet_hamiltonian", "stark_shifts"),
    "dynamics": (
        "analytic_joint_state",
        "evolve_excitation_blocks",
        "reduced_qubit_state",
        "reduced_field_state",
        "branch_amplitudes",
    ),
    "tomography": ("wigner_point", "wigner_map", "fit_photon_numbers"),
    "analysis": ("reservoir_distinguishability", "trace_distance", "von_neumann_entropy"),
    "calib": ("commanded_amplitudes",),
    "cli": ("main",),
}
CALLS_ONLY = {"dynamics.branch_amplitudes"}


class Tracer:
    """Patches the TRACED functions of `modules` and records spans.

    `modules` maps layer name to the imported catbath module.  Spans are
    lists ``[name, start, end, parent_index, op]`` kept in memory.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.op = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, funcs in TRACED.items():
            for fn in funcs:
                original = getattr(self.modules[layer], fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in self.modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, float]:
        """Calls and self time per function, self time per layer.

        Self time is a span's duration minus the durations of its direct
        children, so nested traced calls are not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        out: dict[str, float] = {}
        for layer, funcs in TRACED.items():
            total = 0.0
            for fn in funcs:
                full = f"{layer}.{fn}"
                total += self_s.get(full, 0.0)
                out[f"{full}.calls"] = calls.get(full, 0)
                if full not in CALLS_ONLY:
                    out[f"{full}.self_s"] = self_s.get(full, 0.0)
            out[f"{layer}.self_s"] = total
        return out

    def write(self, path: str) -> None:
        """Write the spans as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
