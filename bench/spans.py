"""Per-layer tracing of zeigloc, done from outside the library.

``Tracer.install`` replaces each traced public function at the module
attribute through which ``cli`` or a sibling module calls it, so the calls
that happen inside one command are seen without touching the library.  Each
call of a spanned function records a span (id, parent, name, start, end)
and adds to the function's self time: its duration minus the time covered by
its child spans.  Functions called thousands of times per tensor are only
counted.  Spans stay in memory until ``write``.
"""

import json
from collections import Counter, defaultdict
from time import perf_counter

# layer metric name -> (function, modules whose attribute is replaced)
SPANNED = {
    "cli.main": ("main", ("cli",)),
    "tensor.load_tensor": ("load_tensor", ("cli",)),
    "tensor.is_symmetric": ("is_symmetric", ("cli",)),
    "tensor.weak_symmetry_check": ("weak_symmetry_check", ("cli", "bounds")),
    "localization.row_aggregates": ("row_aggregates", ("cli", "bounds", "localization")),
    "localization.build_sets": ("build_sets", ("cli", "localization")),
    "localization.inclusion_chain_check": ("inclusion_chain_check", ("cli",)),
    "bounds.bound_report": ("bound_report", ("cli",)),
    "oracle.circle_solve": ("circle_solve", ("cli", "oracle")),
    "oracle.sshopm": ("sshopm", ("cli", "oracle")),
    "oracle.verify_inclusion": ("verify_inclusion", ("cli",)),
    "cli.render_json": ("render_json", ("cli",)),
}
COUNTED = {
    "intervals.quadratic_region": ("quadratic_region", ("localization",)),
    "oracle.apply": ("apply", ("oracle",)),
    "oracle.candidates": ("residual", ("oracle",)),
}


class Tracer:
    def __init__(self, package):
        self._modules = {
            name: getattr(package, name)
            for name in ("cli", "localization", "bounds", "oracle")
        }
        self._accept = self._modules["oracle"].RESIDUAL_ACCEPT
        self._patches = []
        self._stack = []  # [name, span id, start, child seconds]
        self._opened = 0
        self.spans = []  # (id, parent id, name, start, end, operation)
        self.operation = None
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.entries = 0  # tensor entries returned by load_tensor
        self.accepted = 0  # residuals within the oracle's acceptance gate

    # ------------------------------------------------------------- patching

    def install(self):
        """Wrap every traced function.  A module that no longer has the
        attribute is skipped, so a layer that stops calling a function
        reads 0 instead of breaking the traced run."""
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for metric, (func, modules) in table.items():
                wrappers = {}  # original function -> its wrapper
                for mod in modules:
                    module = self._modules[mod]
                    original = getattr(module, func, None)
                    if original is None:
                        continue
                    if original not in wrappers:
                        wrappers[original] = make(metric, original)
                    self._patches.append((module, func, original))
                    setattr(module, func, wrappers[original])

    def uninstall(self):
        for module, func, original in reversed(self._patches):
            setattr(module, func, original)
        self._patches.clear()

    def _spanned(self, name, fn):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:  # recursion: one span for the outermost call
                return fn(*args, **kwargs)
            self.calls[name] += 1
            frame = [name, self._opened, perf_counter(), 0.0]
            self._opened += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                self.self_s[name] += duration - frame[3]
                self.total_s[name] += duration
                parent = stack[-1][1] if stack else None
                if stack:
                    stack[-1][3] += duration
                spans.append((frame[1], parent, name, frame[2], end, self.operation))
            if name == "tensor.load_tensor":
                self.entries += result.entries.size
            return result

        return wrapper

    def _counted(self, name, fn):
        calls, accept = self.calls, self._accept

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "oracle.candidates" and result <= accept:
                self.accepted += 1
            return result

        return wrapper

    # -------------------------------------------------------------- results

    def take_round(self) -> dict[str, float]:
        """Per-layer figures accumulated since the last call, then reset."""
        out = {f"{name}.self_s": self.self_s[name] for name in SPANNED}
        out.update({f"{name}.calls": self.calls[name] for name in (*SPANNED, *COUNTED)})
        out["oracle.candidates"] = out.pop("oracle.candidates.calls")
        out["oracle.accepted"] = self.accepted
        load_s = self.total_s["tensor.load_tensor"]
        out["tensor.load_tensor.entries_per_s"] = self.entries / load_s if load_s > 0 else 0.0
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.entries = self.accepted = 0
        return out

    def write(self, path, origin: float):
        """Spans as JSON lines, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, operation in sorted(self.spans):
                record = {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "operation": operation,
                }
                fh.write(json.dumps(record) + "\n")
