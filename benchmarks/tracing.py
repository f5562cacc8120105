"""Per-layer tracing by wrapping hyptor's public functions.

hyptor's modules import each other's functions by name
(`from .torus import coordinate_change`), so a wrapper must replace the
function in every hyptor module namespace that holds it, not only in
the module that defines it.  Each call records a span (name, start,
end, parent); a layer's self time is its inclusive time minus the time
of the wrapped calls made inside it.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, defining module, function)
TRACED = (
    ("classify.enumerate", "hyptor.classify", "enumerate_case1"),
    ("classify.enumerate", "hyptor.classify", "enumerate_case2"),
    ("d4_family.build_general", "hyptor.d4_family", "build_general"),
    ("d4_family.check_freeness_conditions", "hyptor.d4_family", "check_freeness_conditions"),
    ("d4_family.lattice_inclusion_check", "hyptor.d4_family", "lattice_inclusion_check"),
    ("torus.quotient_by_finite_subgroup", "hyptor.torus", "quotient_by_finite_subgroup"),
    ("torus.coordinate_change", "hyptor.torus", "coordinate_change"),
    ("exact_linear.snf", "hyptor.exact_linear", "snf"),
    ("exact_linear.solve_affine_mod_lattice", "hyptor.exact_linear", "solve_affine_mod_lattice"),
    ("affine_actions.generate_group", "hyptor.affine_actions", "generate_group"),
    ("affine_actions.check_relations", "hyptor.affine_actions", "check_relations"),
    ("affine_actions.is_free_action", "hyptor.affine_actions", "is_free_action"),
    ("affine_actions.evaluate_word", "hyptor.affine_actions", "evaluate_word"),
    ("certificates.build_certificate", "hyptor.certificates", "build_certificate"),
    ("certificates.verify_certificate", "hyptor.certificates", "verify_certificate"),
    ("cli.hodge_numbers", "hyptor.cli", "hodge_numbers"),
    ("cli.main", "hyptor.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TRACED))
CENSUS = "classify.enumerate"
BUILD = "d4_family.build_general"


class Tracer:
    """Spans and per-layer totals of the wrapped calls."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in LAYERS}
        self.inclusive = {name: 0.0 for name in LAYERS}
        self.self_time = {name: 0.0 for name in LAYERS}
        self.spans: list[tuple[str, float, float, int]] = []
        # build_general calls made inside a census, and how many of
        # them returned an action rather than a rejection
        self.census_builds = 0
        self.census_useful = 0
        self.builds = 0
        self.useful = 0
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._active = {name: 0 for name in LAYERS}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, rejection_type):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][3] if self._stack else -1
            frame = [name, time.perf_counter(), 0.0, len(self.spans)]
            self.spans.append((name, frame[1], 0.0, parent))
            self._stack.append(frame)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._active[name] -= 1
                duration = end - frame[1]
                self.spans[frame[3]] = (name, frame[1], end, parent)
                self.calls[name] += 1
                self.self_time[name] += duration - frame[2]
                if self._active[name] == 0:
                    self.inclusive[name] += duration
                if self._stack:
                    self._stack[-1][2] += duration
            if name == BUILD:
                useful = not isinstance(result, rejection_type)
                self.builds += 1
                self.useful += useful
                if self._active[CENSUS]:
                    self.census_builds += 1
                    self.census_useful += useful
            return result

        return wrapper

    def install(self) -> None:
        rejection_type = sys.modules["hyptor.d4_family"].BuildRejection
        modules = [m for n, m in list(sys.modules.items()) if n == "hyptor" or n.startswith("hyptor.")]
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, rejection_type)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def useful_ratio(self) -> float:
        """Share of census build_general calls that built an action; a
        workload without a census counts all its calls."""
        if self.census_builds:
            return self.census_useful / self.census_builds
        return self.useful / self.builds if self.builds else 0.0
