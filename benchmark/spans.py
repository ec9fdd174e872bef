"""Span recording for traced benchmark steps.

The benchmark wraps public functions of the freqdyn modules from the
outside, so each call records a span.  Spans are aggregated in memory
by name (calls, total duration, self time) rather than kept one record
per call: the weak runaway step makes millions of traced calls and a
per-call list would inflate the peak RSS the benchmark reports.

A span's self time is its duration minus the time covered by the spans
opened while it was running (its children).
"""

import functools
import sys
import time

# (module, function) pairs traced in every traced step.  assemble_* are
# summed into one ``approx.assemble`` figure by the benchmark.
TARGETS = (
    ("freqdyn.cli", "main"),
    ("freqdyn.cli", "_write_json"),
    ("freqdyn.cli", "_write_csv"),
    ("freqdyn.cli", "load_candidate"),
    ("freqdyn.cli", "cmd_sigma"),
    ("freqdyn.approx", "fit_on_compacts"),
    ("freqdyn.approx", "assemble_existence_target"),
    ("freqdyn.approx", "assemble_spaceable_target"),
    ("freqdyn.approx", "assemble_dense_target"),
    ("freqdyn.approx", "assemble_mixed_target"),
    ("freqdyn.approx", "build_span_basis"),
    ("freqdyn.runaway", "check_strong_runaway"),
    ("freqdyn.runaway", "collect_islands"),
    ("freqdyn.runaway", "check_weak_runaway"),
    ("freqdyn.runaway", "build_carleman_truncation"),
    ("freqdyn.maps", "image_enclosing_disc"),
    ("freqdyn.maps", "maps_into"),
    ("freqdyn.geometry", "disjointness"),
    ("freqdyn.density", "check_similarity_criterion"),
    ("freqdyn.density", "lower_density_estimate"),
    ("freqdyn.density", "split"),
    ("freqdyn.density", "build_separated_family"),
    ("freqdyn.density", "verify_separated_family"),
    ("freqdyn.orbit", "scan"),
    ("freqdyn.orbit", "iterate_convergence"),
)


def _count_islands(rec, result):
    rec.add("runaway.islands", len(result))


def _count_unknown(rec, result):
    rec.add("geometry.disjointness.unknown", getattr(result, "name", None) == "UNKNOWN")


# Counters derived from a traced call's return value.
RESULT_HOOKS = {
    "runaway.collect_islands": _count_islands,
    "geometry.disjointness": _count_unknown,
}


class Recorder:
    """Aggregates nested spans by name: calls, total seconds, self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # counter name -> int
        self._child_time = []  # one entry per open span

    def _enter(self):
        self._child_time.append(0.0)
        return self.clock()

    def _exit(self, name, start):
        duration = self.clock() - start
        children = self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + int(amount)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, start)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced


def _rebind(modules, original, replacement):
    """Replace ``original`` at every module global and module-level dict
    entry that holds it; return the names of the sites rebound."""
    sites = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                sites.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        sites.append(f"{mod.__name__}.{attr}[{key!r}]")
    return sites


def install(recorder, targets=TARGETS, package="freqdyn"):
    """Wrap each target at every name a caller looks up.

    ``from .maps import image_enclosing_disc`` in ``runaway`` makes a
    second binding of the same function object; wrapping only
    ``maps.image_enclosing_disc`` would miss every call made through it.
    Returns span name -> list of rebound sites.
    """
    modules = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    bound = {}
    for module_name, func in targets:
        original = getattr(sys.modules[module_name], func)
        name = f"{module_name.rsplit('.', 1)[-1]}.{func}"
        wrapper = recorder.wrap(name, original, RESULT_HOOKS.get(name))
        bound[name] = _rebind(modules, original, wrapper)
    return bound
