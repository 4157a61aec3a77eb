"""Layer spans for aqgsim, recorded from outside the package.

`Tracer.install()` replaces each function listed in SPANS, in every aqgsim
module namespace that binds it, with a wrapper that times the call; the
caller sees the original behaviour. Spans nest per thread: a span's self time
is its duration minus the durations of the spans it directly called. numpy's
2-D FFT entry points are counted, not timed, and each call is charged to the
layer of the innermost enclosing span, so FFTs made by `norms` or `lemmas`
are not counted as `operators` work. `Tracer.uninstall()` puts every original
back.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("config", "grid", "operators", "norms", "solver", "diagnostics",
          "lemmas", "checkpoint", "cli")

# (defining module, attribute, span name); a dotted attribute names a method
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_gevrey", "cli.gevrey"),
    ("cli", "cmd_picard", "cli.picard"),
    ("cli", "cmd_lemmas", "cli.lemmas"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "_sweep_row", "cli.sweep_point"),
    ("config", "load_config", "config.load"),
    ("config", "echo_config", "config.echo"),
    ("grid", "SpectralField.__post_init__", "grid.field"),
    ("operators", "_nonlinear_raw", "operators.nonlinear"),
    ("operators", "riesz_multipliers", "operators.riesz_multipliers"),
    ("operators", "dissipation_multiplier", "operators.multiplier"),
    ("operators", "gevrey_multiplier", "operators.multiplier"),
    ("norms", "sobolev_norm", "norms.sobolev"),
    ("norms", "lp_norm", "norms.lp"),
    ("norms", "vector_lp_norm", "norms.lp"),
    ("norms", "directional_seminorm", "norms.directional"),
    ("norms", "gevrey_weighted_norm", "norms.gevrey"),
    ("solver", "evolve", "solver.evolve"),
    ("solver", "_record", "solver.record"),
    ("solver", "duhamel_bilinear", "solver.duhamel"),
    ("solver", "picard_solve", "solver.picard"),
    ("solver", "weighted_picard_solve", "solver.picard"),
    ("solver", "_weighted_sup", "solver.weighted_sup"),
    ("solver", "calibrate_constants", "solver.calibrate"),
    ("solver", "existence_time", "solver.existence_time"),
    ("diagnostics", "analyticity_radius_fit", "diagnostics.rate_fit"),
    ("diagnostics", "region_classify", "diagnostics.region"),
    ("lemmas", "random_band_limited_field", "lemmas.random_field"),
    ("lemmas", "oversampled_product", "lemmas.product"),
    ("lemmas", "scalar_inequality_suite", "lemmas.scalar_suite"),
    ("lemmas", "functional_inequality_suite", "lemmas.functional_suite"),
    ("checkpoint", "write_checkpoint", "checkpoint.write"),
    ("checkpoint", "read_checkpoint", "checkpoint.read"),
)

# the complex transforms aqgsim calls today and the real ones a faster kernel
# would use, so that FFT counts stay comparable across such a change
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn")
KEEP_DURATIONS = frozenset({"cli.sweep_point"})  # spans whose every duration is kept


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    """Collects span statistics while installed; see the module docstring."""

    def __init__(self):
        # span name -> statistics; a span never entered reads as zero
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.edges: Counter = Counter()          # (parent span, child span) -> calls
        self.counts: Counter = Counter()         # named work counters
        self.main_self_s = 0.0                   # self time of main-thread spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self._close(name, parent, elapsed, elapsed - frame[1])
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return wrapper

    def _close(self, name, parent, elapsed, self_s) -> None:
        with self._lock:
            st = self.spans[name]
            st.calls += 1
            st.total_s += elapsed
            st.self_s += self_s
            if name in KEEP_DURATIONS:
                st.durations.append(elapsed)
            self.edges[(parent, name)] += 1
            if threading.current_thread() is threading.main_thread():
                self.main_self_s += self_s

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            stack = self._stack()
            layer = stack[-1][0].split(".")[0] if stack else "untraced"
            self.count(f"{layer}.fft.calls")
            self.count(f"{layer}.fft.bytes", np.asarray(a).nbytes + out.nbytes)
            return out
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"aqgsim.{m}") for m in LAYERS]
        for mod_name, attr, span in SPANS:
            home = importlib.import_module(f"aqgsim.{mod_name}")
            hook = _HOOKS.get(span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._span(span, cls.__dict__[meth], hook))
                continue
            original = getattr(home, attr)
            wrapper = self._span(span, original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for name in FFT_NAMES:
            self._patch(np.fft, name, self._fft(getattr(np.fft, name)))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _count_checkpoint_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("checkpoint.write.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _count_picard_iterations(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("solver.picard.iterations", result.iterations)


_HOOKS = {
    "checkpoint.write": _count_checkpoint_bytes,
    "solver.picard": _count_picard_iterations,
}
