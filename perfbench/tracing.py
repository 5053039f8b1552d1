"""Outside-in layer tracing: wrap each layer's public functions in spans.

The wrappers are installed from the benchmark's own files and removed after
the traced pass; heartlab itself carries no tracing.  A name is patched in
every heartlab module that looks it up (``from .reps import heart`` binds
``heartlab.audit.heart`` and ``heartlab.cli.heart`` separately), so the
wrapper replaces each binding that is the original object.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "audit", "zoo", "perms", "reps", "linalg", "fppoly", "probe")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int


class Tracer:
    """Spans and per-command counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.command = -1
        self._stack: list[int] = []
        self._chains: list = []  # chain objects seen in the current command

    def begin_command(self, index: int) -> None:
        self.command = index
        self._chains.clear()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[self.command][key] += amount

    def wrap(self, name, fn, on_return=None):
        """``name`` is a span name, or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(span_name, start, end, parent, tracer.command)
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    def self_times(self, scales: dict[int, float]) -> dict[str, float]:
        """Per span name: total duration minus the time covered by children,
        each span scaled by its command's factor from ``scales``."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += (span.end - span.start - child_time[index]) * scales[span.command]
        return dict(totals)


# -- counters at the layer boundaries ------------------------------------------


def _count_calls(key):
    def hook(tracer, args, result):
        tracer.count(key)
    return hook


def _on_chain(tracer, args, chain):
    if any(c is chain for c in tracer._chains):
        return  # the cached chain of a group already counted
    tracer._chains.append(chain)
    tracer.count("chain_builds")
    levels = getattr(chain, "levels", [])
    tracer.count("schreier_sifted", sum(sum(getattr(lvl, "sifted", ())) for lvl in levels))
    tracer.count("strong_gens", len(levels[0].gens) if levels else 0)


def _on_enum(tracer, args, elements):
    tracer.count("elements_enumerated", len(elements))


def _on_end(tracer, args, endo):
    tracer.count("end_calls")
    tracer.count("end_unknowns", args[0].dimension ** 2)


def _on_meataxe(tracer, args, verdict):
    tracer.count("meataxe_attempts", verdict.attempts)


def _on_kernel(tracer, args, subspace):
    tracer.count("kernel_calls")
    tracer.count("kernel_cells", args[0].nrows * args[0].ncols)


def _on_prime(tracer, args, ctype):
    tracer.count("primes_factored")
    if ctype is None:
        tracer.count("ramified")


def _factor_name(f, p, *rest, **kwargs):
    return "fppoly.factor2" if p == 2 else "fppoly.factor"


def _on_factor(tracer, args, factors):
    if args[1] == 2:
        tracer.count("factor2_calls")


# (module, attribute or Class.attribute, span name, counter hook)
HOOKS = (
    ("heartlab.audit", "audit", "audit.audit", None),
    ("heartlab.zoo", "build_group", "zoo.build_group", None),
    ("heartlab.perms", "PermGroup.chain", "perms.chain", _on_chain),
    ("heartlab.perms", "PermGroup.enumerate_elements", "perms.enum", _on_enum),
    ("heartlab.reps", "heart", "reps.heart", None),
    ("heartlab.reps", "endomorphism_algebra", "reps.end", _on_end),
    ("heartlab.reps", "is_irreducible", "reps.meataxe", _on_meataxe),
    ("heartlab.reps", "is_indecomposable", "reps.indec", None),
    ("heartlab.linalg", "kernel", "linalg.kernel", _on_kernel),
    ("heartlab.linalg", "charpoly", "linalg.charpoly", _count_calls("charpoly_calls")),
    ("heartlab.linalg", "spin", "linalg.spin", None),
    ("heartlab.fppoly", "factor", _factor_name, _on_factor),
    ("heartlab.probe", "cycle_type_mod_p", "probe.factor", _on_prime),
    ("heartlab.probe", "group_cycle_types", "probe.types", _count_calls("types_calls")),
    ("heartlab.probe", "probe", "probe.probe", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Every hook's wrapper in place for the ``with`` block, originals restored
    after it.  Yields the hook targets that were not found."""
    modules = [m for name, m in sys.modules.items() if name == "heartlab" or name.startswith("heartlab.")]
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for module_name, attr, span, hook in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(span, original, hook)
            owners = [owner] if path else [m for m in modules if any(v is original for v in vars(m).values())]
            for target in owners:
                for name, value in list(vars(target).items()):
                    if value is original:
                        undo.append((target, name, value))
                        setattr(target, name, wrapper)
        yield missing
    finally:
        for target, name, value in reversed(undo):
            setattr(target, name, value)
