"""In-memory spans around the calls the benchmark makes into dispersim.

The program under ``src/`` carries no instrumentation of its own, so the
traced run wraps module-level names from the outside: each layer lists the
dotted names it wraps, resolved against the module that calls them (for
the solver loop that is ``dispersim.transport``).  A name that no longer
resolves is skipped and its layer reported as not measured, so a later
change that removes or renames it does not crash the benchmark.

Spans are kept in a flat list of ``(name, parent, start, end)`` and written
out only when the benchmark ends.  A span's self time is its duration
minus the durations of its direct children; children never overlap,
because the program is single-threaded.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable

# layer -> dotted names under dispersim.transport
TRANSPORT_LAYERS: dict[str, tuple[str, ...]] = {
    "elliptic.solve": ("PoissonSolver.solve",),
    "coefficients.velocity": ("stream_velocity",),
    "coefficients.mollify": ("mollify",),
    "coefficients.tensor": ("dispersion_tensor_regularized",),
    "transport.assemble": ("_assemble_parabolic",),
    "transport.factor": ("spla.spilu", "spla.splu"),
    "transport.krylov": ("spla.bicgstab", "spla.gmres"),
    "transport.step": ("picard_coupled_step",),
    "transport.diagnostics": ("_diag_row", "_dissipation"),
    "grid.snapshot_write": ("write_snapshot",),
    "grid.snapshot_read": ("read_snapshot",),
}

# layer -> dotted names under dispersim.acceptance
ACCEPTANCE_LAYERS: dict[str, tuple[str, ...]] = {
    "identities.log_kernel_average": ("log_kernel_average",),
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    count: float = 0.0  # layer-specific quantity read from the result

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(args, kwargs, result)`` is read after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.spans[index].count = float(count(args, kwargs, result))
            return result

        return traced

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def counted(self, name: str) -> float:
        return sum(s.count for s in self.spans if s.name == name)

    def children_total(self, name: str) -> float:
        """Time covered by the direct children of every span called ``name``."""
        parents = {i for i, s in enumerate(self.spans) if s.name == name}
        return sum(s.duration for s in self.spans if s.parent in parents)

    def dump(self) -> list[list]:
        return [[s.name, s.parent, s.start, s.end, s.count] for s in self.spans]


def _resolve(root, dotted: str):
    """(owner, attribute) for a dotted name under ``root``, or None if absent."""
    *path, attr = dotted.split(".")
    owner = root
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Patch:
    """Wraps the names of each layer for the lifetime of a ``with`` block.

    ``not_measured`` lists the layers none of whose names resolved.
    """

    def __init__(self, tracer: Tracer, root, layers: dict[str, tuple[str, ...]],
                 counts: dict[str, Callable] | None = None):
        self.tracer = tracer
        self.root = root
        self.layers = layers
        self.counts = counts or {}
        self.not_measured: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        for layer, names in self.layers.items():
            found = False
            for dotted in names:
                target = _resolve(self.root, dotted)
                if target is None:
                    continue
                owner, attr = target
                original = getattr(owner, attr)
                # restore a class attribute from the class dict, where a
                # staticmethod or classmethod is still undecorated
                saved = vars(owner).get(attr, original) if isinstance(owner, type) else original
                self._saved.append((owner, attr, saved))
                setattr(owner, attr, self.tracer.wrap(layer, original, self.counts.get(layer)))
                found = True
            if not found:
                self.not_measured.append(layer)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, saved in reversed(self._saved):
            setattr(owner, attr, saved)
        self._saved.clear()
