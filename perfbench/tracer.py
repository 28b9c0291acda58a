"""In-memory span tracer installed around a package from the outside.

Every public function of every module in the package, and every public
method of its public classes, is replaced (in every module namespace that
binds it) by a wrapper that records a span: name, layer (the module's last
dotted component), phase, start, end and parent span.  The sparse linear
algebra entry points of ``scipy.sparse.linalg`` are wrapped as well; those
wrappers must be installed before the package is imported, because the
package binds them by name at import time.

A scipy span is attributed to the owning layer found by walking up its
parents to the nearest span whose layer is listed in ``OWNER_LAYERS``, so
a factorization keeps its attribution when it moves into a new module
called from that layer.  A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

OWNER_LAYERS = ("system", "scalar")

# scipy.sparse.linalg entry point -> kind of linear-algebra work
SCIPY_ENTRIES = {"splu": "factor", "spsolve": "factor",
                 "eigsh": "krylov", "gmres": "krylov"}


class Span:
    __slots__ = ("name", "layer", "phase", "parent", "start", "end", "child",
                 "counts")

    def __init__(self, name, layer, phase, parent, start):
        self.name = name
        self.layer = layer
        self.phase = phase
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child

    def owner(self):
        """Nearest enclosing layer in OWNER_LAYERS, else the parent's layer."""
        node = self.parent
        while node is not None:
            if node.layer in OWNER_LAYERS:
                return node.layer
            node = node.parent
        return self.parent.layer if self.parent is not None else "bench"

    def to_json(self, index):
        return {"name": self.name, "layer": self.layer, "phase": self.phase,
                "parent": index.get(id(self.parent)), "start": self.start,
                "end": self.end, "counts": self.counts}


class Tracer:
    """Collects spans while `active`; wrappers are inert otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.phase = "setup"
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def call(self, layer, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span; `count` maps the result
        to counters stored on the span."""
        parent = self._open[-1] if self._open else None
        span = Span(name, layer, self.phase, parent, self.clock())
        self._open.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = self.clock()
            self._open.pop()
            if parent is not None:
                parent.child += span.duration
            self.spans.append(span)
        if count is not None:
            span.counts.update(count(result))
        return span, result

    def wrap(self, fn, layer, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(layer, name, fn, args, kwargs, count)[1]

        return traced

    def dump(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_json(index) for s in self.spans]


class _TracedLU:
    """SuperLU proxy whose solve() records an lu_solve span."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        if not self._tracer.active:
            return self._lu.solve(*args, **kwargs)
        return self._tracer.call("scipy", "scipy.lu_solve", self._lu.solve,
                                 args, kwargs)[1]

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install_scipy(tracer, linalg):
    """Wrap the entry points of `linalg` (scipy.sparse.linalg) in place."""
    for entry in SCIPY_ENTRIES:
        fn = getattr(linalg, entry, None)
        if fn is None:
            continue
        if entry == "splu":
            setattr(linalg, entry, _traced_splu(tracer, fn))
        else:
            setattr(linalg, entry, tracer.wrap(fn, "scipy", f"scipy.{entry}"))


def _traced_splu(tracer, splu):
    @functools.wraps(splu)
    def traced(*args, **kwargs):
        if not tracer.active:
            return splu(*args, **kwargs)
        span, lu = tracer.call("scipy", "scipy.splu", splu, args, kwargs)
        # Building L and U costs about a tenth of the factorization, so it
        # gets a span of its own instead of inflating the caller's self time.
        fill = tracer.call("trace", "trace.fill", lambda: lu.L.nnz + lu.U.nnz)[1]
        span.counts["fill_nnz"] = fill
        return _TracedLU(lu, tracer)

    return traced


def package_modules(package):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def rebind(package, old, new):
    """Replace every module-level binding of `old` in the package by `new`."""
    for module in package_modules(package):
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install_package(tracer, package, counters=None):
    """Wrap the package's public functions and public methods in place.

    `counters` maps a span name to a function from the call's result to a
    dict of counters (for example Newton iterations).
    """
    counters = counters or {}
    modules = package_modules(package)
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                name = f"{layer}.{attr}"
                rebind(package, value,
                       tracer.wrap(value, layer, name, counters.get(name)))
            elif inspect.isclass(value):
                for meth_name, meth in list(vars(value).items()):
                    if meth_name.startswith("_") or not inspect.isfunction(meth):
                        continue
                    name = f"{layer}.{value.__name__}.{meth_name}"
                    setattr(value, meth_name,
                            tracer.wrap(meth, layer, name, counters.get(name)))
