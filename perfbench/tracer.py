"""Span recorder for the traced benchmark run.

``instrument`` replaces every public function (and public method or
classmethod) of the eight layer modules with a wrapper, at every module
attribute that holds it.  Calls between layers and from the benchmark
then open spans; a call into the layer that is already running only
counts, so the span tree stays small while per-function call counts stay
exact.  Spans carry a parent link kept per thread; thread pools created
by the program are replaced by one that hands the submitting thread's
current span to the worker.  Spans stay in memory until ``dump``.

A span's self time is its duration minus the part of it that its child
spans cover.  Summed over a request's spans, self times add up to the
request's duration.  A layer's inclusive time is the wall time during
which one of its spans is open, children included.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gzip
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "jsonio", "core", "exact", "solver", "geometry", "trigons", "groups")
HARNESS = "harness"  # the benchmark's own code inside a request
TRACING = "tracing"  # outcome hooks; counted as tracing overhead

NAME, LAYER, PARENT, START, END, REQUEST = range(6)


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, layer, parent index, start, end, request]
        self.calls = Counter()  # qualified function name -> calls
        self.collapsed = 0  # calls made inside their own layer (no span)
        self.outcomes = Counter()
        self.request = None
        self.paused = False  # while true, wrapped functions run untraced
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self.stack()
        return stack[-1] if stack else None

    def enter(self, name, layer):
        stack = self.stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, layer, parent, self.clock(), None, self.request])
        stack.append(index)
        return index

    def exit(self, index):
        self.spans[index][END] = self.clock()
        self.stack().pop()

    def adopt(self, parent):
        """Make `parent` the base of this thread's stack; returns the old stack."""
        old = getattr(self._local, "stack", None)
        self._local.stack = [] if parent is None else [parent]
        return old

    def restore(self, old):
        self._local.stack = old

    def in_layer(self, layer):
        stack = self.stack()
        return bool(stack) and self.spans[stack[-1]][LAYER] == layer

    def dump(self, path):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time of every span: duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - union_length(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


def layer_self_times(spans):
    totals = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s[LAYER]] += t
    return totals


def layer_inclusive_times(spans):
    """Wall time inside each layer, children included, counting nested re-entries once."""
    totals = defaultdict(float)
    for s in spans:
        parent = s[PARENT]
        while parent is not None and spans[parent][LAYER] != s[LAYER]:
            parent = spans[parent][PARENT]
        if parent is None:
            totals[s[LAYER]] += s[END] - s[START]
    return totals


def wrap(rec, qualname, layer, fn, hook=None):
    """A traced stand-in for fn; hook(rec, args, kwargs, result, error) sees outcomes."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        rec.calls[qualname] += 1
        if rec.in_layer(layer):
            rec.collapsed += 1
            if hook is None:
                return fn(*args, **kwargs)
            index = None
        else:
            index = rec.enter(qualname, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            if index is not None:
                rec.exit(index)
            if hook is not None:
                run_hook(rec, hook, args, kwargs, None, error)
            raise
        if index is not None:
            rec.exit(index)
        if hook is not None:
            run_hook(rec, hook, args, kwargs, result, None)
        return result

    return traced


def run_hook(rec, hook, args, kwargs, result, error):
    index = rec.enter("hook", TRACING)
    try:
        hook(rec, args, kwargs, result, error)
    finally:
        rec.exit(index)


class _SpanPassingExecutor(concurrent.futures.ThreadPoolExecutor):
    """Thread pool whose workers start under the submitter's current span."""

    recorder = None

    def submit(self, fn, /, *args, **kwargs):
        rec = self.recorder
        parent = rec.current()

        def adopted(*a, **kw):
            old = rec.adopt(parent)
            try:
                return fn(*a, **kw)
            finally:
                rec.restore(old)

        return super().submit(adopted, *args, **kwargs)


def _targets(module, layer):
    """(owner, attribute, qualified name, function, kind) of everything to wrap."""
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield module, name, f"{layer}.{name}", value, "function"
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                qualname = f"{layer}.{name}.{attr}"
                if inspect.isfunction(member):
                    yield value, attr, qualname, member, "method"
                elif isinstance(member, classmethod):
                    yield value, attr, qualname, member.__func__, "classmethod"


def instrument(rec, package, hooks=None):
    """Wrap the layer modules of `package`; returns a function that undoes it."""
    hooks = hooks or {}
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    everywhere = [package] + list(modules.values())
    undo = []
    wrappers = {}  # original function -> wrapper

    def put(owner, attr, value):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    for layer, module in modules.items():
        for owner, attr, qualname, fn, kind in list(_targets(module, layer)):
            wrapper = wrap(rec, qualname, layer, fn, hooks.get(qualname))
            if kind == "function":
                wrappers[fn] = wrapper
            elif kind == "method":
                put(owner, attr, wrapper)
            else:
                put(owner, attr, classmethod(wrapper))

    executor = type("SpanPassingExecutor", (_SpanPassingExecutor,), {"recorder": rec})
    for module in everywhere:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                put(module, attr, wrappers[value])
            elif value is concurrent.futures.ThreadPoolExecutor:
                put(module, attr, executor)

    def uninstrument():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstrument


def calibrate(repeats=20000):
    """Seconds a wrapper adds per call: (opening a span, counting inside a layer)."""

    def noop():
        return None

    def per_call(caller_layer):
        best = float("inf")
        for _ in range(3):
            rec = Recorder()
            traced = wrap(rec, "x.noop", "x", noop)
            root = rec.enter("root", caller_layer)
            t0 = time.perf_counter()
            for _ in range(repeats):
                traced()
            t1 = time.perf_counter()
            for _ in range(repeats):
                noop()
            t2 = time.perf_counter()
            rec.exit(root)
            best = min(best, ((t1 - t0) - (t2 - t1)) / repeats)
        return max(best, 0.0)

    return per_call("y"), per_call("x")
