"""Span tracing of trilag's public functions, wrapped from outside the library.

Every public module-level function of the seven modules is replaced, in
every trilag namespace that holds it, by a wrapper that records a span:
name, start, end, parent span, thread and a small tag (potential family,
basis size, rule-cache hit).  Spans stay in memory; `layer_metrics` turns
them into per-layer numbers.  The library itself is not modified.

A root span opened on a worker thread (the `lambda_scan` pool) takes as
parent the innermost span open on the thread that installed the tracer,
which is the scan waiting for its pool.
"""

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass

MODULES = ("cli", "solver", "potentials", "eigen", "basis", "quadrature", "specfun")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    thread: int
    tag: object = None

    @property
    def module(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def _family(p):
    kind = type(p).__name__
    if kind == "YukawaParams":
        # the sine variant shares the complex-sigma kernel with the cosine one
        return "yukawa_classical" if p.variant == "classical" else "yukawa_cosine"
    return {"MorseParams": "morse", "KratzerParams": "kratzer"}.get(kind, kind)


def _potential_tag(args, kwargs, result):
    return (_family(args[0]), args[1].size) if len(args) >= 2 else None


def _basis_size_tag(args, kwargs, result):
    basis = args[1] if len(args) >= 2 else kwargs.get("basis")
    return getattr(basis, "size", None)


def _threads_tag(args, kwargs, result):
    return kwargs.get("threads") or 1


# tag functions run after the call; they see its arguments and result
TAGGERS = {
    "potentials.yukawa_matrix": _potential_tag,
    "potentials.morse_matrix": _potential_tag,
    "potentials.kratzer_matrix": _potential_tag,
    "solver.bound_states": _basis_size_tag,
    "solver.lambda_scan": _threads_tag,
}


class Tracer:
    """Records spans while enabled; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = []
        self._patches = []
        self._rules_seen = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _rule_tag(self, args, kwargs, result):
        # a hit is a call that returns the object already returned for
        # the same arguments; the reference kept here pins that object
        key = (int(args[0]), float(args[1]).hex())
        with self._lock:
            hit = self._rules_seen.get(key) is result
            self._rules_seen[key] = result
        return "hit" if hit else "build"

    def _wrap(self, fn, name):
        tagger = self._rule_tag if name == "quadrature.gauss_laguerre_rule" else TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._owner_stack[-1]
                except IndexError:
                    parent = -1
            span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if tagger is not None:
                span.tag = tagger(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the seven modules, everywhere it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._owner_stack
        modules = [importlib.import_module("trilag." + m) for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(obj, "%s.%s" % (short, attr))
        for mod in [importlib.import_module("trilag")] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []
        self.enabled = False


# ---------------------------------------------------------------------------
# per-layer metrics from a span list

O_N3_FAMILIES = ("yukawa_cosine", "yukawa_classical", "morse")
FAMILIES = ("yukawa_cosine", "yukawa_classical", "morse", "kratzer")
SIZE_BUCKETS = (100, 200, 400, 800)

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "potentials.busy_s": "s",
    "potentials.share": "ratio",
    "potentials.ns_per_N3": "ns",
    **{"potentials.%s_s" % f: "s" for f in FAMILIES},
    "eigen.solve_pencil.calls": "count",
    "eigen.solve_pencil.busy_s": "s",
    "eigen.cholesky.calls": "count",
    "eigen.cholesky.busy_s": "s",
    "eigen.share": "ratio",
    "solver.bound_states.calls": "count",
    "solver.bound_states.self_s": "s",
    **{"solver.bound_states.N%d_s" % n: "s" for n in SIZE_BUCKETS},
    "solver.critical_screening.solves": "count",
    "solver.lambda_scan.parallel_eff": "ratio",
    "quadrature.rule.calls": "count",
    "quadrature.rule.builds": "count",
    "quadrature.rule.hit_ratio": "ratio",
    "quadrature.rule.busy_s": "s",
    "quadrature.quad_potential_matrix.self_s": "s",
    "specfun.laguerre_seq.busy_s": "s",
    "basis.busy_s": "s",
    **{"%s.self_s" % m: "s" for m in MODULES},
    "trace.overhead": "ratio",
}


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = _union_length([(max(spans[k].start, s.start), min(spans[k].end, s.end))
                                 for k in kids if spans[k].end > s.start
                                 and spans[k].start < s.end])
        out.append(s.duration - covered)
    return out


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent


def _outermost(spans, pred):
    """Indices of spans matching pred with no matching ancestor."""
    return [i for i, s in enumerate(spans)
            if pred(s) and not any(pred(spans[a]) for a in _ancestors(spans, i))]


def layer_metrics(spans, passes, overhead):
    """Per-pass layer numbers; every name of LAYER_UNITS, 0 where a layer is idle."""
    own = self_times(spans)
    total = sum(own) or 1.0
    per = 1.0 / passes

    def busy(pred):
        return sum(spans[i].duration for i in _outermost(spans, pred))

    def named(name):
        return lambda s: s.name == name

    def in_module(m):
        return lambda s: s.module == m

    def count(name):
        return sum(1 for s in spans if s.name == name)

    m = {}
    pot = busy(in_module("potentials"))
    m["potentials.busy_s"] = pot * per
    m["potentials.share"] = pot / total
    outer_pot = [spans[i] for i in _outermost(spans, in_module("potentials"))]
    cubic = [s for s in outer_pot if isinstance(s.tag, tuple) and s.tag[0] in O_N3_FAMILIES]
    n3 = sum(float(s.tag[1]) ** 3 for s in cubic)
    m["potentials.ns_per_N3"] = 1e9 * sum(s.duration for s in cubic) / n3 if n3 else 0.0
    for f in FAMILIES:
        m["potentials.%s_s" % f] = per * sum(
            s.duration for s in outer_pot if isinstance(s.tag, tuple) and s.tag[0] == f)

    for fn in ("solve_pencil", "cholesky"):
        m["eigen.%s.calls" % fn] = count("eigen." + fn) * per
        m["eigen.%s.busy_s" % fn] = busy(named("eigen." + fn)) * per
    m["eigen.share"] = busy(in_module("eigen")) / total

    bs = [i for i, s in enumerate(spans) if s.name == "solver.bound_states"]
    m["solver.bound_states.calls"] = len(bs) * per
    m["solver.bound_states.self_s"] = sum(own[i] for i in bs) * per
    for n in SIZE_BUCKETS:
        m["solver.bound_states.N%d_s" % n] = per * sum(
            spans[i].duration for i in bs if spans[i].tag == n)
    m["solver.critical_screening.solves"] = per * sum(
        1 for i in bs
        if any(spans[a].name == "solver.critical_screening" for a in _ancestors(spans, i)))
    scans = [i for i, s in enumerate(spans) if s.name == "solver.lambda_scan"]
    scan_capacity = sum((spans[i].tag or 1) * spans[i].duration for i in scans)
    scan_set = set(scans)
    scan_busy = sum(s.duration for s in spans if s.parent in scan_set)
    m["solver.lambda_scan.parallel_eff"] = scan_busy / scan_capacity if scan_capacity else 0.0

    rules = [s for s in spans if s.name == "quadrature.gauss_laguerre_rule"]
    m["quadrature.rule.calls"] = len(rules) * per
    m["quadrature.rule.builds"] = sum(1 for s in rules if s.tag == "build") * per
    m["quadrature.rule.hit_ratio"] = (
        sum(1 for s in rules if s.tag == "hit") / len(rules) if rules else 0.0)
    m["quadrature.rule.busy_s"] = busy(named("quadrature.gauss_laguerre_rule")) * per
    m["quadrature.quad_potential_matrix.self_s"] = per * sum(
        own[i] for i, s in enumerate(spans) if s.name == "quadrature.quad_potential_matrix")
    m["specfun.laguerre_seq.busy_s"] = busy(named("specfun.laguerre_seq")) * per
    m["basis.busy_s"] = busy(in_module("basis")) * per
    for mod in MODULES:
        m["%s.self_s" % mod] = per * sum(
            own[i] for i, s in enumerate(spans) if s.module == mod)
    m["trace.overhead"] = overhead
    return m

