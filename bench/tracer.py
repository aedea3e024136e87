"""Tracing from outside the program.

Each public function is replaced, in the namespace its callers look it up
in, by a wrapper that records a span (name, parent span, start, end).
Spans are kept in memory and reduced to per-layer call counts and self
times when the pass ends.  Work the tracer does for its own counters runs
inside "trace.hooks" spans, so it is charged to no layer.
"""

from __future__ import annotations

from time import perf_counter

from workloads import RECORD_GROUPS, record_group

HOOKS = "trace.hooks"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tags: dict[int, str] = {}
        self.stack = [-1]
        # series.mul operands: nonzeros of the sparser one, terms, widest coefficient
        self.mul_sparse_nonzero = 0
        self.mul_terms = 0
        self.mul_max_bits = 0
        # claim expressions identities asked to evaluate, by text and order
        self.requested: set[tuple[str, int]] = set()
        self.repeats = 0
        # cache_info() counts: (pochhammer hits, misses, theta_f hits, misses)
        self.theta = None
        self.caches_at_install: tuple[int, ...] = ()
        self.record_caches: dict[str, tuple[int, ...]] = {}

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def _hook(self, fn, *args):
        i = self._open(HOOKS)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def wrap(self, fn, name: str, before=None, after=None, tag=None):
        """fn wrapped in a span.  before(args) runs ahead of the span and its
        value goes to after(state, args, result), which runs behind it."""

        def traced(*args, **kwargs):
            state = self._hook(before, args) if before else None
            i = self._open(name)
            if tag:
                self.tags[i] = tag(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after:
                self._hook(after, state, args, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _mul_before(self, args):
        # The kernel sees both operands truncated to the shorter one.
        a, b = args
        n = min(a.order, b.order) + 1
        xs = a.coeffs if a.order + 1 == n else a.coeffs[:n]
        ys = b.coeffs if b.order + 1 == n else b.coeffs[:n]
        self.mul_sparse_nonzero += n - max(xs.count(0), ys.count(0))
        self.mul_terms += n
        self.mul_max_bits = max(self.mul_max_bits, _max_bits(xs), _max_bits(ys))

    def cache_counts(self, _args=None) -> tuple[int, ...]:
        p, t = self.theta.pochhammer.cache_info(), self.theta.theta_f.cache_info()
        return (p.hits, p.misses, t.hits, t.misses)

    def install(self, series, theta, qexpr, identities, cli) -> None:
        """Wrap every traced name where its callers look it up."""
        self.theta = theta
        self.caches_at_install = self.cache_counts()
        ts = series.TruncatedSeries
        ts.__mul__ = self.wrap(ts.__mul__, "series.mul", self._mul_before)
        ts.__pow__ = self.wrap(ts.__pow__, "series.pow")
        ts.__add__ = self.wrap(ts.__add__, "series.add")
        ts.__sub__ = self.wrap(ts.__sub__, "series.sub")
        # __pow__ finds invert in series, Div finds it in qexpr.
        series.invert = qexpr.invert = self.wrap(series.invert, "series.invert")
        for name in ("pochhammer", "theta_f", "phi", "psi", "bsum"):
            setattr(qexpr, name, self.wrap(getattr(qexpr, name), f"theta.{name}"))

        qexpr.evaluate = identities.evaluate = self.wrap(qexpr.evaluate, "qexpr.evaluate")

        # Every claim text goes through _series_of, which caches by text, so
        # a repeated text is counted here, where it is asked for.
        def request_before(args):
            self.repeats += args in self.requested
            self.requested.add(args)

        identities._series_of = self.wrap(
            identities._series_of, "identities.series_of", request_before)
        qexpr.parse = identities.parse = self.wrap(qexpr.parse, "qexpr.parse")
        identities.dissect = self.wrap(identities.dissect, "series.dissect")

        def verify_after(before, args, result):
            self.record_caches[args[0].id] = _deltas(before, self.cache_counts())

        identities.verify = self.wrap(
            identities.verify, "identities.verify", self.cache_counts, verify_after,
            tag=lambda args: args[0].id,
        )
        cli.main = self.wrap(cli.main, "cli.main")

    # -- reduction ----------------------------------------------------------

    def layers(self) -> dict[str, list]:
        """name -> [calls, self seconds]."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += dur[i] - covered[i]
        return out

    def group_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(RECORD_GROUPS, 0.0)
        for i, rid in self.tags.items():
            g = record_group(rid)
            if g in out:
                out[g] += self.ends[i] - self.starts[i]
        return out


def _max_bits(cs) -> int:
    return max(max(cs), -min(cs)).bit_length() if cs else 0


def _deltas(before, after) -> tuple[int, ...]:
    return tuple(y - x for x, y in zip(before, after))


def layer_metrics(tracer: Tracer, run_s: float) -> dict:
    """Per-layer figures of one traced pass, which has just ended."""
    rows = tracer.layers()
    poch_hits, poch_misses, theta_hits, theta_misses = _deltas(
        tracer.caches_at_install, tracer.cache_counts())

    def calls(name):
        return rows.get(name, [0])[0]

    def self_s(*names):
        return sum(rows[n][1] for n in names if n in rows)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "series.mul.calls": calls("series.mul"),
        "series.mul.self_s": self_s("series.mul"),
        "series.mul.nonzero_frac": ratio(tracer.mul_sparse_nonzero, tracer.mul_terms),
        "series.mul.operand_terms": tracer.mul_terms,
        "series.mul.max_coeff_bits": tracer.mul_max_bits,
        "series.invert.calls": calls("series.invert"),
        "series.invert.self_s": self_s("series.invert"),
        "series.pow.calls": calls("series.pow"),
        "series.pow.self_s": self_s("series.pow"),
        "series.addsub.self_s": self_s("series.add", "series.sub"),
        "series.dissect.self_s": self_s("series.dissect"),
        "theta.pochhammer.calls": calls("theta.pochhammer"),
        "theta.pochhammer.self_s": self_s("theta.pochhammer"),
        "theta.pochhammer.hit_ratio": ratio(poch_hits, poch_hits + poch_misses),
        "theta.theta_f.calls": calls("theta.theta_f"),
        "theta.theta_f.self_s": self_s("theta.theta_f"),
        "theta.theta_f.hit_ratio": ratio(theta_hits, theta_hits + theta_misses),
        "theta.sums.self_s": self_s("theta.phi", "theta.psi", "theta.bsum"),
        "qexpr.parse.calls": calls("qexpr.parse"),
        "qexpr.parse.self_s": self_s("qexpr.parse"),
        "qexpr.evaluate.calls": calls("qexpr.evaluate"),
        "qexpr.evaluate.self_s": self_s("qexpr.evaluate"),
        "qexpr.evaluate.repeat_ratio": ratio(tracer.repeats, calls("identities.series_of")),
        "identities.verify.calls": calls("identities.verify"),
        "identities.verify.self_s": self_s("identities.verify"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for group, seconds in tracer.group_seconds().items():
        m[f"identities.group.{group}.s"] = seconds
    layer_self = sum(row[1] for name, row in rows.items() if name != HOOKS)
    m["trace.hooks_s"] = self_s(HOOKS)
    m["trace.self_coverage"] = ratio(layer_self, run_s)
    return m
