"""Outside-in span tracer for the benchmark.

Wrappers are installed on the names callers look up (a module attribute such
as ``schemes.max_sum_rate`` or a class attribute such as
``ConstraintSystem.numeric``), never where a function is defined, so calls
made through an imported name are counted.  A name that no longer exists is
recorded as absent and every metric that depends only on absent names is
reported as ``None``, never as 0.  Nothing under ``src/`` is modified: the
tracer restores every original attribute when it is removed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Site:
    """One wrapped lookup site: ``owner.attr`` recorded under ``span``.

    ``pre(args, kwargs)`` runs before the span's clock starts and ``post(state,
    result)`` after it stops; what ``post`` returns is kept as the span's
    extra data.
    """

    owner: str
    attr: str
    span: str
    pre: Callable | None = None
    post: Callable | None = None


def _fme_pre(args, kwargs):
    system = args[0] if args else kwargs["system"]
    var = args[1] if len(args) > 1 else kwargs["var"]
    up = lo = 0
    for c in system.constraints:
        a = c.coeff(var)
        if a > 0:
            up += 1
        elif a < 0:
            lo += 1
    return {"pairings": up * lo, "carried": len(system.constraints) - up - lo}


def _fme_post(state, result):
    state["rows_out"] = len(result.constraints)
    return state


def _scheme_pre(args, kwargs):
    return {"scheme": args[0] if args else kwargs["scheme"]}


def _keep_state(state, result):
    return state


def _feasible_post(state, result):
    return {"passed": bool(result)}


SITES = (
    Site("cli", "main", "cli.main"),
    # the entry points cli.main calls, so that its self time can be taken
    Site("cli", "sweep_rows", "schemes.sweep_rows"),
    Site("cli", "parse_system", "polytope.parse_system"),
    Site("cli", "eliminate_all", "polytope.eliminate_all"),
    Site("cli", "format_system", "polytope.format_system"),
    Site("verify", "example2_run", "verify.example2_run"),
    Site("gapaudit", "audit_random_instances", "gapaudit.audit_random_instances"),
    # sweep
    Site("schemes", "optimize_scheme", "schemes.optimize_scheme"),
    Site("schemes", "rsum_star", "schemes.rsum_star"),
    Site("schemes", "scheme_sumrate", "schemes.objective", pre=_scheme_pre,
         post=_keep_state),
    Site("schemes", "build_joint_cov", "schemes.build_joint_cov"),
    Site("gaussian", "atom_valuation", "gaussian.atom_valuation"),
    Site("schemes", "max_sum_rate", "regions.max_sum_rate"),
    Site("schemes", "corollary3_feasible", "regions.corollary3_feasible",
         post=_feasible_post),
    Site("polytope.ConstraintSystem", "numeric", "polytope.numeric"),
    # zcheck
    Site("discrete", "atom_valuation", "discrete.atom_valuation"),
    Site("discrete", "entropy", "discrete.entropy"),
    Site("discrete.JointPmf", "make", "discrete.pmf_make"),
    Site("verify", "random_gds_pmf_zchannel", "verify.pmf_build"),
    Site("verify", "linprog", "verify.lp"),
    Site("discrete", "parse_atom", "atoms.parse_atom"),
    Site("gaussian", "parse_atom", "atoms.parse_atom"),
    Site("regions", "parse_atom", "atoms.parse_atom"),
    Site("schemes", "parse_atom", "atoms.parse_atom"),
    # project
    Site("regions", "gds_project", "regions.gds_project"),
    Site("regions", "apply_substitution", "regions.apply_substitution"),
    Site("regions", "eliminate_all", "polytope.eliminate_all"),
    Site("regions", "resolve_atoms", "polytope.resolve_atoms"),
    Site("polytope", "fme_eliminate", "polytope.fme", pre=_fme_pre, post=_fme_post),
    Site("polytope", "regions_equal_sampled", "polytope.regions_equal_sampled"),
    # audit
    Site("gapaudit", "audit", "gapaudit.audit"),
    Site("gapaudit", "capacity_logdet", "gaussian.capacity_logdet"),
)

JOB_SPAN = "job"


def _resolve_owner(path: str):
    """``"polytope.ConstraintSystem"`` -> the class inside cranbounds.polytope."""
    module, _, cls = path.partition(".")
    try:
        owner = importlib.import_module(f"cranbounds.{module}")
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Records one span per wrapped call while installed.

    Each span is ``[name, start_ns, end_ns, parent_index, job_id]``; the
    parent is the innermost open span, -1 at top level.  Spans stay in
    memory until ``dump``.
    """

    def __init__(self, sites=SITES):
        self.sites = tuple(sites)
        self.spans: list[list] = []
        self.extra: dict[int, dict] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._job = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for site in self.sites:
            owner = _resolve_owner(site.owner)
            raw = vars(owner).get(site.attr) if owner is not None else None
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not callable(func):
                self.absent.append(f"{site.owner}.{site.attr}")
                continue
            wrapped = self._wrap(func, site)
            setattr(owner, site.attr,
                    staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._saved.append((owner, site.attr, raw))

    def remove(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def absent_spans(self) -> set[str]:
        """Span names whose every site is absent."""
        present = {s.span for s in self.sites
                   if f"{s.owner}.{s.attr}" not in self.absent}
        return {s.span for s in self.sites} - present

    # -- recording ---------------------------------------------------------

    def _wrap(self, func, site: Site):
        name, pre, post = site.span, site.pre, site.post
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            parent = stack[-1] if stack else -1
            sid = len(spans)
            span = [name, 0, 0, parent, self._job]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if post is not None:
                self.extra[sid] = post(state, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def job(self, job_id: str):
        """Job-level span; spans opened inside it carry `job_id`."""
        sid = len(self.spans)
        span = [JOB_SPAN, 0, 0, -1, job_id]
        self.spans.append(span)
        self._stack.append(sid)
        self._job = job_id
        span[1] = perf_counter_ns()
        try:
            yield
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
            self._job = None

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "absent_sites": self.absent,
                       "spans": self.spans,
                       "extra": {str(k): v for k, v in self.extra.items()}}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, span names it needs, function of the aggregate)
def _calls(span):
    return ("count", (span,), lambda a: a.calls(span))


def _total_s(span):
    return ("s", (span,), lambda a: a.total_s(span))


def _per_call_us(span):
    return ("us", (span,), lambda a: a.per_call_us(span))


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = {
    "schemes.optimize_scheme.calls": _calls("schemes.optimize_scheme"),
    "schemes.optimize_scheme.s": _total_s("schemes.optimize_scheme"),
    "schemes.rsum_star.s": _total_s("schemes.rsum_star"),
    "schemes.objective.calls": _calls("schemes.objective"),
    "schemes.objective.us": _per_call_us("schemes.objective"),
    "schemes.search_self.s": ("s", ("schemes.optimize_scheme", "schemes.objective"),
                              lambda a: a.self_s("schemes.optimize_scheme",
                                                 only="schemes.objective")),
    "schemes.build_joint_cov.us": _per_call_us("schemes.build_joint_cov"),
    "gaussian.atom_valuation.calls": _calls("gaussian.atom_valuation"),
    "gaussian.atom_valuation.us": _per_call_us("gaussian.atom_valuation"),
    "regions.max_sum_rate.us": _per_call_us("regions.max_sum_rate"),
    "regions.corollary3_feasible.calls": _calls("regions.corollary3_feasible"),
    "regions.corollary3_feasible.pass_ratio": (
        "ratio", ("regions.corollary3_feasible",),
        lambda a: _ratio(a.extra_sum("regions.corollary3_feasible", "passed"),
                         a.calls("regions.corollary3_feasible"))),
    "polytope.numeric.calls": _calls("polytope.numeric"),
    "polytope.numeric.us": _per_call_us("polytope.numeric"),
    "discrete.atom_valuation.calls": _calls("discrete.atom_valuation"),
    "discrete.atom_valuation.us": _per_call_us("discrete.atom_valuation"),
    "discrete.entropy.calls": _calls("discrete.entropy"),
    "discrete.entropy.us": _per_call_us("discrete.entropy"),
    "discrete.pmf_make.calls": _calls("discrete.pmf_make"),
    "verify.pmf_build.us": _per_call_us("verify.pmf_build"),
    "verify.lp.calls": _calls("verify.lp"),
    "verify.lp.us": _per_call_us("verify.lp"),
    "verify.lp_per_sample": (
        "ratio", ("verify.lp", "verify.pmf_build"),
        lambda a: _ratio(a.calls("verify.lp"), a.calls("verify.pmf_build"))),
    "atoms.parse_atom.calls": _calls("atoms.parse_atom"),
    "regions.gds_project.s": _total_s("regions.gds_project"),
    "regions.apply_substitution.s": _total_s("regions.apply_substitution"),
    "polytope.fme.steps": _calls("polytope.fme"),
    "polytope.fme.s": _total_s("polytope.fme"),
    "polytope.fme.pairings": ("count", ("polytope.fme",),
                              lambda a: a.extra_sum("polytope.fme", "pairings")),
    "polytope.fme.rows_out": ("count", ("polytope.fme",),
                              lambda a: a.extra_sum("polytope.fme", "rows_out")),
    "polytope.fme.rows_max": ("count", ("polytope.fme",),
                              lambda a: a.extra_max("polytope.fme", "rows_out")),
    "polytope.fme.keep_ratio": (
        "ratio", ("polytope.fme",),
        lambda a: _ratio(a.extra_sum("polytope.fme", "rows_out"),
                         a.extra_sum("polytope.fme", "pairings")
                         + a.extra_sum("polytope.fme", "carried"))),
    "polytope.resolve_atoms.s": _total_s("polytope.resolve_atoms"),
    "polytope.regions_equal_sampled.s": _total_s("polytope.regions_equal_sampled"),
    "gapaudit.audit.us": _per_call_us("gapaudit.audit"),
    "gaussian.capacity_logdet.calls": _calls("gaussian.capacity_logdet"),
    "gaussian.capacity_logdet.us": _per_call_us("gaussian.capacity_logdet"),
    "cli.self.s": ("s", ("cli.main",), lambda a: a.self_s("cli.main")),
}

# Measured by the runner, not derived from spans of one repetition.
RUNNER_METRICS = {
    "trace.overhead_s": "s",
    "trace.job_coverage": "ratio",
}


class _Aggregate:
    """Totals over one slice of spans."""

    def __init__(self, spans, extra, lo, hi):
        self.count: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        self.self_ns: dict[tuple[str, str | None], int] = {}
        self.extras: dict[str, list[dict]] = {}
        child_ns: dict[int, dict[str, int]] = {}
        for sid in range(lo, hi):
            name, t0, t1, parent, _ = spans[sid]
            dur = t1 - t0
            self.count[name] = self.count.get(name, 0) + 1
            self.ns[name] = self.ns.get(name, 0) + dur
            if parent >= lo:
                per = child_ns.setdefault(parent, {})
                per[name] = per.get(name, 0) + dur
            if sid in extra:
                self.extras.setdefault(name, []).append(extra[sid])
        self._spans, self._child_ns, self._lo, self._hi = spans, child_ns, lo, hi

    def calls(self, name):
        return self.count.get(name, 0)

    def total_s(self, name):
        return self.ns.get(name, 0) / 1e9

    def per_call_us(self, name):
        n = self.count.get(name, 0)
        return self.ns.get(name, 0) / n / 1e3 if n else 0.0

    def self_s(self, name, only=None):
        """Inclusive time of `name` minus its direct children (all of them,
        or only those named `only`)."""
        total = 0
        for sid in range(self._lo, self._hi):
            span = self._spans[sid]
            if span[0] != name:
                continue
            kids = self._child_ns.get(sid, {})
            sub = kids.get(only, 0) if only else sum(kids.values())
            total += span[2] - span[1] - sub
        return total / 1e9

    def extra_sum(self, name, key):
        return sum(e[key] for e in self.extras.get(name, ()))

    def extra_max(self, name, key):
        return max((e[key] for e in self.extras.get(name, ())), default=0)

    def job_s(self):
        return self.total_s(JOB_SPAN)


def per_layer_metrics(tracer: Tracer, slices) -> dict[str, dict]:
    """Median over repetitions (each a ``(lo, hi)`` slice of spans) of every
    per-layer metric; ``value`` is None where the metric's names are absent."""
    gone = tracer.absent_spans()
    aggs = [_Aggregate(tracer.spans, tracer.extra, lo, hi) for lo, hi in slices]
    out = {}
    for name, (unit, needs, fn) in PER_LAYER.items():
        if any(n in gone for n in needs):
            out[name] = {"value": None, "unit": unit}
            continue
        out[name] = {"value": statistics.median(fn(a) for a in aggs), "unit": unit}
    return out


def job_seconds(tracer: Tracer, lo: int, hi: int) -> float:
    return _Aggregate(tracer.spans, tracer.extra, lo, hi).job_s()
