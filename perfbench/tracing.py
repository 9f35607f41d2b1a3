"""Span tracer that wraps cubekh's public functions from outside the package.

Each target function is looked up in the module that defines it and then
replaced, by identity, in every ``cubekh`` module namespace that holds it.
That catches both cross-module calls (``khovanov`` calling ``f2_rank``
imported from ``linalg``) and calls inside the defining module, which look
the name up in their own module globals at call time.  Nothing under
``src/`` changes.

Every call records a span (name, start, end, parent) in flat arrays kept in
memory; self times are computed when the run ends, as each span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (defining module, function name) -> span name.  A layer metric sums the
# self time of the spans listed for it in LAYER_SPANS.
TARGETS = {
    ("cli", "run_job"): "cli.run_job",
    ("diagram", "parse_pd"): "diagram.parse_pd",
    ("diagram", "resolve"): "diagram.resolve",
    ("diagram", "simplify_greedy"): "diagram.simplify_greedy",
    ("diagram", "smooth_crossing"): "diagram.smooth_crossing",
    ("diagram", "canonical_key"): "diagram.canonical_key",
    ("khovanov", "build_cube"): "khovanov.build_cube",
    ("khovanov", "edge_map"): "khovanov.edge_map",
    ("khovanov", "kh_complex"): "khovanov.kh_complex",
    ("khovanov", "khr_complex"): "khovanov.khr_complex",
    ("khovanov", "twisted_complex"): "khovanov.twisted_complex",
    ("khovanov", "hd_even_subcomplex"): "khovanov.hd_even_subcomplex",
    ("khovanov", "vertical_then_horizontal_ranks"):
        "khovanov.vertical_then_horizontal_ranks",
    ("khovanov", "weight_ss"): "khovanov.weight_ss",
    ("khovanov", "state_sum_det"): "khovanov.state_sum_det",
    ("complexes", "homology_ranks"): "complexes.homology_ranks",
    ("complexes", "total_complex"): "complexes.total_complex",
    ("complexes", "spectral_pages"): "complexes.spectral_pages",
    ("linalg", "f2_rank"): "linalg.f2_rank",
    ("linalg", "f2_kernel_basis"): "linalg.f2_kernel_basis",
    ("linalg", "smith_normal_form"): "linalg.smith_normal_form",
    ("linalg", "det_bareiss"): "linalg.det_bareiss",
    ("branched", "qa_certify"): "branched.qa_certify",
    ("branched", "goeritz"): "branched.goeritz",
    ("branched", "h1_sigma"): "branched.h1_sigma",
    ("surgery", "plumbing_lspace_check"): "surgery.plumbing_lspace_check",
    ("surgery", "surgered_h1"): "surgery.surgered_h1",
}

# Spans the benchmark itself opens around the JSON decode and encode of a job.
JSON_SPAN = "cli.json"

# Self-time metrics: metric name -> spans whose self time it sums.
LAYER_SPANS = {
    "diagram.parse_s": ("diagram.parse_pd",),
    "diagram.resolve_s": ("diagram.resolve",),
    "diagram.simplify_s": ("diagram.simplify_greedy", "diagram.smooth_crossing",
                           "diagram.canonical_key"),
    "khovanov.cube_s": ("khovanov.build_cube",),
    "khovanov.edge_map_s": ("khovanov.edge_map",),
    "khovanov.assemble_self_s": ("khovanov.kh_complex", "khovanov.khr_complex"),
    "khovanov.twisted_s": ("khovanov.twisted_complex",),
    "khovanov.hd_even_s": ("khovanov.hd_even_subcomplex",),
    "khovanov.vh_ranks_s": ("khovanov.vertical_then_horizontal_ranks",),
    "khovanov.weight_ss_self_s": ("khovanov.weight_ss",),
    "khovanov.state_sum_s": ("khovanov.state_sum_det",),
    "complexes.homology_s": ("complexes.homology_ranks",),
    "complexes.total_complex_s": ("complexes.total_complex",),
    "complexes.spectral_s": ("complexes.spectral_pages",),
    "linalg.rank_s": ("linalg.f2_rank",),
    "linalg.kernel_s": ("linalg.f2_kernel_basis",),
    "linalg.snf_s": ("linalg.smith_normal_form",),
    "linalg.bareiss_s": ("linalg.det_bareiss",),
    "branched.qa_s": ("branched.qa_certify",),
    "branched.goeritz_s": ("branched.goeritz",),
    "branched.h1_s": ("branched.h1_sigma",),
    "surgery.plumbing_s": ("surgery.plumbing_lspace_check",),
    "surgery.surgered_h1_s": ("surgery.surgered_h1",),
    "cli.run_job_self_s": ("cli.run_job",),
    "cli.json_s": (JSON_SPAN,),
}

# Inclusive-time metrics: metric name -> span whose whole duration it sums.
# spectral_pages spends most of its time in linalg kernels and ranks; a change
# that moves work between the two layers shows here as a net difference.
INCLUSIVE = {
    "complexes.spectral_total_s": "complexes.spectral_pages",
}

# Call-count metrics: metric name -> span whose calls it counts.
CALL_COUNTS = {
    "diagram.resolve_calls": "diagram.resolve",
    "khovanov.cube_builds": "khovanov.build_cube",
    "khovanov.state_sum_calls": "khovanov.state_sum_det",
    "linalg.rank_calls": "linalg.f2_rank",
    "linalg.kernel_calls": "linalg.f2_kernel_basis",
    "linalg.bareiss_calls": "linalg.det_bareiss",
}


def _cube_size(args, kwargs, result, add):
    add("khovanov.cube_states", len(result.states))
    add("khovanov.cube_edges", len(result.edges))


def _complex_dim(args, kwargs, result, add):
    add("khovanov.complex_dim", sum(result.dims.values()))


def _state_sum_states(args, kwargs, result, add):
    d = args[0]
    # the state loop only runs for a crossing diagram without free loops
    add("khovanov.state_sum_states",
        (1 << d.n) if d.n and not d.free_loops else 0)


def _pages(args, kwargs, result, add):
    add("complexes.pages", len(result.pages))
    add("complexes.pages_needed", result.stabilization_index + 1)


def _rank_rows(args, kwargs, result, add):
    add("linalg.rank_rows", args[0].nrows)


def _qa_nodes(args, kwargs, result, add):
    # memoised subtrees repeat inside the tree; count each search node once
    seen, todo = set(), [result] if result is not None else []
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.children)
    add("branched.qa_cert_nodes", len(seen))


def _plumbing_steps(args, kwargs, result, add):
    add("surgery.plumbing_steps", len(result.derivation))


# span name -> (function(args, kwargs, result, add) recording result sizes,
# the keys it adds that are reported as metrics, per traced pass)
COUNTERS = {
    "khovanov.build_cube": (_cube_size, ("khovanov.cube_states", "khovanov.cube_edges")),
    "khovanov.kh_complex": (_complex_dim, ("khovanov.complex_dim",)),
    "khovanov.khr_complex": (_complex_dim, ("khovanov.complex_dim",)),
    "khovanov.state_sum_det": (_state_sum_states, ("khovanov.state_sum_states",)),
    "complexes.spectral_pages": (_pages, ("complexes.pages",)),
    "linalg.f2_rank": (_rank_rows, ("linalg.rank_rows",)),
    "branched.qa_certify": (_qa_nodes, ()),
    "surgery.plumbing_lspace_check": (_plumbing_steps, ("surgery.plumbing_steps",)),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Metrics derived from the added keys and the span tree:
# metric name -> (spans it depends on, function(tracer, passes)).
# A search node is a call of canonical_key made directly by qa_certify.
DERIVED = {
    "complexes.pages_useful_ratio": (
        ("complexes.spectral_pages",),
        lambda t, passes: _ratio(t.counts.get("complexes.pages_needed", 0),
                                 t.counts.get("complexes.pages", 0))),
    "branched.qa_nodes_visited": (
        ("branched.qa_certify", "diagram.canonical_key"),
        lambda t, passes: t.calls_under("diagram.canonical_key",
                                        "branched.qa_certify") / passes),
    "branched.qa_det_evals": (
        ("branched.qa_certify", "khovanov.state_sum_det"),
        lambda t, passes: t.calls_under("khovanov.state_sum_det",
                                        "branched.qa_certify") / passes),
    "branched.qa_useful_ratio": (
        ("branched.qa_certify", "diagram.canonical_key"),
        lambda t, passes: _ratio(t.counts.get("branched.qa_cert_nodes", 0),
                                 t.calls_under("diagram.canonical_key",
                                               "branched.qa_certify"))),
}


class Tracer:
    """Records spans while installed; `metrics` turns them into layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        counter = COUNTERS.get(name, (None,))[0]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None and name not in tracer.broken:
                try:
                    counter(args, kwargs, result, tracer.add)
                except (AttributeError, IndexError, TypeError):
                    tracer.broken.add(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "cubekh" or key.startswith("cubekh."))]
        for (mod, fname), span_name in targets.items():
            defining = sys.modules.get(f"cubekh.{mod}")
            fn = getattr(defining, fname, None) if defining is not None else None
            if not callable(fn):
                self.missing.add(span_name)
                continue
            traced = self._wrap(span_name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, traced)
                        self._patched.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: summed self time, summed duration and call count."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            dur = self.end[i] - self.start[i]
            k = self.name_of[i]
            self_s[k] += dur - child[i]
            total_s[k] += dur
            calls[k] += 1
        return tuple(dict(zip(self.names, x)) for x in (self_s, total_s, calls))

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of `name` whose direct parent span is `parent_name`."""
        k = self._name_id.get(name)
        pk = self._name_id.get(parent_name)
        if k is None or pk is None:
            return 0
        return sum(1 for i in range(len(self.start))
                   if self.name_of[i] == k and self.parent[i] >= 0
                   and self.name_of[self.parent[i]] == pk)

    def metrics(self, passes: int) -> dict[str, float | None]:
        """Every layer metric, averaged per traced pass; None marks a metric
        whose wrapped function no longer exists (missing, not zero)."""
        selfs, totals, calls = self.self_times()
        out: dict[str, float | None] = {}
        needs: dict[str, tuple] = {}        # metric -> spans it depends on
        for metric, spans in LAYER_SPANS.items():
            out[metric] = sum(selfs.get(s, 0.0) for s in spans) / passes
            needs[metric] = spans
        for metric, span in INCLUSIVE.items():
            out[metric] = totals.get(span, 0.0) / passes
            needs[metric] = (span,)
        for metric, span in CALL_COUNTS.items():
            out[metric] = calls.get(span, 0) / passes
            needs[metric] = (span,)
        for span, (_, names) in COUNTERS.items():
            for metric in names:
                out[metric] = self.counts.get(metric, 0) / passes
                needs[metric] = needs.get(metric, ()) + (span,)
        for metric, (spans, value) in DERIVED.items():
            out[metric] = value(self, passes)
            needs[metric] = spans
        gone = self.missing | self.broken
        for metric, spans in needs.items():
            if gone.intersection(spans):
                out[metric] = None
        return out


class _Span:
    __slots__ = ("tracer", "name_id", "idx")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer.open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False
