"""In-memory span tracer for the riskprop benchmark.

The tracer wraps library functions at the attribute where their caller looks
them up (for example `hgmae.build_message_pairs`, which hgmae imported by
name, and `autodiff.matmul`, which gat calls as `ad.matmul`), so nothing in
the library changes. Each wrapped call appends a span (name, start, end,
parent, root, attrs) to a list that is written out when the run ends.

Autodiff ops run some 500 times per pretraining step, so they are not kept
as individual spans: each op's call count, forward seconds and backward
seconds are summed onto the enclosing `hgmae.step` span. Backward time comes
from wrapping the `_backward` closure of each op's output tensor.

A lookup site that no longer exists is skipped, and every span name with no
site left is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

OPS = ("matmul", "gather_rows", "scatter_sum", "exp", "div", "set_rows", "colmul", "leaky_relu")
VARIANTS = ("eta1", "eta0")
STAGES = ("generate", "pretrain", "embed", "pairs", "train", "evaluate")

# span name -> (module, attribute) pairs naming every place a caller looks it up
SITES = {
    **{f"experiment.{s}": [("experiment", f"run_{s}")] for s in STAGES},
    "hgmae.pretrain": [("hgmae", "pretrain")],
    "hgmae.step": [("hgmae", "hgmae_step")],
    "hgmae.term": [("hgmae", "_reconstruction_term")],
    "hgmae.infer_embeddings": [("hgmae", "infer_embeddings")],
    "gat.layer_forward": [("gat", "gat_layer_forward")],
    "gat.build_message_pairs": [("hgmae", "build_message_pairs"), ("gat", "build_message_pairs")],
    "graph.extract_subgraph": [("hgmae", "extract_subgraph"), ("graph", "extract_subgraph")],
    "autodiff.backward": [("autodiff", "backward")],
    "optim.adam_step": [("hgmae", "adam_step"), ("optim", "adam_step")],
    **{f"autodiff.{op}": [("autodiff", op)] for op in OPS},
    "synthetic.generate_graph": [("synthetic", "generate_graph")],
    "synthetic.simulate_cascade": [("synthetic", "simulate_cascade")],
    "pairs.enumerate_candidate_pairs": [("pairs", "enumerate_candidate_pairs")],
    "pairs.build_pairs": [("pairs", "build_pairs")],
    "pairs.split_pairs": [("pairs", "split_pairs")],
    "classify.train_classifier": [("classify", "train_classifier")],
    "classify.evaluate": [("classify", "evaluate")],
    "graph.save_graph": [("graph", "save_graph")],
    "graph.load_graph": [("graph", "load_graph")],
    "checkpoint.save": [("experiment", "save_checkpoint"), ("checkpoint", "save_checkpoint")],
    "checkpoint.load": [("experiment", "load_checkpoint"), ("checkpoint", "load_checkpoint")],
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    spec = [(f"experiment.{s}_s", "s", "lower") for s in STAGES]
    for v in VARIANTS:
        spec += [
            (f"hgmae.{v}.step_ms_p50", "ms", "lower"),
            (f"hgmae.{v}.step_ms_p95", "ms", "lower"),
            (f"hgmae.{v}.tape_nodes_per_step", "count", "lower"),
            (f"gat.{v}.layer_forward_calls_per_step", "count", "lower"),
            (f"gat.{v}.build_message_pairs_calls_per_step", "count", "lower"),
            (f"graph.{v}.extract_subgraph_calls_per_step", "count", "lower"),
        ]
    spec += [
        ("hgmae.full_term_ms", "ms", "lower"),
        ("hgmae.sub_term_ms", "ms", "lower"),
        ("hgmae.infer_embeddings_s", "s", "lower"),
        ("hgmae.zero_norm_rows", "count", "lower"),
        ("hgmae.final_loss", "loss", "lower"),
        ("gat.layer_forward_ms", "ms", "lower"),
        ("autodiff.backward_ms", "ms", "lower"),
    ]
    for op in OPS:
        spec += [
            (f"autodiff.{op}.calls_per_step", "count", "lower"),
            (f"autodiff.{op}.fwd_ms", "ms", "lower"),
            (f"autodiff.{op}.bwd_ms", "ms", "lower"),
        ]
    spec += [
        ("optim.adam_step_ms", "ms", "lower"),
        ("synthetic.generate_graph_s", "s", "lower"),
        ("synthetic.edge_yield", "ratio", "higher"),
        ("synthetic.simulate_cascade_s", "s", "lower"),
        ("pairs.build_pairs_s", "s", "lower"),
        ("pairs.split_pairs_s", "s", "lower"),
        ("pairs.candidates", "count", "lower"),
        ("pairs.keep_ratio", "ratio", "higher"),
        ("classify.train_classifier_s", "s", "lower"),
        ("classify.evaluate_s", "s", "lower"),
        ("classify.task_only_micro_f1", "ratio", "higher"),
        ("classify.hgmae_micro_f1", "ratio", "higher"),
        ("classify.eta0_micro_f1", "ratio", "higher"),
        ("graph.save_graph_s", "s", "lower"),
        ("graph.load_graph_s", "s", "lower"),
        ("checkpoint.save_s", "s", "lower"),
        ("checkpoint.load_s", "s", "lower"),
        ("io.bytes_written", "bytes", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "attrs")

    def __init__(self, name, parent, root):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.root = root
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _VariateCounter:
    """Stands in for a numpy Generator and counts the variates it returns."""

    def __init__(self, rng, tally):
        self._rng = rng
        self._tally = tally

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if not callable(method):
            return method

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._tally[0] += getattr(out, "size", 1)
            return out

        return draw


class Tracer:
    """Records spans while installed; `modules` maps short names to modules."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._variant: str | None = None
        self._step: Span | None = None
        self._last_step: Span | None = None

    # -- span bookkeeping -------------------------------------------------

    def _begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, parent.root if parent else None)
        if span.root is None:
            span.root = span
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span: one setup or one iteration of a workload."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, sites in SITES.items():
            found = False
            for mod_name, attr in sites:
                mod = self.modules.get(mod_name)
                original = getattr(mod, attr, None)
                if not callable(original):
                    continue
                found = True
                self._patches.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
            if not found:
                self.absent.add(name)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        if name.startswith("autodiff.") and name.split(".", 1)[1] in OPS:
            return self._wrap_op(name.split(".", 1)[1], fn)
        special = {
            "hgmae.pretrain": self._wrap_pretrain,
            "hgmae.step": self._wrap_step,
            "hgmae.term": self._wrap_term,
            "autodiff.backward": self._wrap_backward,
            "synthetic.generate_graph": self._wrap_generate,
        }.get(name)
        if special is not None:
            return special(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._finish(span)
            # Adam runs in pretrain after the step returns; charge it to that step
            step = tracer._last_step if name == "optim.adam_step" else tracer._step
            if step is not None:
                _bump(step.attrs, name + ".calls", 1)
                _bump(step.attrs, name + ".s", span.seconds)
            if name in ("pairs.enumerate_candidate_pairs", "pairs.build_pairs"):
                span.attrs["count"] = len(result)
            return result

        return wrapper

    def _wrap_pretrain(self, fn):
        tracer = self

        def wrapper(g, cfg, *args, **kwargs):
            zero_rows = getattr(tracer.modules["hgmae"], "zero_norm_row_count", None)
            before = zero_rows() if zero_rows else 0
            outer = tracer._variant
            tracer._variant = "eta0" if getattr(cfg, "eta", 1.0) == 0.0 else "eta1"
            span = tracer._begin("hgmae.pretrain")
            span.attrs["variant"] = tracer._variant
            try:
                result = fn(g, cfg, *args, **kwargs)
            finally:
                tracer._finish(span)
                tracer._variant = outer
                tracer._last_step = None
            if zero_rows:
                span.attrs["zero_norm_rows"] = zero_rows() - before
            else:
                tracer.absent.add("hgmae.zero_norm_rows")
            try:
                span.attrs["final_loss"] = float(result[1][-1].loss_total)
            except (TypeError, IndexError, AttributeError):
                pass
            return result

        return wrapper

    def _wrap_step(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._begin("hgmae.step")
            span.attrs["variant"] = tracer._variant
            outer = tracer._step
            tracer._step = span
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._step = outer
                tracer._finish(span)
            tracer._last_step = span
            return result

        return wrapper

    def _wrap_term(self, fn):
        tracer = self
        subgraph_type = getattr(self.modules["graph"], "Subgraph", None)

        def wrapper(graph_like, *args, **kwargs):
            is_sub = subgraph_type is not None and isinstance(graph_like, subgraph_type)
            name = "hgmae.sub_term" if is_sub else "hgmae.full_term"
            span = tracer._begin(name)
            try:
                return fn(graph_like, *args, **kwargs)
            finally:
                tracer._finish(span)
                if tracer._step is not None:
                    _bump(tracer._step.attrs, name + ".s", span.seconds)

        return wrapper

    def _wrap_backward(self, fn):
        tracer = self

        def wrapper(root, *args, **kwargs):
            nodes = _count_tape_nodes(root)
            if nodes is None:
                tracer.absent.add("autodiff.Tensor._parents")
            span = tracer._begin("autodiff.backward")
            try:
                return fn(root, *args, **kwargs)
            finally:
                tracer._finish(span)
                step = tracer._step
                if step is not None:
                    _bump(step.attrs, "tape_nodes", nodes or 0)
                    _bump(step.attrs, "autodiff.backward.s", span.seconds)

        return wrapper

    def _wrap_generate(self, fn):
        tracer = self
        np_random = self.modules["numpy"].random

        def wrapper(*args, **kwargs):
            tally = [0]
            default_rng = np_random.default_rng
            np_random.default_rng = lambda *a, **k: _VariateCounter(default_rng(*a, **k), tally)
            span = tracer._begin("synthetic.generate_graph")
            try:
                g = fn(*args, **kwargs)
            finally:
                tracer._finish(span)
                np_random.default_rng = default_rng
            edge_lists = getattr(g, "edge_lists", {})
            span.attrs["edges"] = int(sum(e.shape[0] for e in edge_lists.values()))
            span.attrs["variates"] = int(tally[0])
            return g

        return wrapper

    def _wrap_op(self, op: str, fn):
        tracer = self

        def timed_backward(bwd, totals):
            def run(grad):
                t0 = time.perf_counter()
                bwd(grad)
                totals[2] += time.perf_counter() - t0

            return run

        def wrapper(*args, **kwargs):
            step = tracer._step
            if step is None or step.attrs["variant"] != "eta1":
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            ops = step.attrs.setdefault("ops", {})
            totals = ops.get(op)
            if totals is None:
                totals = ops[op] = [0, 0.0, 0.0]
            totals[0] += 1
            totals[1] += elapsed
            if all(out is not a for a in args):
                bwd = getattr(out, "_backward", None)
                if bwd is None:
                    tracer.absent.add(f"autodiff.{op}.bwd")
                else:
                    out._backward = timed_backward(bwd, totals)
            return out

        return wrapper

    # -- output ---------------------------------------------------------------

    def write_tsv(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        lines = ["id\tname\tstart\tend\tparent\tattrs"]
        for i, s in enumerate(self.spans):
            parent = index[id(s.parent)] if s.parent is not None else -1
            attrs = {k: v for k, v in s.attrs.items() if k != "ops"}
            attrs.update({f"ops.{op}": t for op, t in s.attrs.get("ops", {}).items()})
            lines.append(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{parent}\t{json.dumps(attrs)}")
        path.write_text("\n".join(lines) + "\n")


def _bump(attrs: dict, key: str, amount) -> None:
    attrs[key] = attrs.get(key, 0) + amount


def _count_tape_nodes(root) -> int | None:
    """Distinct tensors reachable from root through _parents, root included."""
    seen = {id(root)}
    stack = [root]
    try:
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
    except AttributeError:
        return None
    return len(seen)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p95(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))])


def per_layer_metrics(tracer: Tracer, iterations: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of the given traced iteration roots
    (and of traced setups, for layers that run only there).

    Seconds metrics (`_s`) are the median per call; `_ms` metrics are per
    pretraining step. Per-step counts and per-op figures are averaged over
    steps of the named variant, or over `eta1` steps where none is named.
    Counts of pairs and bytes are per iteration.
    """
    iter_ids = {id(r) for r in iterations}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def per_call(name):
        return _median([s.seconds for s in by_name.get(name, [])])

    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"experiment.{stage}_s"] = per_call(f"experiment.{stage}")

    steps = {v: [s for s in by_name.get("hgmae.step", []) if s.attrs.get("variant") == v] for v in VARIANTS}
    for v in VARIANTS:
        vs = steps[v]
        n = len(vs) or 1
        ms = [s.seconds * 1e3 for s in vs]
        out[f"hgmae.{v}.step_ms_p50"] = _median(ms)
        out[f"hgmae.{v}.step_ms_p95"] = _p95(ms)
        out[f"hgmae.{v}.tape_nodes_per_step"] = sum(s.attrs.get("tape_nodes", 0) for s in vs) / n
        for metric, key in (
            (f"gat.{v}.layer_forward_calls_per_step", "gat.layer_forward.calls"),
            (f"gat.{v}.build_message_pairs_calls_per_step", "gat.build_message_pairs.calls"),
            (f"graph.{v}.extract_subgraph_calls_per_step", "graph.extract_subgraph.calls"),
        ):
            out[metric] = sum(s.attrs.get(key, 0) for s in vs) / n

    e1 = steps["eta1"]
    n1 = len(e1) or 1

    def per_step_ms(key):
        return 1e3 * sum(s.attrs.get(key, 0.0) for s in e1) / n1

    out["hgmae.full_term_ms"] = per_step_ms("hgmae.full_term.s")
    out["hgmae.sub_term_ms"] = per_step_ms("hgmae.sub_term.s")
    out["hgmae.infer_embeddings_s"] = per_call("hgmae.infer_embeddings")
    pretrains = [s for s in by_name.get("hgmae.pretrain", []) if id(s.root) in iter_ids]
    first = iterations[0] if iterations else None
    out["hgmae.zero_norm_rows"] = float(
        sum(s.attrs.get("zero_norm_rows", 0) for s in pretrains if s.root is first)
    )
    losses = [s.attrs["final_loss"] for s in pretrains if s.attrs.get("variant") == "eta1" and "final_loss" in s.attrs]
    out["hgmae.final_loss"] = losses[0] if losses else 0.0
    layer_calls = sum(s.attrs.get("gat.layer_forward.calls", 0) for s in e1)
    out["gat.layer_forward_ms"] = (
        1e3 * sum(s.attrs.get("gat.layer_forward.s", 0.0) for s in e1) / layer_calls if layer_calls else 0.0
    )
    out["autodiff.backward_ms"] = per_step_ms("autodiff.backward.s")
    for i, field in ((0, "calls_per_step"), (1, "fwd_ms"), (2, "bwd_ms")):
        scale = 1.0 if i == 0 else 1e3
        for op in OPS:
            total = sum(s.attrs.get("ops", {}).get(op, (0, 0.0, 0.0))[i] for s in e1)
            out[f"autodiff.{op}.{field}"] = scale * total / n1
    out["optim.adam_step_ms"] = per_step_ms("optim.adam_step.s")

    gens = by_name.get("synthetic.generate_graph", [])
    variates = sum(s.attrs.get("variates", 0) for s in gens)
    out["synthetic.generate_graph_s"] = per_call("synthetic.generate_graph")
    out["synthetic.edge_yield"] = sum(s.attrs.get("edges", 0) for s in gens) / variates if variates else 0.0
    out["synthetic.simulate_cascade_s"] = per_call("synthetic.simulate_cascade")
    out["pairs.build_pairs_s"] = per_call("pairs.build_pairs")
    out["pairs.split_pairs_s"] = per_call("pairs.split_pairs")
    cands = [s for s in by_name.get("pairs.enumerate_candidate_pairs", []) if s.root is first]
    kept = [s for s in by_name.get("pairs.build_pairs", []) if s.root is first]
    n_cand = sum(s.attrs.get("count", 0) for s in cands)
    out["pairs.candidates"] = float(n_cand)
    out["pairs.keep_ratio"] = sum(s.attrs.get("count", 0) for s in kept) / n_cand if n_cand else 0.0
    out["classify.train_classifier_s"] = per_call("classify.train_classifier")
    out["classify.evaluate_s"] = per_call("classify.evaluate")
    out["graph.save_graph_s"] = per_call("graph.save_graph")
    out["graph.load_graph_s"] = per_call("graph.load_graph")
    out["checkpoint.save_s"] = per_call("checkpoint.save")
    out["checkpoint.load_s"] = per_call("checkpoint.load")
    return out
