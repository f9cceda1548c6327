"""Wrappers that time calls into restorect's public functions from outside.

The benchmark never edits the package. It replaces module attributes and
class attributes with thin wrappers for the duration of a command and puts
the originals back afterwards. Two levels exist:

- stage wrappers (always installed): the functions whose wall time feeds the
  end-to-end metrics, plus every registered self-check;
- layer wrappers (traced runs only): one span per call into each module's
  public functions, with counts taken at the same boundaries.

Every name in SPEC is looked up before anything is installed. A missing name
raises MissingWrappedName, so a renamed or deleted function aborts the run
instead of silently dropping a metric.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from collections import Counter, defaultdict

perf = time.perf_counter

AUTODIFF_OPS = {  # metric name -> autodiff function
    "matmul": "matmul", "conv2d_3x3": "conv2d_3x3", "add": "add", "sub": "sub",
    "mul": "mul", "div": "div", "exp": "exp", "sqrt": "sqrt", "abs": "abs_",
    "leaky_relu": "leaky_relu", "sum": "sum_", "mean": "mean", "slice": "slice_",
    "reshape": "reshape", "transpose": "transpose", "concat": "concat",
}

# Functions whose wall time the end-to-end metrics use, by stage key.
STAGE_FUNCS = {
    "phase1": ("distill_harness", "train_phase1"),
    "phase2": ("distill_harness", "train_phase2"),
    "ddim_train": ("distill_harness", "train_ddim_baseline"),
    "sampler_table": ("distill_harness", "compare_samplers"),
}

# (module, dotted attribute, span name) for every traced call site. The kind
# of wrapper is chosen in Tracer._layer_wrapper by span name.
SPEC = (
    [("autodiff", fn, f"autodiff.op.{op}") for op, fn in AUTODIFF_OPS.items()]
    + [
        ("autodiff", "softmax", "autodiff.softmax"),
        ("autodiff", "layer_norm", "autodiff.layer_norm"),
        ("autodiff", "l2_normalize", "autodiff.l2_normalize"),
        ("autodiff", "Tensor.__init__", "autodiff.tensor_init"),
        ("autodiff", "Tensor.accum_grad", "autodiff.accum_grad"),
        ("autodiff", "Tensor.backward", "autodiff.backward"),
        ("distill_harness", "distill", "distill_harness.distill"),
        ("distill_harness", "synth_dataset", "distill_harness.synth_dataset"),
        ("distill_harness", "SyntheticTeacher.__init__", "distill_harness.teacher_init"),
        ("distill_harness", "SyntheticTeacher.encode_pair", "distill_harness.teacher_encode"),
        ("distill_harness", "FeatureSet.build", "distill_harness.featureset_build"),
        ("distill_harness", "StudentNet.forward", "distill_harness.student_fwd"),
        ("distill_harness", "Adam.__init__", "distill_harness.adam_init"),
        ("distill_harness", "Adam.step", "distill_harness.adam_step"),
        ("nn_blocks", "scln", "nn_blocks.scln"),
        ("nn_blocks", "qk_normalized_attention", "nn_blocks.attention"),
        ("nn_blocks", "ToyTransformerBlock.forward", "nn_blocks.block"),
        ("nn_blocks", "VelocityPredictor.forward", "nn_blocks.velocity_fwd"),
        ("nn_blocks", "save_checkpoint", "nn_blocks.checkpoint_save"),
        ("nn_blocks", "load_checkpoint", "nn_blocks.checkpoint_load"),
        ("ndtensor", "gaussian_frechet_distance", "ndtensor.frechet"),
        ("ndtensor", "save_tensor", "ndtensor.save_tensor"),
        ("ndtensor", "load_tensor", "ndtensor.load_tensor"),
        ("rectflow", "euler_sample", "rectflow.euler_sample"),
        ("rectflow", "velocity_matching_loss", "rectflow.velocity_loss"),
        ("rectflow", "trajectory_consistency_loss", "rectflow.traj_loss"),
        ("rectflow", "ddim_baseline_sample", "rectflow.ddim_sample"),
        ("flexloss", "flex_loss", "flexloss.flex_loss"),
        ("flexloss", "outlier_mask", "flexloss.outlier_mask"),
        ("hvi_color", "to_polarized_hvi", "hvi_color.to_polarized"),
        ("hvi_color", "polarized_color_loss", "hvi_color.color_loss"),
        ("aniso_diffusion", "anisotropic_operator", "aniso_diffusion.operator"),
        ("aniso_diffusion", "texture_loss", "aniso_diffusion.texture_loss"),
        ("cli", "main", "cli.main"),
    ]
)

# Spans whose duration counts towards a parent block's "self" time only
# after they are subtracted (the block's own work is FFN plus residuals).
BLOCK_CHILDREN = ("nn_blocks.scln", "nn_blocks.attention")


class MissingWrappedName(RuntimeError):
    """A function the benchmark wraps does not exist in the package."""


def _resolve(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or parts[-1] not in getattr(owner, "__dict__", {}):
        raise MissingWrappedName(f"{module.__name__}.{dotted} is missing")
    return owner, parts[-1]


def is_model_check(name: str, autodiff) -> bool:
    """Finite-difference checks of networks and losses, as opposed to the
    single-op gradient checks (fd_<op>, named after an autodiff function) and
    the invariant checks, which build tiny graphs."""
    op = name[3:]
    return name.startswith("fd_") and not (hasattr(autodiff, op) or hasattr(autodiff, op + "_"))


def _batch(x) -> int:
    shape = getattr(getattr(x, "data", x), "shape", ())
    return int(shape[0]) if shape else 1


class Tracer:
    """Spans [name, start, end, parent index] and counts for one command."""

    def __init__(self, package: dict):
        self.pkg = package  # module name -> module object
        self._installed = []  # (owner, attr, original class-dict value)
        self.full = False
        self.stage_time = defaultdict(float)
        self.last_spans = []
        self.reset()

    # -- per-command state ---------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.timers = defaultdict(float)
        self.counts = Counter()
        self.stage_time.clear()
        self.first_stage_at = None
        self.owned = {}  # id -> Param owned by an optimizer of the current stage
        self.euler = []  # [seconds, backwarded]

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf()
        self.stack.pop()

    # -- installation --------------------------------------------------------

    def check_names(self) -> None:
        """Raise MissingWrappedName unless every wrapped name exists."""
        for module, dotted in STAGE_FUNCS.values():
            _resolve(self.pkg[module], dotted)
        for module, dotted, _ in SPEC:
            _resolve(self.pkg[module], dotted)
        if not getattr(self.pkg["checks"], "CHECKS", None):
            raise MissingWrappedName("restorect.checks.CHECKS is missing or empty")

    def install(self, full: bool) -> None:
        self.uninstall()
        self.check_names()
        self.full = full
        for key, (module, dotted) in STAGE_FUNCS.items():
            self._patch(module, dotted, lambda fn, key=key: self._stage_wrapper(key, fn))
        checks = self.pkg["checks"]
        self._checks_original = list(checks.CHECKS)
        autodiff = self.pkg["autodiff"]
        checks.CHECKS[:] = [
            (name, self._stage_wrapper(
                "model_checks" if is_model_check(name, autodiff) else "small_checks", fn))
            for name, fn in self._checks_original]
        if full:
            for module, dotted, span in SPEC:
                self._patch(module, dotted, lambda fn, span=span: self._layer_wrapper(span, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []
        if hasattr(self, "_checks_original"):
            self.pkg["checks"].CHECKS[:] = self._checks_original
            del self._checks_original

    def _patch(self, module, dotted, make):
        owner, attr = _resolve(self.pkg[module], dotted)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, new)

    # -- wrappers ------------------------------------------------------------

    def _span_call(self, name, fn, args, kwargs):
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def _stage_wrapper(self, key, fn):
        tr = self

        @functools.wraps(fn)
        def stage(*args, **kwargs):
            t0 = perf()
            if tr.first_stage_at is None:
                tr.first_stage_at = t0
            tr.owned = {}
            try:
                if tr.full:
                    return tr._span_call(f"stage.{key}", fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tr.stage_time[key] += perf() - t0

        return stage

    def _layer_wrapper(self, span, fn):
        tr = self
        if span.startswith("autodiff.op."):
            return self._op_wrapper(span, fn)
        if span == "autodiff.tensor_init":
            @functools.wraps(fn)
            def tensor_init(*args, **kwargs):
                t0 = perf()
                fn(*args, **kwargs)
                tr.timers["tensor_init"] += perf() - t0

            return tensor_init
        if span == "autodiff.accum_grad":
            param_type = self.pkg["autodiff"].Param

            @functools.wraps(fn)
            def accum_grad(node, g):
                t0 = perf()
                fn(node, g)
                tr.timers["accum_grad"] += perf() - t0
                if isinstance(node, param_type) and id(node) not in tr.owned:
                    tr.counts["frozen_grad_elems"] += int(getattr(g, "size", 1))

            return accum_grad
        if span == "distill_harness.adam_init":
            @functools.wraps(fn)
            def adam_init(opt, params, *args, **kwargs):
                fn(opt, params, *args, **kwargs)
                for p in dict(params).values():
                    tr.owned[id(p)] = p

            return adam_init
        if span == "nn_blocks.velocity_fwd":
            @functools.wraps(fn)
            def velocity_fwd(net, x_t, *args, **kwargs):
                b = _batch(x_t)
                tag = f"b{b}" if b in (8, 512) else "other"
                return tr._span_call(f"{span}.{tag}", fn, (net, x_t) + args, kwargs)

            return velocity_fwd
        if span == "rectflow.euler_sample":
            return self._euler_wrapper(span, fn)

        @functools.wraps(fn)
        def layer(*args, **kwargs):
            out = tr._span_call(span, fn, args, kwargs)
            tr._count(span, args, kwargs)
            return out

        return layer

    def _count(self, span, args, kwargs):
        if span == "distill_harness.adam_step":
            self.counts["adam_elems"] += sum(int(p.data.size) for p in args[0].params.values())
        elif span == "distill_harness.featureset_build":
            self.counts["featureset_builds"] += 1
        elif span == "ndtensor.save_tensor":
            self.counts["bytes_written"] += os.path.getsize(args[0])
        elif span == "ndtensor.load_tensor":
            self.counts["bytes_read"] += os.path.getsize(args[0])

    def _op_wrapper(self, span, fn):
        tr = self
        bwd_name = span + ".bwd"

        @functools.wraps(fn)
        def op(*args, **kwargs):
            out = tr._span_call(span, fn, args, kwargs)
            tr.counts["nodes_built"] += 1
            bw = out._backward
            if bw is not None:
                def timed_backward(bw=bw):
                    idx = tr._enter(bwd_name)
                    try:
                        bw()
                    finally:
                        tr._exit(idx)
                    tr.counts["nodes_backwarded"] += 1

                out._backward = timed_backward
            return out

        return op

    def _euler_wrapper(self, span, fn):
        """A call counts as 'train' when backward later reaches its final
        state, and as 'probe' when the result is only read (logging probes,
        detached conditioning states, the sampler table)."""
        tr = self

        @functools.wraps(fn)
        def euler_sample(*args, **kwargs):
            t0 = perf()
            out = tr._span_call(span, fn, args, kwargs)
            record = [perf() - t0, False]
            tr.euler.append(record)
            x = out[0]
            bw = x._backward
            if bw is not None:
                def marked(bw=bw):
                    record[1] = True
                    bw()

                x._backward = marked
            return out

        return euler_sample

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the command just run (traced mode)."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        block_child = [0.0] * n
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                child[p] += dur[i]
                if s[0] in BLOCK_CHILDREN:
                    block_child[p] += dur[i]
        incl, calls, self_t, block_self = defaultdict(float), Counter(), defaultdict(float), 0.0
        for i, s in enumerate(spans):
            incl[s[0]] += dur[i]
            calls[s[0]] += 1
            self_t[s[0]] += dur[i] - child[i]
            if s[0] == "nn_blocks.block":
                block_self += dur[i] - block_child[i]

        def ms(seconds):
            return seconds * 1000.0

        c = self.counts
        m = {}
        for op in AUTODIFF_OPS:
            m[f"autodiff.op.{op}.fwd_ms"] = ms(incl[f"autodiff.op.{op}"])
            m[f"autodiff.op.{op}.bwd_ms"] = ms(incl[f"autodiff.op.{op}.bwd"])
            m[f"autodiff.op.{op}.calls"] = calls[f"autodiff.op.{op}"]
        for name in ("softmax", "layer_norm", "l2_normalize"):
            m[f"autodiff.{name}_ms"] = ms(incl[f"autodiff.{name}"])
        m["autodiff.tensor_init_ms"] = ms(self.timers["tensor_init"])
        m["autodiff.accum_grad_ms"] = ms(self.timers["accum_grad"])
        m["autodiff.backward_self_ms"] = ms(self_t["autodiff.backward"])
        m["autodiff.nodes_built"] = c["nodes_built"]
        m["autodiff.nodes_backwarded"] = c["nodes_backwarded"]
        m["autodiff.backwarded_node_frac"] = c["nodes_backwarded"] / max(c["nodes_built"], 1)
        m["autodiff.frozen_grad_elems"] = c["frozen_grad_elems"]
        m["distill_harness.adam_step_ms"] = ms(incl["distill_harness.adam_step"])
        m["distill_harness.adam_elems"] = c["adam_elems"]
        m["distill_harness.featureset_builds"] = c["featureset_builds"]
        for name in ("teacher_encode", "student_fwd", "synth_dataset", "teacher_init"):
            m[f"distill_harness.{name}_ms"] = ms(incl[f"distill_harness.{name}"])
        m["nn_blocks.scln_ms"] = ms(incl["nn_blocks.scln"])
        m["nn_blocks.attention_ms"] = ms(incl["nn_blocks.attention"])
        m["nn_blocks.block_self_ms"] = ms(block_self)
        for tag in ("b8", "b512"):
            m[f"nn_blocks.velocity_fwd_ms.{tag}"] = ms(incl[f"nn_blocks.velocity_fwd.{tag}"])
            m[f"nn_blocks.velocity_fwd_calls.{tag}"] = calls[f"nn_blocks.velocity_fwd.{tag}"]
        m["nn_blocks.checkpoint_save_ms"] = ms(incl["nn_blocks.checkpoint_save"])
        m["nn_blocks.checkpoint_load_ms"] = ms(incl["nn_blocks.checkpoint_load"])
        m["ndtensor.bytes_written"] = c["bytes_written"]
        m["ndtensor.bytes_read"] = c["bytes_read"]
        m["ndtensor.frechet_ms"] = ms(incl["ndtensor.frechet"])
        m["ndtensor.frechet_calls"] = calls["ndtensor.frechet"]
        for tag, flag in (("train", True), ("probe", False)):
            recs = [r[0] for r in self.euler if r[1] is flag]
            m[f"rectflow.euler_sample_ms.{tag}"] = ms(sum(recs))
            m[f"rectflow.euler_sample_calls.{tag}"] = len(recs)
        for name in ("velocity_loss", "traj_loss", "ddim_sample"):
            m[f"rectflow.{name}_ms"] = ms(incl[f"rectflow.{name}"])
        m["flexloss.flex_loss_ms"] = ms(incl["flexloss.flex_loss"])
        m["flexloss.outlier_mask_ms"] = ms(incl["flexloss.outlier_mask"])
        m["hvi_color.to_polarized_ms"] = ms(incl["hvi_color.to_polarized"])
        m["hvi_color.color_loss_ms"] = ms(incl["hvi_color.color_loss"])
        m["aniso_diffusion.operator_ms"] = ms(incl["aniso_diffusion.operator"])
        m["aniso_diffusion.texture_loss_ms"] = ms(incl["aniso_diffusion.texture_loss"])
        m["cli.main_ms"] = ms(incl["cli.main"])
        m["cli.self_ms"] = ms(self_t["cli.main"])
        self._coverage = {}
        for i, s in enumerate(spans):
            if s[0].startswith("stage."):
                cov = self._coverage.setdefault(s[0][6:], [0.0, 0.0])
                cov[0] += child[i]
                cov[1] += dur[i]
        return m

    def coverage(self, stage_key: str) -> float:
        """Share of a stage's wall time covered by its direct child spans."""
        covered, total = self._coverage.get(stage_key, (0.0, 0.0))
        return covered / total if total > 0 else 0.0

    def keep_spans(self) -> None:
        self.last_spans = self.spans

    def write_spans(self, path) -> None:
        """One line per span of the last traced command:
        index,parent,name,start_ns,end_ns (times from the command's first span)."""
        spans = self.last_spans
        t0 = spans[0][1] if spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{i},{parent},{name},{int((start - t0) * 1e9)},"
                         f"{int((end - t0) * 1e9)}\n")


def layer_metric_names() -> list:
    """Names of every per-layer metric, in report order."""
    return list(Tracer({}).layer_metrics()) + [
        "flexloss.gate_open_calls", "checks.fd_ms", "checks.inv_ms", "checks.count",
        "trace.coverage.stage1", "trace.coverage.stage2",
        "trace.overhead_frac.stage1", "trace.overhead_frac.stage2",
    ]
