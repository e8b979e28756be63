"""In-memory span tracer wired around rudlab's public functions from outside.

Nothing under ``src/`` is edited: :func:`install` replaces each traced
function or method with a timing wrapper, in every ``rudlab`` module that
binds it (``experiments``, ``witness`` and ``dual`` import ``sign_stats`` by
name, ``rademacher`` imports the pattern-matrix builders by name, and so on),
then checks that no module still holds an unwrapped original.

Spans nest on one stack.  When a span closes, its duration is charged to its
parent's child time, so a span's self time is its duration minus the time
its child spans cover; ``RenormSpace``'s engine span therefore nests around
its base engine's span.  Spans are aggregated in memory by name and read
once, when the traced process ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [name, child_seconds]
        self.spans: dict[str, list] = {}  # name -> [calls, total, self]
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, fn, name, on_exit=None):
        """A wrapper timing ``fn`` as a span.  ``name`` is a string or a
        function of the call's positional arguments; ``on_exit(name, args,
        result)`` records counts after the span closes.  ``total`` counts a
        span nested in a span of the same name twice; ``self`` never double
        counts."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get(span)
                if rec is None:
                    rec = spans[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if on_exit is not None:
                on_exit(span, args, out)
            return out

        return wrapper


def metric_name(spec: str) -> str:
    """Engine spec as a metric-name component (``lp:2`` -> ``lp_2``)."""
    return spec.replace(":", "_")


def _rudlab_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "rudlab" or k.startswith("rudlab."))]


def install(tracer: Tracer, engine_specs: dict[int, str]) -> None:
    """Wrap every traced entry point in every module that binds it.

    ``engine_specs`` maps ``id(engine)`` to the spec the engine was built
    from; engines built elsewhere (``bd_rud_report`` makes its own
    ``BdBasisSpace``) are named by their ``name`` attribute.
    """
    # dual, dyadic and witness are imported so that their bindings and
    # engine classes exist before the scan below
    from rudlab import (batches, bd, coeffs, config, dual, dyadic,  # noqa: F401
                        exactnum, experiments, mr, rademacher, rng, spaces,
                        witness)

    def engine(method):
        def name(args):
            sp = args[0]
            spec = engine_specs.get(id(sp)) or getattr(sp, "name", type(sp).__name__)
            return f"engine.{metric_name(spec)}.{method}"
        return name

    def count_cols(span, args, out):
        tracer.count(span + ".cols", int(args[2].shape[1]))

    def count_bytes(span, args, out):
        if tracer.parent() != span:  # *_full builders call the *_range ones
            tracer.count(span + ".bytes", int(out.nbytes))

    def count_scalar_path(span, args, out):
        tracer.count("batches.returned")
        if out.scalars is not None:
            tracer.count("batches.returned_scalars")

    # module-level functions: (module, attribute, span name, on_exit)
    functions = [
        (bd, "build_gamma", "bd.build_gamma", None),
        (bd, "bd_rud_report", "bd.bd_rud_report", None),
        (bd, "chain_witness", "bd.chain_witness", None),
        (mr, "zmr_functionals", "mr.zmr_functionals", None),
        (mr, "zrud_functionals", "mr.zrud_functionals", None),
        (mr, "mr_witness", "mr.mr_witness", None),
        (spaces, "functional_class_matrices", "spaces.functional_class_matrices", None),
        (coeffs, "sign_matrix_full", "coeffs.pattern_matrix", count_bytes),
        (coeffs, "mask_matrix_full", "coeffs.pattern_matrix", count_bytes),
        (coeffs, "sign_matrix_range", "coeffs.pattern_matrix", count_bytes),
        (coeffs, "mask_matrix_range", "coeffs.pattern_matrix", count_bytes),
        (rademacher, "sign_stats", "rademacher.sign_stats", count_scalar_path),
        (rademacher, "subset_stats", "rademacher.subset_stats", count_scalar_path),
        (rademacher, "expect_exact", "rademacher.expect_exact", None),
        (rademacher, "expect_subsets", "rademacher.expect_subsets", None),
        (rademacher, "expect_mc", "rademacher.expect_mc", None),
        (rng, "sign_matrix", "rng.sign_matrix", None),
        (experiments, "run_experiment", lambda args: f"experiments.{args[0]}", None),
    ]
    # methods: (class, attribute, span name, on_exit)
    methods = [
        (config.SpaceFactory, "space", "config.space", None),
        (mr.MrContext, "__init__", "mr.MrContext", None),
        (spaces.NormingSetSpace, "class_mats", "spaces.class_mats", None),
        (batches.ExactBatch, "mean", "batches.mean", None),
        (batches.ExactBatch, "mean_sq", "batches.mean_sq", None),
        (batches.ExactBatch, "max", "batches.extreme", None),
        (batches.ExactBatch, "min", "batches.extreme", None),
        (batches.ExactBatch, "argmax", "batches.extreme", None),
        (exactnum.QSum, "sign", "exactnum.QSum.sign", None),
    ]
    # every engine class that defines its own batch methods
    todo = [spaces.Space]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is spaces.Space:
            continue
        if "mult_batch" in vars(cls):
            methods.append((cls, "mult_batch", engine("mult_batch"), count_cols))
        if "mult_batch_float" in vars(cls):
            methods.append((cls, "mult_batch_float", engine("mult_batch_float"), None))

    modules = _rudlab_modules()
    originals = []
    for mod, attr, span, on_exit in functions:
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(orig, span, on_exit)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)
        originals.append(orig)
    for cls, attr, span, on_exit in methods:
        orig = vars(cls)[attr]
        if not inspect.isfunction(orig):
            raise RuntimeError(f"{cls.__name__}.{attr} is not a plain method")
        setattr(cls, attr, tracer.wrap(orig, span, on_exit))
        originals.append(orig)
    # no module may keep a binding that bypasses its wrapper
    for m in modules:
        for k, v in vars(m).items():
            if any(v is o for o in originals):
                raise RuntimeError(f"{m.__name__}.{k} still binds an untraced function")
