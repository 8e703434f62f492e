"""In-memory span tracing of the ia_rtdd layers, installed from outside the package.

`Tracer.install` replaces each traced function *where it is looked up*
(``evaluate.sample_channels``, ``beamform._kernels.alignment_loop``, ...)
with a wrapper that records a span ``[name, start, end, parent, op, extra]``
while an operation is active, then calls the original unchanged.  `restore`
puts every original back and reports any name it could not restore.

Spans are only recorded while ``tracer.op`` is set, so the benchmark's own
output checks, which run between operations, leave no spans.
"""

import time

_MARK = "__perfbench_wrapper__"
MARGIN_MIN = 1e-6            # rank margin counted as healthy, as in criterion 8


def _iterate_counts(args, kwargs, out):
    trace = out[2]
    return {"iterations": trace.iterations, "converged": bool(trace.converged)}


def _eigh_flops(n):
    # Complex Hermitian eigendecomposition with vectors: ~9n^3 real flops for
    # the real symmetric QR algorithm, times 4 for complex arithmetic.
    return 36 * n ** 3


def _alignment_flops(args, kwargs, out):
    """Floating-point operations of one `_kernels.alignment_loop` call, computed
    from the shapes: the two covariance builds and two eigh sweeps per iteration."""
    n_a, n_b, d_a, d_b = (list(map(int, a)) for a in args[1:5])
    per_iter = 0
    for nb, db in zip(n_b, d_b):
        if db:
            per_iter += _eigh_flops(nb)
            per_iter += sum(8 * nb * na * da + 8 * nb * da * nb
                            for na, da in zip(n_a, d_a) if da)
    for na, da in zip(n_a, d_a):
        if da:
            per_iter += _eigh_flops(na)
            per_iter += sum(8 * na * nb * db + 8 * na * db * na
                            for nb, db in zip(n_b, d_b) if db)
    return {"flop": per_iter * int(out[4])}


def _scan_pairs(args, kwargs, out):
    return {"pairs": (1 << len(args[0])) * (1 << len(args[2]))}


def _examined(args, kwargs, out):
    return {"examined": out.examined}


def _structural(args, kwargs, out):
    # Decided without a channel draw: a budget failed, or the rank test was
    # vacuous or structurally impossible.
    ids = [c.condition_id for c in out.conditions]
    drawn = "rank" in ids and out.condition("rank").witness["trials"] > 0
    return {"structural": not drawn}


def _margin(args, kwargs, out):
    return {"margin_ok": out.min_margin >= MARGIN_MIN}


def targets(ia):
    """(owner, attribute, span name, counter) for every traced lookup site."""
    bf, ev, fe, kn = ia.beamform, ia.evaluate, ia.feasibility, ia._kernels
    return [
        (ia, "monte_carlo_sweep", "evaluate.monte_carlo_sweep", None),
        (ia, "sample_channels", "model.sample_channels", None),
        (ia, "construct_beamformers", "beamform.construct_beamformers", None),
        (ia, "residual_report", "beamform.residual_report", _margin),
        (ia, "sum_rate", "evaluate.sum_rate", None),
        (ia, "search_optimal", "feasibility.search_optimal", None),
        (ia, "check_necessary", "feasibility.check_necessary", None),
        (ev, "sample_channels", "model.sample_channels", None),
        (ev, "construct_beamformers", "beamform.construct_beamformers", None),
        (ev, "sum_rate", "evaluate.sum_rate", None),
        (ev, "baseline_single_cell", "evaluate.baseline_single_cell", None),
        (bf, "iterate_alignment", "beamform.iterate_alignment", _iterate_counts),
        (bf, "zero_force_step2", "beamform.zero_force_step2", None),
        (bf, "normalize", "beamform.normalize", None),
        (kn, "alignment_loop", "kernels.alignment_loop", _alignment_flops),
        (kn, "subset_scan", "kernels.subset_scan", _scan_pairs),
        (fe, "search_max_sum_dof", "feasibility.search_max_sum_dof", _examined),
        (fe, "check_necessary", "feasibility.check_necessary", None),
        (fe, "check_sufficient", "feasibility.check_sufficient", _structural),
        (fe, "sample_channels", "model.sample_channels", None),
        (fe, "build_alignment_matrix", "feasibility.build_alignment_matrix", None),
        (fe, "numeric_rank", "feasibility.numeric_rank", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, orig, name, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.op is None:
                return orig(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, out)
            return out

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = orig
        return wrapper

    def install(self, ia):
        for owner, attr, name, counter in targets(ia):
            orig = getattr(owner, attr)
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, counter))

    def restore(self, ia):
        """Put every original back; return the names still wrapped afterwards."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        left = [f"{owner.__name__}.{attr}" for owner, attr, orig in self._patched
                if getattr(owner, attr) is not orig]
        for module in (ia, ia.model, ia.beamform, ia.evaluate, ia.feasibility,
                       ia._kernels):
            left += [f"{module.__name__}.{attr}" for attr, value in vars(module).items()
                     if getattr(value, _MARK, False)]
        self._patched = []
        return sorted(set(left))


def layer_totals(spans):
    """Per span name: calls, busy seconds, self seconds and summed counters."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op, extra in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent, op, extra) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        row["calls"] += 1
        row["busy"] += t1 - t0
        row["self"] += t1 - t0 - child[i]
        for key, value in (extra or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def child_count(spans, parent_name, child_name):
    """Number of ``child_name`` spans opened directly under ``parent_name``."""
    return sum(1 for name, _, _, parent, _, _ in spans
               if name == child_name and parent >= 0
               and spans[parent][0] == parent_name)


def outermost_busy(spans, names):
    """Summed duration of spans named in ``names`` that have no ancestor also
    named there, i.e. the time the listed blocking steps cover."""
    names = set(names)
    total = 0.0
    for name, t0, t1, parent, _, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += t1 - t0
    return total
