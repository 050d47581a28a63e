"""Spans around the layer functions that the solver modules import.

Tracing replaces the module attributes through which ``solver_reg4``,
``solver_gen5`` and ``robust`` call their layers, so it needs no change to
the package, and it is removed again after every traced operation: an
untraced operation runs the original functions.  Spans are kept in memory;
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute, layer).  A layer's self time is reported as
# ``<layer>_ms`` per operation.
LAYERS = (
    ("solver_reg4", "build_f_polynomials", "poly.generators"),
    ("solver_gen5", "build_g_polynomials", "poly.generators"),
    *(
        (module, attr, layer)
        for module in ("solver_reg4", "solver_gen5")
        for attr, layer in (
            ("assemble_reduced_template", "gbsolver.assemble"),
            ("rref_conditioned", "gbsolver.rref"),
            ("quotient_basis_from_pivots", "gbsolver.action"),
            ("build_action_matrix", "gbsolver.action"),
            ("eigensolve_real", "gbsolver.eig"),
            ("extract_roots", "gbsolver.extract"),
        )
    ),
    ("robust", "solve_4pt_angle", "solver"),
    ("robust", "solve_gen5pt_angle", "solver"),
    ("robust", "sampson_errors", "robust.score"),
    ("robust", "ray_point_errors", "robust.score"),
)

# Self-time metric of each span name.  A minimal-solve span's own time is
# pose recovery (rectification, translation, cheirality or depths); the
# RANSAC root span's own time is sampling and bookkeeping.
SELF_METRIC = {
    "poly.generators": "poly.generators_ms",
    "gbsolver.assemble": "gbsolver.assemble_ms",
    "gbsolver.rref": "gbsolver.rref_ms",
    "gbsolver.action": "gbsolver.action_ms",
    "gbsolver.eig": "gbsolver.eig_ms",
    "gbsolver.extract": "gbsolver.extract_ms",
    "solver": "solver.pose_ms",
    "robust.score": "robust.score_ms",
    "robust": "robust.self_ms",
}


def _count(counts: Counter, layer: str, args, out) -> None:
    if layer == "gbsolver.eig":
        counts["gbsolver.complex_eigs"] += len(args[0]) - len(out)
    elif layer == "gbsolver.extract":
        counts["gbsolver.dropped_infinity"] += out.n_dropped_at_infinity
        counts["gbsolver.dropped_inconsistent"] += out.n_dropped_inconsistent
        counts["gbsolver.roots"] += len(out.roots)
    elif layer == "solver":
        counts["solver.poses"] += len(out)


class Tracer:
    """Records spans ``[op, id, parent, name, start, end]`` and counts."""

    def __init__(self, relpose_package):
        self._modules = {
            name: getattr(relpose_package, name) for name in ("solver_reg4", "solver_gen5", "robust")
        }
        self._error = relpose_package.RelposeError
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            sid = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            except self._error:
                if layer == "solver":
                    self.counts["solver.raised"] += 1
                raise
            finally:
                self._close(sid)
            _count(self.counts, layer, args, out)
            return out

        return traced

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def run(self, root: str, fn, *args):
        """Call ``fn(*args)`` as one traced operation under a root span.

        Returns ``(result, exception, elapsed_s, layers)`` where ``layers``
        maps each self-time metric and count to its value for this
        operation.
        """
        self._op += 1
        self.counts = Counter()
        root_sid = len(self.spans)
        originals = []
        for module, attr, layer in LAYERS:
            mod = self._modules[module]
            fn_orig = getattr(mod, attr)
            originals.append((mod, attr, fn_orig))
            setattr(mod, attr, self._wrap(fn_orig, layer))
        result = exc = None
        try:
            result = self._wrap(fn, root)(*args)
        except Exception as e:  # recorded by the caller as the failure reason
            exc = e
        finally:
            for mod, attr, fn_orig in originals:
                setattr(mod, attr, fn_orig)
        elapsed = self.spans[root_sid][5] - self.spans[root_sid][4]
        return result, exc, elapsed, self._layers(root_sid)

    def _layers(self, root: int) -> dict[str, float]:
        ops = self.spans[root:]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in ops:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float, self.counts)
        total_self = 0.0
        for _, sid, parent, name, start, end in ops:
            self_s = (end - start) - child_time[sid]
            total_self += self_s
            out[SELF_METRIC[name]] += 1e3 * self_s
            if name == "solver" and parent == root and sid != root:
                out["robust.solve_ms"] += 1e3 * (end - start)
        root_s = self.spans[root][5] - self.spans[root][4]
        # Self times partition the root span; a mismatch means spans overlap.
        if abs(total_self - root_s) > 1e-9 * max(1.0, root_s):
            raise RuntimeError(f"layer self times sum to {total_self!r} s, op took {root_s!r} s")
        return out
