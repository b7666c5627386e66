"""Span tracer that wraps hwkit's layer functions from outside the package.

``Tracer.install`` replaces every binding of each traced function: the
defining module's attribute, every ``from ... import`` copy held by another
hwkit module (for example ``ppd.weyl_mul`` or ``cli.verify_bfunction``), and
methods on their class (``Echelon.insert``).  ``uninstall`` puts the
originals back, so untraced and traced passes can share one process.

Each span knows its parent span and the job it ran in.  Spans are folded in
memory into one record per (job, parent, name) holding calls, total time and
self time (the span's duration minus the time its child spans cover); a
per-call span list would not fit in memory, since ``Polynomial.__mul__``
runs hundreds of thousands of times per pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# (module, attribute) of each traced function or method.
TRACED = [
    ("cli", "main"),
    ("vforacle", "verify_bfunction"),
    ("vforacle", "certify_bfunction"),
    ("vforacle", "crosscheck_hodge_weight"),
    ("vforacle", "presentation_span"),
    ("vforacle", "reduce_presentation"),
    ("vforacle", "pole_apply"),
    ("ppd", "weight_module_generators"),
    ("ppd", "weight_step_presentation"),
    ("ppd", "hodge_on_weight"),
    ("ppd", "hodge_weight_interval21"),
    ("weyl", "weyl_mul"),
    ("weyl", "apply_to_twisted"),
    ("weyl", "bounded_operator_basis"),
    ("weyl", "syzygy_kernel"),
    ("linalg", "Echelon.insert"),
    ("linalg", "Echelon.reduce"),
    ("linalg", "nullspace"),
    ("exactalg", "Polynomial.__mul__"),
]
# Closed-form modules: every public module-level function is traced and
# their self times are reported per module.
CLOSED_FORMS = ("bsdata", "snc", "whom")

# Verify or cross-check attempts; more than one in a job is an escalation.
ATTEMPTS = ("vforacle.verify_bfunction", "vforacle.crosscheck_hodge_weight")

# Counts taken at the span boundary: span name -> f(args, result) yielding
# (count name, increment).
_COUNTERS = {
    "linalg.Echelon.insert": lambda a, r: [("rank_gains", int(r is None))],
    "linalg.nullspace": lambda a, r: [("columns", len(a[0])),
                                      ("deps", len(r))],
    "weyl.bounded_operator_basis": lambda a, r: [("operators", len(r))],
    "weyl.syzygy_kernel": lambda a, r: [("tuples", len(r))],
}


def _hwkit_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hwkit" or n.startswith("hwkit."))]


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.job = None
        self.stack = []        # [name, child time] of each open span
        self.spans = {}        # (job, parent, name) -> [calls, total, self]
        self.counts = {}       # "<span>.<count>" -> int
        self.attempts = {}     # job -> verify/cross-check attempts
        self._patched = []     # (owner, attribute, original)

    # -- installing -------------------------------------------------------

    def _targets(self):
        out = []
        for mod_name, attr in TRACED:
            mod = sys.modules["hwkit." + mod_name]
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                out.append((f"{mod_name}.{attr}", owner, meth))
            else:
                out.append((f"{mod_name}.{attr}", mod, attr))
        for mod_name in CLOSED_FORMS:
            mod = sys.modules["hwkit." + mod_name]
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out.append((f"{mod_name}.{attr}", mod, attr))
        return out

    def install(self):
        modules = _hwkit_modules()
        for name, owner, attr in self._targets():
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for binding, obj in list(vars(mod).items()):
                    if obj is orig:
                        self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        count = _COUNTERS.get(name)
        is_attempt = name in ATTEMPTS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (tracer.job, parent, name)
                rec = tracer.spans.get(key)
                if rec is None:
                    rec = tracer.spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if count is not None:
                for metric, n in count(args, result):
                    key = f"{name}.{metric}"
                    tracer.counts[key] = tracer.counts.get(key, 0) + n
            if is_attempt:
                tracer.attempts[tracer.job] = \
                    tracer.attempts.get(tracer.job, 0) + 1
            return result

        return span

    # -- reading ----------------------------------------------------------

    def totals(self):
        """name -> [calls, total time, self time] summed over jobs."""
        out = {}
        for (_, _, name), (calls, total, self_s) in self.spans.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def escalation_retries(self) -> int:
        return sum(max(0, n - 1) for n in self.attempts.values())

    def span_table(self):
        return [{"job": job, "parent": parent, "name": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (job, parent, name), (calls, total, self_s)
                in sorted(self.spans.items(), key=lambda kv: (
                    str(kv[0][0]), str(kv[0][1]), kv[0][2]))]

