"""Per-layer tracing of interpmac from outside the program.

`Tracer.install()` replaces public functions and methods of the
interpmac modules with timing wrappers; `Tracer.uninstall()` puts every
original object back.  A module-level function is patched in every
interpmac module that holds it (``interpolation.hecke`` as well as
``operators.hecke``, ``cli.run_check`` as well as
``identities.run_check``); a method is patched on its class.

Each wrapper belongs to a group (``scalars.arith``, ``operators``, ...)
and the tracer keeps, per group, the number of calls, the self time
(call time minus the time covered by wrapped calls made inside it) and
the time of the outermost calls of the group.  Coarse groups also keep
spans (name, start, end, parent span, one attribute) in memory; field
operations run millions of times, so the scalar and polynomial groups
are aggregated on the fly by the same self-time rule instead.

Process-pool workers forked while the tracer is installed inherit the
wrappers.  They start with an empty state and write it to
``worker-<pid>.json`` in the trace directory after every pool task,
so their spans are collected even though the pool ends them with
``os._exit``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

MODULES = ("scalars", "polyring", "operators", "interpolation",
           "identities", "cli")

# (module, class or None, attribute, group, spans kept: None, the
# outermost call of the group, or every call)
_SCALAR_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                 "invert", "__pow__")
_POLY_OTHER = ("__add__", "__sub__", "__neg__", "scale", "__pow__", "__eq__",
               "permute_vars", "swap_adjacent", "divided_difference",
               "top_part")
CONSTRUCTORS = ("g_recursive", "g_oracle", "e_top", "gprime", "gplus",
                "r_sym", "rprime", "okounkov")
OPERATORS = ("hecke", "sigma_op", "phi_qt", "phi_r", "xi_qt", "xi_r",
             "symmetrize", "sigma_word")

TARGETS = (
    [("scalars", "Scalar", a, "scalars.arith", None) for a in _SCALAR_ARITH]
    + [("scalars", "Scalar", a, "scalars.eq", None)
       for a in ("__eq__", "is_zero")]
    + [("polyring", "LaurentPoly", "evaluate", "polyring.evaluate", None),
       ("polyring", "LaurentPoly", "affine_substitute",
        "polyring.affine_substitute", None),
       ("polyring", "LaurentPoly", "__mul__", "polyring.mul", None),
       ("polyring", "LaurentPoly", "__rmul__", "polyring.mul", None),
       ("polyring", "LaurentPoly", "to_json", "polyring.json", "outer"),
       ("polyring", "LaurentPoly", "from_json", "polyring.json", "outer")]
    + [("polyring", "LaurentPoly", a, "polyring.other", None)
       for a in _POLY_OTHER]
    + [("polyring", None, a, "polyring.other", None)
       for a in ("exact_div_check", "shift_all", "scale_all",
                 "negate_shift_all")]
    + [("operators", None, a, "operators", "outer") for a in OPERATORS]
    + [("interpolation", None, a, "interpolation.construct", "outer")
       for a in CONSTRUCTORS]
    + [("interpolation", None, "solve_square", "interpolation.solve_square",
        "all"),
       ("interpolation", "FamilyCache", "poly", "interpolation.poly", None)]
    + [("interpolation", None, a, "interpolation.other", None)
       for a in ("invert_matrix", "monomial_matrix", "mono_sym",
                 "okounkov_ratio_parts", "okounkov_value", "closed_d",
                 "closed_e", "closed_phi", "binom", "binom_sym")]
    + [("identities", None, "run_check", "identities.check", "all")]
    + [("cli", None, a, "cli", "all")
       for a in ("main", "cmd_compute", "cmd_check", "cmd_list_checks",
                 "_emit_report")]
    + [("cli", None, "_report_worker", "cli.worker", "all")]
)


class Tracer:
    """Timing wrappers around the interpmac layers; see the module
    docstring.  One tracer may be installed at a time."""

    def __init__(self, trace_dir: str | None = None):
        self.trace_dir = trace_dir
        self.installed = False
        self.stats: dict = {}       # group -> [calls, self_s, outer_s, depth]
        self.spans: list = []       # (id, parent, name, start, end, attr)
        self.stack: list = []       # per active call: [child_s, span id]
        self.counts = {"gens": [0, 0, 0, 0], "poly_builds": 0}
        self._saved: list = []      # (owner, attribute, original object)
        self._forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state ---------------------------------------------------------------

    def _reset(self):
        # In place: the wrappers hold these objects.
        self.stack.clear()
        self.spans.clear()
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        self.counts["gens"][:] = [0, 0, 0, 0]
        self.counts["poly_builds"] = 0

    def _after_fork(self):
        if self.installed:
            self._forked = True
            self._reset()

    def state(self) -> dict:
        """Everything recorded in this process, as plain JSON data."""
        return {"pid": os.getpid(), "worker": self._forked,
                "stats": {g: s[:3] for g, s in self.stats.items()},
                "counts": {"gens": list(self.counts["gens"]),
                           "poly_builds": self.counts["poly_builds"]},
                "spans": [list(s) for s in self.spans]}

    def dump(self, path: str):
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.state(), fh)
        os.replace(tmp, path)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, group: str, keep: str | None):
        stat = self.stats.setdefault(group, [0, 0.0, 0.0, 0])
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        gens = self.counts["gens"]
        tracer = self

        def call(args, kwargs):
            parent = stack[-1][1] if stack else -1
            own = keep == "all" or (keep == "outer" and not stat[3])
            frame = [0.0, len(spans) if own else parent]
            if frame[1] != parent:
                spans.append(None)
            stack.append(frame)
            stat[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[3] -= 1
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                if not stat[3]:
                    stat[2] += dur
                if stack:
                    stack[-1][0] += dur
                if frame[1] != parent:
                    spans[frame[1]] = (frame[1], parent, name, t0, t1,
                                       _attribute(group, args))

        if group.startswith("scalars."):
            def wrapper(self_, *args, **kwargs):
                g = len(self_.gens)
                gens[g if g < 3 else 3] += 1
                return call((self_,) + args, kwargs)
        elif group == "interpolation.poly":
            def wrapper(cache, fk, build):
                def counted():
                    tracer.counts["poly_builds"] += 1
                    return build()
                return call((cache, fk, counted), {})
        elif group == "cli.worker":
            def wrapper(*args, **kwargs):
                try:
                    return call(args, kwargs)
                finally:
                    if tracer._forked and tracer.trace_dir:
                        tracer.dump(os.path.join(
                            tracer.trace_dir, f"worker-{os.getpid()}.json"))
        else:
            def wrapper(*args, **kwargs):
                return call(args, kwargs)
        # Pool tasks pickle functions by module and qualified name, which
        # then resolve to the installed wrapper.
        return functools.update_wrapper(wrapper, fn)

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"interpmac.{m}") for m in MODULES}
        self._reset()
        try:
            for mod, cls, attr, group, keep in TARGETS:
                if cls is not None:
                    owner = getattr(mods[mod], cls)
                    raw = owner.__dict__[attr]
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    wrapped = self._wrap(fn, f"{mod}.{cls}.{attr}", group,
                                         keep)
                    self._set(owner, attr, raw,
                              staticmethod(wrapped) if is_static else wrapped)
                    continue
                fn = getattr(mods[mod], attr)
                wrapped = self._wrap(fn, f"{mod}.{attr}", group, keep)
                for module in mods.values():
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, name, fn, wrapped)
        except BaseException:
            self.uninstall()
            raise
        self.installed = True

    def _set(self, owner, attr, original, replacement):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _attribute(group: str, args: tuple):
    """The one attribute a span keeps: the check id of a check or a
    pool task, the matrix size of a solve."""
    if group in ("identities.check", "cli.worker"):
        return args[0] if args else None
    if group == "interpolation.solve_square":
        return len(args[0])
    return None


def load_states(trace_dir: str) -> list:
    """Every process state written to the trace directory."""
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as fh:
                out.append(json.load(fh))
    return out


def _merge_stats(states: list) -> dict:
    total: dict = {}
    for st in states:
        for group, (calls, self_s, outer_s) in st["stats"].items():
            acc = total.setdefault(group, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += outer_s
    return total


def _check_verify_times(state: dict) -> dict:
    """Check id -> check time minus the outermost constructor spans
    inside the check, for one process."""
    spans = {s[0]: s for s in state["spans"]}
    checks = {s[0]: s for s in spans.values()
              if s[2] == "identities.run_check"}
    inner: dict = {}
    for s in spans.values():
        if s[2].split(".")[-1] not in CONSTRUCTORS or not s[2].startswith(
                "interpolation."):
            continue
        parent = s[1]
        while parent != -1 and parent not in checks:
            parent = spans[parent][1]
        if parent != -1:
            inner[parent] = inner.get(parent, 0.0) + s[4] - s[3]
    out: dict = {}
    for sid, s in checks.items():
        out[s[5]] = out.get(s[5], 0.0) + (s[4] - s[3]) - inner.get(sid, 0.0)
    return out


def layer_metrics(states: list, jobs: int) -> dict:
    """Per-layer metrics from the states of every traced process of one
    workload run; see perfbench/README.md for what each one means."""
    stats = _merge_stats(states)

    def calls(group):
        return stats.get(group, [0, 0.0, 0.0])[0]

    def self_s(*groups):
        return sum(stats.get(g, [0, 0.0, 0.0])[1] for g in groups)

    def outer_s(group):
        return stats.get(group, [0, 0.0, 0.0])[2]

    def layer_self(layer):
        return sum(v[1] for g, v in stats.items()
                   if g == layer or g.startswith(layer + "."))

    gens = [sum(st["counts"]["gens"][k] for st in states) for k in range(4)]
    builds = sum(st["counts"]["poly_builds"] for st in states)
    spans = [s for st in states for s in st["spans"]]
    solve_sizes = [s[5] for s in spans
                   if s[2] == "interpolation.solve_square"]
    disk_hits = sum(1 for s in spans
                    if s[2] == "polyring.LaurentPoly.from_json")
    poly_calls = calls("interpolation.poly")
    verify: dict = {}
    for st in states:
        for check_id, secs in _check_verify_times(st).items():
            verify[check_id] = verify.get(check_id, 0.0) + secs
    tasks = [s[4] - s[3] for st in states if st["worker"]
             for s in st["spans"] if s[2] == "cli._report_worker"]
    pool_wall = sum(s[4] - s[3] for st in states if not st["worker"]
                    for s in st["spans"] if s[2] == "cli.cmd_check")

    def verify_of(prefix):
        return sum(v for k, v in verify.items() if k.startswith(prefix))

    m = {
        "scalars.arith_s": self_s("scalars.arith"),
        "scalars.arith_calls": calls("scalars.arith"),
        "scalars.eq_s": self_s("scalars.eq"),
        "scalars.eq_calls": calls("scalars.eq"),
        "polyring.evaluate_s": outer_s("polyring.evaluate"),
        "polyring.evaluate_calls": calls("polyring.evaluate"),
        "polyring.affine_substitute_s": outer_s("polyring.affine_substitute"),
        "polyring.mul_s": outer_s("polyring.mul"),
        "polyring.json_s": outer_s("polyring.json"),
        "polyring.self_s": layer_self("polyring"),
        "operators.s": outer_s("operators"),
        "operators.calls": calls("operators"),
        "operators.self_s": layer_self("operators"),
        "interpolation.construct_s": outer_s("interpolation.construct"),
        "interpolation.solve_square_s": outer_s("interpolation.solve_square"),
        "interpolation.solve_square_calls": calls(
            "interpolation.solve_square"),
        "interpolation.solve_square_max_m": max(solve_sizes, default=0),
        "interpolation.poly_calls": poly_calls,
        "interpolation.poly_builds": builds,
        "interpolation.disk_hits": disk_hits,
        "interpolation.cache_hit_frac": (
            (poly_calls - builds) / poly_calls if poly_calls else 0.0),
        "interpolation.self_s": layer_self("interpolation"),
        "identities.verify_s": sum(verify.values()),
        "identities.oko_s": verify_of("oko-"),
        "identities.recur_oracle_s": verify_of("recur-oracle-"),
        "identities.binom_s": verify_of("binom"),
        "identities.self_s": layer_self("identities"),
        "cli.pool_critical_path_s": max(tasks, default=0.0),
        "cli.pool_busy_frac": (sum(tasks) / (jobs * pool_wall)
                               if tasks and pool_wall else 0.0),
        "cli.self_s": layer_self("cli"),
    }
    for k in range(4):
        m[f"scalars.calls_gens{k}"] = gens[k]
    return m
