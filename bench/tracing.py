"""Per-layer tracing, installed from the benchmark around the library.

Tracer.install wraps the public functions of each module: the attribute
on the class or module that defines it, and every other module attribute
bound to the same object, since modules import each other's functions
by name (cli.is_inner, structure.derivation_space, ...). Coarse calls
become spans; the hottest tiny calls (Group.multiply, Endomorphism
__call__, GaussianRational.__init__ and the algebra-element operations)
are only counted, so that their cost lands in the span that made them.

A span's self time is its duration minus the time its child spans
cover. Spans of the coarse kind are kept in memory and written out by
the caller at the end; the per-row solver calls are aggregated instead
of recorded, since an order-64 solve makes a quarter of a million.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# the package's modules, which are also the layers the figures are named by
LAYERS = ("groups", "algebra", "linalg", "groupoid", "derivations",
          "structure", "cli")

# (module, attribute path, span name, recorded individually)
SPANS = [
    ("cli", "build_parser", "cli.parse", True),
    ("cli", "_Parser.parse_args", "cli.parse", True),
    ("cli", "parse_group_spec", "cli.spec", True),
    ("cli", "parse_endo_spec", "cli.spec", True),
    ("cli", "_render", "cli.render", True),
    ("cli", "_emit", "cli.render", True),
    ("groups", "make_finite_group", "groups.build", True),
    ("groups", "builtin_group", "groups.build", True),
    ("groups", "make_endomorphism", "groups.endo_build", True),
    ("groups", "inner_endomorphism", "groups.endo_build", True),
    ("groups", "identity_endomorphism", "groups.endo_build", True),
    ("groups", "Group.ball", "groups.ball", True),
    ("linalg", "IntegerRowReducer.add_row", "linalg.int_reduce", False),
    ("linalg", "IntegerRowReducer.nullspace_basis", "linalg.int_reduce", True),
    ("linalg", "FieldEliminator.add_equation", "linalg.field", False),
    ("linalg", "FieldEliminator.solve", "linalg.field", True),
    ("derivations", "derivation_space", "derivations.solve", True),
    ("derivations", "inner_space", "derivations.inner_space", True),
    ("derivations", "is_inner", "derivations.is_inner", True),
    ("derivations", "inner_derivation", "derivations.inner_derivation", True),
    ("derivations", "check_leibniz", "derivations.leibniz", True),
    ("derivations", "is_quasi_inner", "derivations.quasi_inner", True),
    ("derivations", "quasi_inner_from_potential", "derivations.potential", True),
    ("groupoid", "GroupoidView.components", "groupoid.components", True),
    ("groupoid", "GroupoidView.conjugacy_class", "groupoid.class", True),
    ("groupoid", "GroupoidView.centralizer", "groupoid.centralizer", True),
    ("groupoid", "GroupoidView.center", "groupoid.center", True),
    ("groupoid", "to_dot", "groupoid.to_dot", True),
    ("structure", "verify_decomposition", "structure.verify", True),
    ("structure", "structure_report", "structure.report", True),
    ("structure", "is_rank2_nilpotent", "structure.rank2", True),
    ("structure", "is_fc", "structure.fc", True),
    ("structure", "heisenberg_central_family", "structure.central", True),
]

# (module, attribute path, counter name)
COUNTS = [
    ("groups", "Group.multiply", "groups.multiply_calls"),
    ("groups", "Endomorphism.__call__", "groups.endo_calls"),
    ("algebra", "GaussianRational.__init__", "algebra.scalar_new"),
    ("derivations", "DerivationTable.value", "derivations.value_calls"),
] + [("algebra", f"AlgebraElement.{op}", "algebra.element_ops")
     for op in ("__add__", "__sub__", "__neg__", "__mul__", "scale",
                "right_mul", "left_mul", "apply")]


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.total = defaultdict(float)   # outermost duration per span name
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.spans = []                   # (job, name, start, end, depth)
        self.job = None
        self._covered = []                # child time covered, per open span
        self._open = Counter()
        self._patches = []
        self._reducers = {}

    # -- spans and counters --------------------------------------------------

    def _span(self, name, fn, record, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered = tracer._covered
            covered.append(0.0)
            tracer._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                child = covered.pop()
                if covered:
                    covered[-1] += duration
                tracer._open[name] -= 1
                if not tracer._open[name]:
                    tracer.total[name] += duration
                tracer.self_time[name] += duration - child
                tracer.calls[name] += 1
                if record:
                    tracer.spans.append((tracer.job, name, start, end, len(covered)))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_job(self, index, call):
        """Run call() as the root span of job index; returns its duration."""
        self.job = index
        self._reducers.clear()
        wrapped = self._span("job", call, True)
        start = perf_counter()
        try:
            wrapped()
        finally:
            duration = perf_counter() - start
            self.counts["linalg.int_rank_total"] += sum(
                r.rank for r in self._reducers.values())
        return duration

    # -- hooks that read arguments or results --------------------------------

    def _after(self, name):
        counts = self.counts
        if name == "groups.ball":
            def after(_args, _kwargs, result):
                counts["groups.ball_size"] += len(result)
        elif name == "groupoid.components":
            def after(_args, _kwargs, result):
                counts["groupoid.components_count"] += len(result)
        elif name == "derivations.leibniz":
            def after(args, kwargs, _result):
                pairs = kwargs.get("pairs", args[1] if len(args) > 1 else None)
                counts["derivations.leibniz_pairs"] += (
                    args[0].group.order ** 2 if pairs is None else len(pairs))
        elif name == "linalg.int_reduce":
            reducers = self._reducers

            def after(args, _kwargs, result):
                if result is True:
                    counts["linalg.int_rows_useful"] += 1
                if result is True or result is False:
                    counts["linalg.int_rows_fed"] += 1
                    reducers[id(args[0])] = args[0]
        elif name == "linalg.field":
            def after(_args, _kwargs, result):
                if isinstance(result, bool):
                    counts["linalg.field_eqs_fed"] += 1
        elif name == "cli.render":
            def after(args, _kwargs, _result):
                if len(args) == 2 and isinstance(args[1], str) \
                        and not getattr(args[0], "output", None):
                    counts["cli.stdout_bytes"] += len(args[1].encode())
        else:
            after = None
        return after

    # -- installation ---------------------------------------------------------

    def install(self, package):
        mods = {name: getattr(package, name) for name in LAYERS}
        everywhere = [package, *mods.values()]
        for mod, path, name, record in SPANS:
            self._patch(mods[mod], path, everywhere,
                        lambda fn, name=name, record=record:
                        self._span(name, fn, record, self._after(name)))
        for mod, path, name in COUNTS:
            self._patch(mods[mod], path, everywhere,
                        lambda fn, name=name: self._counter(name, fn))
        cli = mods["cli"]
        for command, handler in list(cli._HANDLERS.items()):
            self._set(cli._HANDLERS, command,
                      self._span("cli.handler", handler, True), item=True)

    def _patch(self, module, path, everywhere, make):
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make(original)
        self._set(owner, attr, wrapper)
        if not parents:
            # the same function imported by name into other modules
            for other in everywhere:
                if other is not owner and vars(other).get(attr) is original:
                    self._set(other, attr, wrapper)

    def _set(self, owner, key, value, item=False):
        if item:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            # an inherited method is shadowed, then un-shadowed on uninstall
            self._patches.append((owner, key, vars(owner).get(key), False))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original, item in reversed(self._patches):
            if item:
                owner[key] = original
            elif original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self):
        """Every per-layer figure, by name; seconds, counts and ratios."""
        out = {
            "linalg.int_reduce_s": self.total["linalg.int_reduce"],
            "linalg.field_s": self.total["linalg.field"],
            "derivations.solve_s": self.self_time["derivations.solve"],
            "derivations.inner_space_s": self.total["derivations.inner_space"],
            "derivations.is_inner_s": self.total["derivations.is_inner"],
            "derivations.leibniz_s": self.total["derivations.leibniz"],
            "groups.build_s": self.total["groups.build"],
            "groups.endo_build_s": self.total["groups.endo_build"],
            "groups.ball_s": self.total["groups.ball"],
            "groupoid.components_s": self.total["groupoid.components"],
            "groupoid.to_dot_s": self.total["groupoid.to_dot"],
            "groupoid.centralizer_s": self.total["groupoid.centralizer"],
            "groupoid.center_s": self.total["groupoid.center"],
            "groupoid.class_s": self.total["groupoid.class"],
            "structure.verify_s": self.total["structure.verify"],
            "structure.rank2_s": self.total["structure.rank2"],
            "structure.fc_s": self.total["structure.fc"],
            "structure.report_s": self.total["structure.report"],
            "cli.parse_s": self.total["cli.parse"],
            "cli.render_s": self.total["cli.render"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items()
                if name.split(".")[0] == layer)
        out["trace.unspanned_s"] = self.self_time["job"]
        out["trace.traced_s"] = self.total["job"]
        for name in ("linalg.int_rows_fed", "linalg.int_rows_useful",
                     "linalg.int_rank_total", "linalg.field_eqs_fed",
                     "derivations.leibniz_pairs", "derivations.value_calls",
                     "algebra.scalar_new", "algebra.element_ops",
                     "groups.multiply_calls", "groups.endo_calls",
                     "groups.ball_size", "groupoid.components_count",
                     "cli.stdout_bytes"):
            out[name] = self.counts[name]
        out["derivations.is_inner_calls"] = self.calls["derivations.is_inner"]
        fed = self.counts["linalg.int_rows_fed"]
        out["linalg.int_useful_ratio"] = (
            self.counts["linalg.int_rows_useful"] / fed if fed else 0.0)
        return out
