"""Per-layer spans for the mzpovm benchmark, recorded from outside the package.

Every public function listed in LAYERS is replaced, for the length of a
traced pass, by a wrapper that opens a span on entry and closes it on exit.
Modules reach each other through module attributes and their own functions
through module globals, so rebinding the module attribute catches both
kinds of call and nothing under ``src/`` is edited. ``DiscretePovm.from_pairs``
is a staticmethod and is rebound on the class; the ``ProbeTriple`` and
``MeasurementScheme`` constructors are wrapped through ``__post_init__``;
``cli.sweep_rows`` is a generator, so its span covers each ``next()``.

Spans nest on a stack. A span's self time is its duration minus the time
covered by its child spans. Spans are aggregated per name as they close
(count, self time, inclusive time), so memory stays flat however many
calls a pass makes.

``Ticker`` uses the same rebinding for the untraced ``verify`` estimator:
it only notes which function was entered and when.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

VERIFY_FUNCTIONS = (
    "check_pauli_algebra",
    "check_bloch_round_trip",
    "check_partial_trace_product",
    "check_eig_reconstruction",
    "check_schmidt_separability",
    "check_smear_validity",
    "check_joint_marginality",
    "check_joint_iff_grid",
    "check_contrast_oracle",
    "check_unsharpness_trade_off",
    "check_mub_fourier",
    "check_projection_meets",
    "check_mz_unitarity",
    "check_marking_unitary",
    "check_final_state_norm",
    "check_completion_independence",
    "extraction_grid_checks",
    "check_probability_reproduction",
    "check_pointer_freedom",
    "check_state_relations",
    "check_entropic_bound",
    "check_erasure_duality",
    "check_limit_complementarity",
    "check_grid_maximize_agreement",
    "check_determinism",
)

# Layer = module of src/mzpovm; values are the wrapped attribute paths.
LAYERS = {
    "linalg": (
        "state_vector",
        "eig_hermitian",
        "density_from_bloch",
        "pure_density",
        "partial_trace_probe",
        "schmidt",
    ),
    "povm": (
        "DiscretePovm.from_pairs",
        "validate",
        "marginal",
        "contrast",
        "joint_xz",
        "unsharpness",
    ),
    "complementarity": (
        "fourier_partner",
        "is_mutually_unbiased",
        "probabilistically_complementary",
    ),
    "interferometer": (
        "probes_for",
        "ProbeTriple",
        "total_unitary",
        "final_state",
        "output_projection",
    ),
    "extraction": (
        "scheme_for",
        "MeasurementScheme",
        "extract_povm",
        "marginals_of",
        "closed_form",
    ),
    "oracle": ("haar_state", "direct_probabilities", "cross_check", "grid_maximize"),
    "relations": (
        "erasure_duality",
        "entropic_bound",
        "variance_ur",
        "triple_relations",
        "distinguishability",
        "visibility_reduced",
    ),
    "cli": ("evaluate_run", "render_json", "sweep_rows"),
    "verify": VERIFY_FUNCTIONS,
}

CONSTRUCTORS = {("interferometer", "ProbeTriple"), ("extraction", "MeasurementScheme")}


def _scheme_key(scheme) -> bytes:
    parts = [scheme.unitary.tobytes(), scheme.probe_init.tobytes()]
    for label, m in scheme.outputs:
        parts += [label.encode(), m.tobytes()]
    return b"|".join(parts)


# Distinct configs are told apart by their byte-identical results, so configs
# that differ only in angles an experiment ignores count once.
DISTINCT_KEYS = {
    "interferometer.final_state": lambda state: state.tobytes(),
    "extraction.scheme_for": _scheme_key,
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            if layer == "verify":
                specs.append((f"verify.{fn}.s", "s", "lower"))
            else:
                specs.append((f"{layer}.{fn}.calls", "calls/op", "lower"))
                specs.append((f"{layer}.{fn}.self_us", "us", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    specs += [
        ("oracle.grid_maximize.objective_evals", "evals/op", "lower"),
        ("oracle.grid_maximize.accept_ratio", "1", "higher"),
        ("interferometer.final_state.distinct_ratio", "1", "higher"),
        ("extraction.scheme_for.distinct_ratio", "1", "higher"),
        ("trace.overhead_ratio", "1", "lower"),
    ]
    return specs


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Installs span wrappers into the mzpovm modules and aggregates spans."""

    def __init__(self):
        self.stats = {f"{layer}.{fn}": _Stat() for layer, fns in LAYERS.items() for fn in fns}
        self.missing: list[str] = []
        self.objective_evals = 0
        self.objective_improving = 0
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _span(self, name, fn, on_result=None):
        stat = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - children[0]
                stat.incl_s += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _generator_span(self, name, fn):
        # One span per next(): the generator body runs only while it is pulled.
        step = self._span(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                yield item

        return wrapper

    def _counting_objective(self, objective):
        best = [float("-inf")]

        def counted(r):
            value = objective(r)
            self.objective_evals += 1
            if float(value) > best[0]:
                best[0] = float(value)
                self.objective_improving += 1
            return value

        return counted

    def _recorder(self, name):
        seen, key = self.distinct[name], DISTINCT_KEYS[name]
        return lambda result: seen.add(key(result))

    # -- installation ----------------------------------------------------

    def _rebind(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _targets(self):
        """(name, owner, attribute, original) of every listed function found."""
        if self._saved:
            raise RuntimeError("already installed")
        self.missing = []
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"mzpovm.{layer}")
            for fn in functions:
                name = f"{layer}.{fn}"
                owner, attr = module, fn
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    owner = getattr(module, cls_name, None)
                elif (layer, fn) in CONSTRUCTORS:
                    owner, attr = getattr(module, fn, None), "__post_init__"
                if attr not in getattr(owner, "__dict__", {}):
                    # Reported with zero calls rather than failing the run.
                    self.missing.append(name)
                    continue
                yield name, owner, attr, owner.__dict__[attr]

    def install(self):
        """Rebind every listed attribute to its span wrapper."""
        for name, owner, attr, original in self._targets():
            if isinstance(original, staticmethod):
                self._rebind(owner, attr, staticmethod(self._span(name, original.__func__)))
            elif name == "cli.sweep_rows":
                self._rebind(owner, attr, self._generator_span(name, original))
            elif name == "oracle.grid_maximize":
                span = self._span(name, original)

                def grid_maximize(objective, *args, _span=span, **kwargs):
                    return _span(self._counting_objective(objective), *args, **kwargs)

                self._rebind(owner, attr, grid_maximize)
            elif name in DISTINCT_KEYS:
                self._rebind(owner, attr, self._span(name, original, self._recorder(name)))
            else:
                self._rebind(owner, attr, self._span(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every per-layer metric, per op, keyed by name."""
        out = {}
        for layer, functions in LAYERS.items():
            layer_self = 0.0
            for fn in functions:
                stat = self.stats[f"{layer}.{fn}"]
                layer_self += stat.self_s
                if layer == "verify":
                    out[f"verify.{fn}.s"] = stat.incl_s / ops
                else:
                    out[f"{layer}.{fn}.calls"] = stat.calls / ops
                    out[f"{layer}.{fn}.self_us"] = 1e6 * stat.self_s / stat.calls if stat.calls else 0.0
            out[f"{layer}.self_s"] = layer_self / ops
        evals = self.objective_evals
        out["oracle.grid_maximize.objective_evals"] = evals / ops
        out["oracle.grid_maximize.accept_ratio"] = self.objective_improving / evals if evals else 0.0
        for name, seen in self.distinct.items():
            calls = self.stats[name].calls
            out[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 0.0
        out["trace.overhead_ratio"] = traced_s / untraced_s
        return out


class Ticker(Tracer):
    """Records a (function, time) tick on entry to every function in LAYERS.

    The gaps between consecutive ticks cut an op into short segments; the
    functions entered at a segment's two ends name the code path it ran.
    """

    def __init__(self):
        super().__init__()
        self.tags = array("H")
        self.times = array("d")

    def _tick(self, tag, fn):
        add_tag, add_time = self.tags.append, self.times.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            add_tag(tag)
            add_time(perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every listed attribute to its tick wrapper."""
        for tag, (_, owner, attr, original) in enumerate(self._targets()):
            if isinstance(original, staticmethod):
                self._rebind(owner, attr, staticmethod(self._tick(tag, original.__func__)))
            else:
                self._rebind(owner, attr, self._tick(tag, original))

    def take(self) -> tuple[array, array]:
        """The ticks since the last take: function tags and tick times.

        The wrappers append to the arrays current at ``install``; take after
        ``uninstall`` and install again before the next op.
        """
        ticks = self.tags, self.times
        self.tags, self.times = array("H"), array("d")
        return ticks
