"""Spans around the calls into each simulator module, recorded from the
benchmark's side.

A wrapper is installed under every name a module of the package binds to
the wrapped function, because modules import names directly
(``sweeps.evolve``, ``cli.evolve`` and ``dynamics.evolve`` are one
function).  Spans stay in memory with their parent ids and are written out
when the run ends.  The right-hand side and step callback that ``evolve``
hands to the integrator are called ~10^5 times per sweep point; they are
accumulated into their caller's span as leaf time instead of being kept as
spans of their own.

A target function that no longer exists is recorded in ``absent``; its
metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter


def _evolve_attrs(span, out):
    span["attrs"]["span_ps"] = float(out.times[-1] - out.times[0])


def _integrate_attrs(span, out):
    span["attrs"]["accepted"] = len(out[0]) - 1


def _sweep_attrs(span, out):
    results = out if isinstance(out, list) else [out]
    span["attrs"]["points"] = sum(len(r.abscissa) for r in results)
    span["attrs"]["failures"] = sum(len(r.failures) for r in results)


def _mle_attrs(span, out):
    span["attrs"]["n_iter"] = int(out.n_iter)
    span["attrs"]["not_converged"] = int(not out.converged)


# (module, function, attribute hook on the result, {argument: leaf name})
TARGETS = [
    ("config", "load_config", None, {}),
    ("sweeps", "rabi_sweep", _sweep_attrs, {}),
    ("sweeps", "ratio_sweep", _sweep_attrs, {}),
    ("sweeps", "fit_gamma_i0", None, {}),
    ("sweeps", "first_cycle_ratio", None, {}),
    ("sweeps", "first_cycle_extrema", None, {}),
    ("sweeps", "emission_after_pulse", None, {}),
    ("sweeps", "export_sweep_csv", None, {}),
    ("dynamics", "evolve", _evolve_attrs, {}),
    ("dynamics", "emission_probabilities", None, {}),
    ("dynamics", "export_trajectory_csv", None, {}),
    ("ode", "integrate_adaptive", _integrate_attrs,
     {"rhs": "ode.rhs", "step_callback": "ode.step_callback"}),
    ("linalg", "eig_hermitian", None, {}),
    ("linalg", "state_fidelity", None, {}),
    ("timebin", "concurrence", None, {}),
    ("timebin", "visibilities", None, {}),
    ("tomography", "simulate_counts", None, {}),
    ("tomography", "reconstruct_linear", None, {}),
    ("tomography", "reconstruct_mle", _mle_attrs, {}),
]

PACKAGE = "qdtimebin"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[dict] = []
        self._patches: list[tuple] = []

    # --- spans ----------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": perf_counter(), "end": None,
                "leaf": {}, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _leaf(self, name: str, fn):
        def leaf(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = self._stack[-1]["leaf"].setdefault(name, [0, 0.0])
                acc[0] += 1
                acc[1] += perf_counter() - t
        return leaf

    def _wrap(self, name: str, fn, hook, leaves: dict):
        sig = inspect.signature(fn) if leaves else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                for arg, leaf_name in leaves.items():
                    if bound.arguments.get(arg) is not None:
                        bound.arguments[arg] = self._leaf(
                            leaf_name, bound.arguments[arg])
                args, kwargs = bound.args, bound.kwargs
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(s, out)
                    except (AttributeError, TypeError, IndexError):
                        s["attrs"]["unreadable"] = True  # result changed shape
                return out
            finally:
                self._close(s)
        return wrapper

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every name the package binds it to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self.absent = []
        for mod_name, fn_name, hook, leaves in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            orig = getattr(module, fn_name, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, hook, leaves)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches = []


# --- per-pass metrics ---------------------------------------------------------

def _subtree(spans: list[dict], root: dict) -> list[dict]:
    inside = {root["id"]}
    out = []
    for s in spans[root["id"] + 1:]:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out


def pass_metrics(spans: list[dict], root: dict) -> tuple[dict, dict]:
    """Per-layer metrics and per-module self time of one traced pass.

    ``root`` is the pass span.  A span's self time is its duration minus
    the time its child spans and leaf calls cover.
    """
    sub = _subtree(spans, root)
    by_id = {s["id"]: s for s in sub}
    dur = {s["id"]: s["end"] - s["start"] for s in sub}
    covered = {s["id"]: sum(v[1] for v in s["leaf"].values()) for s in sub}
    covered[root["id"]] = 0.0
    for s in sub:
        covered[s["parent"]] += dur[s["id"]]
    self_s = {i: dur[i] - covered[i] for i in dur}

    def named(name):
        return [s for s in sub if s["name"] == name]

    def total(name):
        return sum(dur[s["id"]] for s in named(name))

    def self_total(name):
        return sum(self_s[s["id"]] for s in named(name))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    def leaf(name, idx):
        return sum(s["leaf"].get(name, [0, 0.0])[idx] for s in sub)

    evals = ("sweeps.first_cycle_ratio", "sweeps.first_cycle_extrema")

    def is_fit_eval(s):
        if s["name"] not in evals:
            return False
        p = by_id.get(s["parent"])
        while p is not None and p["name"] not in evals + (
                "sweeps.fit_gamma_i0",):
            p = by_id.get(p["parent"])
        return p is not None and p["name"] == "sweeps.fit_gamma_i0"

    accepted = attr("ode.integrate_adaptive", "accepted")
    # FSAL Dormand-Prince: one initial call, then 6 per attempted step
    rejected = sum((s["leaf"]["ode.rhs"][0] - 1
                    - 6 * s["attrs"].get("accepted", 0)) / 6
                   for s in named("ode.integrate_adaptive")
                   if "ode.rhs" in s["leaf"])
    m = {f"cli.{c}.s": total(f"cli.{c}") for c in
         ("evolve", "rabi", "ratio", "fit-dephasing", "entangle")}
    m.update({
        "config.load_config.s": total("config.load_config"),
        "sweeps.points": attr("sweeps.rabi_sweep", "points")
        + attr("sweeps.ratio_sweep", "points"),
        "sweeps.point_failures": attr("sweeps.rabi_sweep", "failures")
        + attr("sweeps.ratio_sweep", "failures"),
        "sweeps.emission_after_pulse.calls":
            len(named("sweeps.emission_after_pulse")),
        "sweeps.emission_after_pulse.self_s":
            self_total("sweeps.emission_after_pulse"),
        "sweeps.first_cycle_extrema.calls":
            len(named("sweeps.first_cycle_extrema")),
        "sweeps.first_cycle_extrema.s": total("sweeps.first_cycle_extrema"),
        "sweeps.fit_gamma_i0.ratio_evals": sum(map(is_fit_eval, sub)),
        "dynamics.evolve.calls": len(named("dynamics.evolve")),
        "dynamics.evolve.self_s": self_total("dynamics.evolve"),
        "dynamics.evolve.span_ps": attr("dynamics.evolve", "span_ps"),
        "dynamics.emission_probabilities.calls":
            len(named("dynamics.emission_probabilities")),
        "dynamics.emission_probabilities.s":
            total("dynamics.emission_probabilities"),
        "dynamics.export_trajectory_csv.s":
            total("dynamics.export_trajectory_csv"),
        "sweeps.export_sweep_csv.s": total("sweeps.export_sweep_csv"),
        "io.bytes_written": root["attrs"].get("bytes_written", 0),
        "ode.integrate_adaptive.self_s": self_total("ode.integrate_adaptive"),
        "ode.rhs.calls": leaf("ode.rhs", 0),
        "ode.rhs.s": leaf("ode.rhs", 1),
        "ode.step_callback.s": leaf("ode.step_callback", 1),
        "ode.accepted_steps": accepted,
        "ode.rejected_steps": rejected,
        "ode.accept_ratio": (accepted / (accepted + rejected)
                             if accepted + rejected else 0.0),
    })
    for name in ("linalg.eig_hermitian", "linalg.state_fidelity",
                 "timebin.concurrence", "timebin.visibilities",
                 "tomography.reconstruct_mle"):
        m[f"{name}.calls"] = len(named(name))
        m[f"{name}.s"] = total(name)
    m["tomography.mle.n_iter"] = attr("tomography.reconstruct_mle", "n_iter")
    m["tomography.mle.not_converged"] = attr("tomography.reconstruct_mle",
                                             "not_converged")
    m["tomography.reconstruct_linear.s"] = total("tomography.reconstruct_linear")
    m["tomography.simulate_counts.s"] = total("tomography.simulate_counts")

    # self time by module; leaf calls belong to the module named in the leaf
    split: dict[str, float] = {}
    for s in sub:
        mod = s["name"].split(".")[0]
        split[mod] = split.get(mod, 0.0) + self_s[s["id"]]
        for leaf_name, (_, t) in s["leaf"].items():
            mod = leaf_name.split(".")[0]
            split[mod] = split.get(mod, 0.0) + t
    split["untraced"] = (root["end"] - root["start"]) - sum(
        dur[s["id"]] for s in sub if s["parent"] == root["id"])
    return m, split
