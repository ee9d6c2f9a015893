"""In-memory span tracer wrapped around viriallab's module attributes.

A span is (name, start, end, parent id).  Each traced function is replaced
at every module or class attribute that holds it, so calls that go through
`from .functionals import kinetic_energy` style bindings are seen as well.
The wrappers are installed from the benchmark at run time and removed
afterwards; the package source is not changed.
"""

from __future__ import annotations

import importlib
import json
import os
import time

import numpy as np

# Functions traced as spans: (defining module, attribute).  Every binding of
# the same function object in the package modules gets the same wrapper.
SPANNED = [
    ("evolve", "run"),
    ("evolve", "step_splitstep"),
    ("evolve", "step_cn"),
    ("evolve", "assemble_hamiltonian"),
    ("evolve", "save_trajectory"),
    ("evolve", "load_trajectory"),
    ("functionals", "kinetic_energy"),
    ("functionals", "energy"),
    ("functionals", "mass"),
    ("functionals", "virial_I"),
    ("functionals", "virial_I_prime"),
    ("functionals", "virial_rhs"),
    ("field", "lp_norm"),
    ("field", "derivative"),
    ("field", "tail_mass"),
    ("weight", "chi_R"),
    ("weight", "verify_profile"),
    ("virial_analysis", "report"),
    ("virial_analysis", "inequality_flags"),
    ("virial_analysis", "find_R"),
    ("soliton", "scaled_data"),
    ("soliton", "ground_state_flow"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_virial_report"),
    ("cli", "cmd_weight_check"),
    ("cli", "cmd_ground_state"),
]

MODULES = ["field", "functionals", "evolve", "soliton", "virial_analysis", "weight", "cli"]
STEP_NAMES = ("evolve.step_splitstep", "evolve.step_cn")
CLI_COMMANDS = {
    "simulate": "cli.cmd_simulate",
    "virial_report": "cli.cmd_virial_report",
    "weight_check": "cli.cmd_weight_check",
    "ground_state": "cli.cmd_ground_state",
}


class Tracer:
    """Records spans and counters while installed; restores every patched
    attribute on `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.dts: list[float] = []
        self.snapshots = 0
        self.gs_iterations = 0
        self.saved_bytes = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, pkg) -> None:
        mods = [pkg] + [importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES]
        for modname, attr in SPANNED:
            orig = getattr(importlib.import_module(f"{pkg.__name__}.{modname}"), attr)
            wrapper = self._span_wrapper(f"{modname}.{attr}", orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

        evolve = importlib.import_module(f"{pkg.__name__}.evolve")
        op = evolve.AssembledOperator
        self._patch(op, "cayley_solve", self._span_wrapper("evolve.cayley_solve", op.cayley_solve))
        self._patch(evolve, "splu", self._count_wrapper("evolve.splu", evolve.splu))
        field = importlib.import_module(f"{pkg.__name__}.field")
        for cls in (field.LineField, field.GraphField):
            self._patch(cls, "__post_init__", self._count_wrapper("field.fields_built", cls.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------
    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        is_step = name in STEP_NAMES
        on_return = {
            "evolve.run": self._after_run,
            "evolve.save_trajectory": self._after_save,
            "soliton.ground_state_flow": self._after_ground_state,
        }.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(sid)
            if is_step:
                self.dts.append(float(args[1] if len(args) > 1 else kwargs["dt"]))
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _after_run(self, traj, args, kwargs):
        self.snapshots += len(traj.snapshots)

    def _after_save(self, _out, args, kwargs):
        outdir = args[1] if len(args) > 1 else kwargs["outdir"]
        for dirpath, _dirs, files in os.walk(outdir):
            self.saved_bytes += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)

    def _after_ground_state(self, gs, args, kwargs):
        self.gs_iterations += int(gs.iterations)

    # -- reduction ----------------------------------------------------
    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total inclusive time, self time and call count."""
        incl: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        calls: dict[str, int] = {}
        for name, start, end, parent in self.spans:
            dur = end - start
            incl[name] = incl.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += dur
        own: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (end - start) - child[i]
        return incl, own, calls

    def layer_metrics(self) -> dict[str, float]:
        incl, own, calls = self.totals()
        step_ms = np.array(
            [(e - s) * 1e3 for name, s, e, _p in self.spans if name in STEP_NAMES]
        )
        step_s = sum(incl.get(n, 0.0) for n in STEP_NAMES)
        dts = np.array(self.dts)
        m = {
            "evolve.steps": len(step_ms),
            "evolve.step.s": step_s,
            "evolve.step.p50_ms": float(np.percentile(step_ms, 50)) if len(step_ms) else 0.0,
            "evolve.step.p99_ms": float(np.percentile(step_ms, 99)) if len(step_ms) else 0.0,
            "evolve.dt_min": float(dts.min()) if len(dts) else 0.0,
            "evolve.dt_max": float(dts.max()) if len(dts) else 0.0,
            "evolve.dt_levels": len(np.unique(dts)),
            "evolve.run.s": incl.get("evolve.run", 0.0),
            "evolve.run.self_s": incl.get("evolve.run", 0.0) - step_s,
            "evolve.cayley_solve.s": incl.get("evolve.cayley_solve", 0.0),
            "evolve.lu_factorizations": self.counts.get("evolve.splu", 0),
            "evolve.assemble_hamiltonian.s": incl.get("evolve.assemble_hamiltonian", 0.0),
            "field.fields_built": self.counts.get("field.fields_built", 0),
            "evolve.save_trajectory.s": incl.get("evolve.save_trajectory", 0.0),
            "evolve.save_trajectory.bytes": self.saved_bytes,
            "evolve.load_trajectory.s": incl.get("evolve.load_trajectory", 0.0),
            "evolve.snapshots": self.snapshots,
        }
        for name in (
            "functionals.kinetic_energy", "functionals.energy", "functionals.mass",
            "functionals.virial_I", "functionals.virial_I_prime", "functionals.virial_rhs",
            "field.lp_norm", "field.derivative", "field.tail_mass", "weight.chi_R",
        ):
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.s"] = incl.get(name, 0.0)
        for name in (
            "weight.verify_profile", "virial_analysis.report",
            "virial_analysis.inequality_flags", "virial_analysis.find_R",
        ):
            m[f"{name}.s"] = incl.get(name, 0.0)
        m["soliton.scaled_data.s"] = incl.get("soliton.scaled_data", 0.0)
        m["soliton.ground_state_flow.s"] = incl.get("soliton.ground_state_flow", 0.0)
        m["soliton.ground_state_flow.iterations"] = self.gs_iterations
        for short, span in CLI_COMMANDS.items():
            m[f"cli.{short}.s"] = incl.get(span, 0.0)
            m[f"cli.{short}.self_s"] = own.get(span, 0.0)
        m["trace.spans"] = len(self.spans)
        return m

    def cost_estimate(self, calls: int = 20000) -> float:
        """Seconds the wrappers added to the traced run: the recorded span
        and counter calls times the per-call cost of each wrapper on a
        no-op, measured here."""
        probe = Tracer()
        cost = {}
        for kind, wrap in (("span", probe._span_wrapper), ("count", probe._count_wrapper)):
            noop = lambda: None  # noqa: E731
            wrapped = wrap("probe", noop)
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            cost[kind] = max(0.0, (t1 - t0) - (time.perf_counter() - t1)) / calls
        return len(self.spans) * cost["span"] + sum(self.counts.values()) * cost["count"]

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent] to a JSON file."""
        with open(path, "w") as fh:
            json.dump({"dts": self.dts, "counts": self.counts, "spans": self.spans}, fh)
