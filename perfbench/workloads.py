"""The four viriallab benchmark workloads, run inside one single-threaded
process (started by run.py).

Usage (normally through run.py):
    python3 perfbench/workloads.py --workload blowup_free --seed 1 --seconds 26 --trace 0

Each workload is a closed loop: passes run back to back for about
--seconds, with set-up repeated and timed on its own between them.  Every
pass checks its outputs; each check is one op.  --seed is recorded with the
result; the bundled scenarios are pinned, so it does not change the inputs.
The last line of standard output is the result JSON.

numpy and the package are imported inside functions, because run.py imports
this module for the workload names and starts no numpy of its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# t_detect of the bundled blow-up scenarios as first measured with this
# benchmark (numpy 2.4.6, scipy 1.17.1).  A change that keeps the method may
# move them by roundoff only; a step-control change must stay within one
# dt_max.
REF_T_DETECT = {"blowup_free": 0.5589609159991291, "blowup_graph": 0.5585714211518035}
T_DETECT_TOL = 1e-3
MASS_DRIFT_TOL = 1e-9
RESIDUAL_TOL = 1e-2
INVPOW_WINDOW_T_END = 0.05
GAUSSIANS = ["free_gaussian", "invpow_gaussian", "delta_gaussian", "graph_gaussian"]
SETUP_BATCH_REPS, SETUP_BATCH_S = 2, 0.2


def import_viriallab():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import viriallab
    import viriallab.cli  # noqa: F401  (not imported by the package itself)

    if pathlib.Path(viriallab.__file__).resolve().parent != src / "viriallab":
        raise ImportError(f"viriallab imported from {viriallab.__file__}, not {src}")
    return viriallab


class Ops:
    """Outcome of every op.  A check that finds a wrong output makes the run
    incorrect; an op that raises is a failed op with its message."""

    def __init__(self):
        self.records: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.records.append({"op": name, "ok": bool(ok), "kind": "check", "detail": detail})
        return bool(ok)

    def error(self, name: str, exc: Exception) -> None:
        self.records.append(
            {"op": name, "ok": False, "kind": "error", "detail": f"{type(exc).__name__}: {exc}"}
        )

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)

    @property
    def correct(self) -> bool:
        return all(r["ok"] for r in self.records if r["kind"] == "check")


class RunClock:
    """Physical time reached and wall time spent in evolve.run, through
    the module attribute every caller uses."""

    def __init__(self, evolve):
        self.evolve, self.sim_t, self.wall = evolve, 0.0, 0.0

    def __enter__(self):
        self.orig = self.evolve.run

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            traj = self.orig(*args, **kwargs)
            self.wall += time.perf_counter() - t0
            self.sim_t += float(traj.times[-1])
            return traj

        self.evolve.run = timed
        return self

    def __exit__(self, *exc):
        self.evolve.run = self.orig


def scenario_path(vl, name: str) -> pathlib.Path:
    return pathlib.Path(vl.__file__).parent / "scenarios" / f"{name}.json"


class EvolveWorkload:
    """One bundled blow-up scenario: find_R in set-up, then evolve.run and
    the checks of the blow-up argument in each pass."""

    def __init__(self, name, scenario, t_end=None):
        self.name, self.scenario, self.t_end = name, scenario, t_end

    def setup(self, vl):
        import numpy as np

        sc = vl.cli.load_scenario(scenario_path(vl, self.scenario))
        model = vl.ModelSpec.from_dict(sc["model"])
        cfg = vl.SolverConfig(**sc["solver"])
        if self.t_end is not None:
            cfg = dataclasses.replace(cfg, T_end=self.t_end)
        g = sc["grid"]
        if g["kind"] == "line":
            template = vl.LineField(
                L=float(g["L"]), N=int(g["N"]), values=np.zeros(int(g["N"])),
                stagger=bool(g.get("stagger", False)),
            )
        else:
            J, M = int(g["J"]), int(g["M"])
            template = vl.GraphField(
                J=J, Ledge=float(g["Ledge"]), M=M, vertex_values=np.zeros(J),
                edge_values=np.zeros((J, M)), shared_vertex=bool(g.get("shared_vertex", True)),
            )
        d = sc["initial_data"]
        u0 = vl.soliton.scaled_data(
            float(d["lam"]), float(d.get("omega", 1.0)), template, center=float(d.get("center", 0.0))
        )
        R, _eta, eta_tilde = vl.virial_analysis.find_R(u0, model)
        return {"model": model, "cfg": cfg, "u0": u0, "R": R, "eta_tilde": eta_tilde}

    def run_pass(self, vl, st, ops: Ops, workdir) -> int:
        import numpy as np

        va, fn = vl.virial_analysis, vl.functionals
        model, u0, R = st["model"], st["u0"], st["R"]
        traj = vl.evolve.run(u0, model, st["cfg"])
        v = traj.verdict
        if self.t_end is None:
            ops.check(
                "verdict", v.status == "blowup_detected" and v.trigger == "gradient_growth",
                f"{v.status} / {v.trigger}",
            )
            t_end = v.t_detect if v.t_detect is not None else float(traj.times[-1])
            ref = REF_T_DETECT[self.name]
            ops.check("t_detect", abs(t_end - ref) <= T_DETECT_TOL, f"{t_end!r} vs {ref!r}")
        else:
            t_end = float(traj.times[-1])
            ops.check(
                "verdict", v.status == "completed" and abs(t_end - self.t_end) <= 1e-12,
                f"{v.status} at t = {t_end!r}",
            )
        m = traj.mass_series
        drift = float(np.max(np.abs(m - m[0])) / m[0])
        ops.check("mass_drift", drift <= MASS_DRIFT_TOL, f"{drift:.3g}")

        E = float(traj.energy_series[0])
        eta_val = vl.weight.eta(R, float(m[0]))
        checked, satisfied, _ = va.inequality_flags(traj.snapshots, R, model, E, eta_val)
        bad = int(np.sum(checked & ~satisfied))
        ops.check(
            "decay_inequality", bool(np.any(checked)) and bad == 0,
            f"{int(np.sum(checked))} checked, {bad} violated",
        )
        root = va.envelope(fn.virial_I(u0, R), fn.virial_I_prime(u0, R, model), st["eta_tilde"])
        ops.check("before_envelope_root", t_end <= root, f"{t_end:.6g} <= {root:.6g}")

        # README step `virial-report --R auto`, in memory.
        try:
            rep = va.report(traj, R, model)
        except ValueError as exc:
            ops.error("report", exc)
        else:
            ops.check("report", rep.violations() == 0, f"{rep.violations()} violations")
        return 0


class ReportPipeline:
    """README post-processing through cli.main on the four *_gaussian
    scenarios, plus weight-check and ground-state, in a temporary directory
    deleted after each pass."""

    name = "report_pipeline"

    def setup(self, vl):
        scenarios = {}
        for name in GAUSSIANS:
            path = scenario_path(vl, name)
            sc = vl.cli.load_scenario(path)
            # parsed here only to reject a bad scenario before timing starts
            vl.ModelSpec.from_dict(sc["model"])
            vl.SolverConfig(**sc["solver"])
            scenarios[name] = path
        return scenarios

    def run_pass(self, vl, scenarios, ops: Ops, workdir) -> int:
        main = vl.cli.main
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            tmp = pathlib.Path(tmp)
            for name, path in scenarios.items():
                out = tmp / name
                code = main(["simulate", str(path), "--out", str(out)])
                if ops.check(f"simulate:{name}:exit", code == 0, f"exit {code}"):
                    s = json.loads((out / "summary.json").read_text())
                    drift = s["mass_drift_rel"]
                    ops.check(
                        f"simulate:{name}:run",
                        s["verdict"]["status"] == "completed" and drift <= MASS_DRIFT_TOL,
                        f"{s['verdict']['status']}, mass drift {drift:.3g}",
                    )
                code = main(["virial-report", str(out), "--R", "8"])
                if ops.check(f"virial_report:{name}:exit", code == 0, f"exit {code}"):
                    s = json.loads((out / "virial_summary.json").read_text())
                    ops.check(
                        f"virial_report:{name}:residual",
                        s["max_residual"] < RESIDUAL_TOL and s["violations"] == 0,
                        f"max residual {s['max_residual']:.3g}, {s['violations']} violations",
                    )
            code = main(["weight-check", "--out", str(tmp / "weight_check.json")])
            if ops.check("weight_check:exit", code == 0, f"exit {code}"):
                ok = json.loads((tmp / "weight_check.json").read_text())["passed"]
                ops.check("weight_check:passed", ok is True, f"passed = {ok}")
            code = main(["ground-state", "--model", "delta", "--out", str(tmp / "gs")])
            if ops.check("ground_state:exit", code == 0, f"exit {code}"):
                rec = json.loads((tmp / "gs" / "record.json").read_text())
                ops.check("ground_state:converged", rec["converged"] is True,
                          f"residual {rec['residual']:.3g}")
            return sum(p.stat().st_size for p in tmp.rglob("*") if p.is_file())


WORKLOADS = {
    "blowup_free": EvolveWorkload("blowup_free", "free_blowup"),
    "blowup_graph": EvolveWorkload("blowup_graph", "graph_blowup"),
    "invpow_window": EvolveWorkload("invpow_window", "invpow_blowup", t_end=INVPOW_WINDOW_T_END),
    "report_pipeline": ReportPipeline(),
}


def timed_setups(vl, wl, times: list) -> object:
    """One batch of set-ups: at least SETUP_BATCH_REPS, for at least
    SETUP_BATCH_S.  Appends each duration to `times`; returns the last state."""
    t_start = time.perf_counter()
    for rep in itertools.count(1):
        t0 = time.perf_counter()
        st = wl.setup(vl)
        times.append(time.perf_counter() - t0)
        if rep >= SETUP_BATCH_REPS and time.perf_counter() - t_start >= SETUP_BATCH_S:
            return st


def one_pass(vl, wl, st, ops, workdir):
    with RunClock(vl.evolve) as clock:
        c0, t0 = time.process_time(), time.perf_counter()
        out_bytes = wl.run_pass(vl, st, ops, workdir)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu, "sim_t": clock.sim_t, "run_wall_s": clock.wall,
            "output_bytes": out_bytes, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha, "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(), "seed": seed,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(vl, wl, seconds: float, workdir) -> tuple[Ops, dict, dict]:
    """Untraced run: passes back to back while the next one is expected to
    be at least half done by `seconds`.  The half-pass slack keeps the pass
    count from flipping when a pass takes about seconds / k.  A batch of
    set-ups runs before each pass and after the last, so set-up time is
    sampled across the whole run, as the passes are."""
    ops = Ops()
    setups: list[float] = []
    passes, t_start = [], time.perf_counter()
    while True:
        st = timed_setups(vl, wl, setups)
        passes.append(one_pass(vl, wl, st, ops, workdir))
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * statistics.median(p["wall_s"] for p in passes) > seconds:
            break
    timed_setups(vl, wl, setups)
    n = len(passes)
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    metrics = {
        "wall_s": (med("wall_s"), "s", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "sim_time_per_s": (statistics.median(p["sim_t"] / p["run_wall_s"] for p in passes), "sim_t/s", n),
        "cpu_s": (med("cpu_s"), "s", n),
        # A user runs one pass; later passes only add allocator growth.
        "peak_rss_mb": (passes[0]["peak_rss_mb"], "MB", 1),
    }
    return ops, metrics, {"passes": n, "per_pass": passes, "setup_s": setups}


def trace_once(vl, wl, workdir, span_path) -> tuple[Ops, dict, dict]:
    """One untraced set-up and pass, then one traced set-up and pass; the
    per-layer metrics come from the traced one."""
    from spans import Tracer

    ops = Ops()
    plain = one_pass(vl, wl, wl.setup(vl), ops, workdir)
    tracer = Tracer()
    tracer.install(vl)
    try:
        st = wl.setup(vl)
        traced = one_pass(vl, wl, st, ops, workdir)
    finally:
        tracer.uninstall()
    tracer.dump(span_path)
    layer = tracer.layer_metrics()
    layer["trace.wall_s"] = traced["wall_s"]
    layer["trace.untraced_wall_s"] = plain["wall_s"]
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layer["trace.overhead_est_s"] = tracer.cost_estimate()
    layer["evolve.run.share_of_wall"] = layer["evolve.run.s"] / traced["wall_s"]
    layer["output_mb"] = plain["output_bytes"] / 1e6
    layer["ops_attempted"] = ops.attempted
    layer["failed_frac"] = ops.failed / ops.attempted
    metrics = {k: (v, LAYER_UNITS.get(k, _unit_of(k)), 1) for k, v in layer.items()}
    return ops, metrics, {"passes": 2, "untraced": plain, "traced": traced}


LAYER_UNITS = {
    "evolve.step.p50_ms": "ms", "evolve.step.p99_ms": "ms", "evolve.dt_min": "sim_t",
    "evolve.dt_max": "sim_t", "evolve.save_trajectory.bytes": "B", "output_mb": "MB",
    "failed_frac": "1", "evolve.run.share_of_wall": "1",
}


def _unit_of(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    vl = import_viriallab()
    wl = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ops, metrics, counts = trace_once(vl, wl, OUT, OUT / f"spans-{tag}.json")
    else:
        ops, metrics, counts = measure(vl, wl, args.seconds, OUT)

    machine = machine_info(args.seed)
    print(" ".join(f"{k}={v}" for k, v in machine.items()))
    failures: dict[tuple, int] = {}
    for r in ops.records:
        if not r["ok"]:
            key = (r["op"], r["kind"], r["detail"])
            failures[key] = failures.get(key, 0) + 1
    for (op, kind, detail), count in failures.items():
        print(f"FAILED op {op} ({kind}, {count}x): {detail}")
    print(f"{args.workload}: {counts['passes']} passes, {ops.attempted} ops, {ops.failed} failed")
    for k, (v, unit, n) in metrics.items():
        print(f"  {k:40s} {v:14.6g} {unit:8s} n={n}")
    record = {
        "workload": args.workload, "machine": machine, "counts": counts, "ops": ops.records,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": ops.correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
