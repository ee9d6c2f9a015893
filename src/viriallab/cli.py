"""Command-line front end.

Subcommands: weight-check, simulate, virial-report, sweep, ground-state.
Exit codes: 0 success, 1 failed check or aborted run, 2 bad arguments or
config, 10 blow-up detected (the expected outcome of the negative-energy
scenarios).  The env var VIRIALLAB_OUT overrides the output root for
relative --out paths and for the relative trajectory directory
virial-report reads.  All outputs are deterministic.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import pathlib
import sys

import numpy as np

from . import evolve as ev
from . import functionals as fn
from . import soliton as sol
from . import virial_analysis as va
from . import weight
from .evolve import _fmt
from .field import LineField, field_from_grid, json_entry, known_entries, lp_norm

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BADARGS = 2
EXIT_BLOWUP = 10


def _out_path(arg: str | None, default: str) -> pathlib.Path:
    root = pathlib.Path(os.environ.get("VIRIALLAB_OUT", "."))
    p = pathlib.Path(arg) if arg else pathlib.Path(default)
    return p if p.is_absolute() else root / p


class UsageError(Exception):
    """A bad argument, scenario or input file: `main` prints it and exits 2."""


# the entries of each initial_data kind besides "kind", and the numbers' defaults (None: required)
_INITIAL = {
    "scaled_soliton": {"lam": None, "omega": 1.0, "center": 0.0},
    "gaussian": {"a": 1.0, "sigma": 1.0, "center": 0.0},
    "ground_state": {"omega": 1.0, "tol": 1e-8},
    "file": {"path": None},
}


def _build_initial(data: dict, template, model: fn.ModelSpec):
    """The Field of a scenario's initial_data; ValueError on an entry its
    kind does not read or a number that is not a JSON number."""
    kind = data.get("kind")
    if kind not in _INITIAL:
        raise UsageError(f"unknown initial_data kind {kind!r}")
    known_entries(data, ("kind", *_INITIAL[kind]), f"{kind} initial_data")
    num = {k: json_entry(data, k, float, d, "initial_data") for k, d in _INITIAL[kind].items()
           if k != "path"}
    if kind == "scaled_soliton":
        return sol.scaled_data(num["lam"], num["omega"], template, center=num["center"])
    if kind == "gaussian":
        a, sigma, c = num["a"], num["sigma"], num["center"]
        return template.sampled(lambda x: a * np.exp(-(((x - c) / sigma) ** 2)))
    if kind == "ground_state":
        gs = sol.ground_state_flow(model, template, omega=num["omega"], tol=num["tol"])
        if not gs.converged:
            raise UsageError("ground-state initial data did not converge")
        return gs.field
    # a file: the samples in the grid's shape, as `np.save` wrote them
    path = pathlib.Path(data["path"])
    values = np.load(path, allow_pickle=False)
    if np.shape(values) != template.values.shape:
        raise ValueError(f"{path}: shape {np.shape(values)} != {template.values.shape}")
    # the nodes `sampled` pins to zero: a graph's Dirichlet far nodes,
    # whose values the first Cayley step would drop
    if np.any(values[template.sampled(np.ones_like).values == 0]):
        raise UsageError(f"{path}: nonzero value at a Dirichlet far node")
    # a `ground-state` profile.npy names its grid in the record.json beside
    # it (one written before grids were recorded names none)
    record = path.with_name("record.json")
    grid = None
    if path.name == "profile.npy" and record.exists():
        grid = json.loads(record.read_text()).get("grid")
    if grid is not None and field_from_grid(grid).grid_spec() != template.grid_spec():
        raise UsageError(f"{path}: {record} names grid {grid}, the scenario {template.grid_spec()}")
    return template.with_values(values)


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            sc = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: line {exc.lineno}") from exc
    for key in ("name", "model", "initial_data", "grid", "solver"):
        if key not in sc:
            raise UsageError(f"scenario missing field {key!r}")
        if key != "name" and not isinstance(sc[key], dict):
            raise UsageError(f"scenario field {key!r} is not an object")
    return sc


def bundled_scenario_path(name: str) -> pathlib.Path:
    return pathlib.Path(__file__).parent / "scenarios" / f"{name}.json"


def _scenario_pieces(sc: dict):
    try:
        model = fn.ModelSpec.from_dict(sc["model"])
        cfg = ev.SolverConfig(**sc["solver"])
        template = field_from_grid(sc["grid"])
        u0 = _build_initial(sc["initial_data"], template, model)
        fn.energy(u0, model)  # the model must fit the grid, and a spectral N be a power of two
        ev.require_vertex_layout(u0, model)
    except (KeyError, ValueError, TypeError, OSError, EOFError) as exc:
        raise UsageError(f"bad scenario: {type(exc).__name__}: {exc}") from exc
    return model, cfg, u0


def cmd_weight_check(args) -> int:
    if args.samples < 1000:
        raise UsageError("--samples must be at least 1000")
    rep = weight.verify_profile(args.samples)
    payload = json.dumps(rep.as_dict(), indent=2)
    if args.out:
        out = _out_path(args.out, "weight_check.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload + "\n")
    else:
        print(payload)
    if not rep.passed:
        print("failed checks: " + ", ".join(rep.failed_names()), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_simulate(args) -> int:
    import hashlib  # loads OpenSSL, 3.6 MB resident: only simulate needs it

    sc = load_scenario(args.scenario)
    sha = hashlib.sha256(pathlib.Path(args.scenario).read_bytes()).hexdigest()
    # analysis.R, the tail_mass column's radius ("auto": no column), is checked before the run
    analysis = sc.get("analysis", {})
    R = analysis.get("R", "auto") if isinstance(analysis, dict) else None
    if R != "auto" and not (type(R) in (int, float) and 0 <= R < np.inf):
        raise UsageError(f'bad scenario: analysis {analysis}: R must be "auto" or finite, >= 0')
    model, cfg, u0 = _scenario_pieces(sc)
    traj = ev.run(u0, model, cfg)
    out = _out_path(args.out, sc["name"])
    out.mkdir(parents=True, exist_ok=True)
    ev.save_trajectory(traj, out, R=None if R == "auto" else float(R), scenario_sha256=sha)
    if traj.verdict.status == "completed":
        return EXIT_OK
    if traj.verdict.status == "blowup_detected":
        print(
            f"blow-up detected at t = {_fmt(traj.verdict.t_detect)}"
            f" (trigger: {traj.verdict.trigger})"
        )
        return EXIT_BLOWUP
    print(f"run aborted: {traj.verdict.diagnostic}", file=sys.stderr)
    return EXIT_FAIL


def cmd_virial_report(args) -> int:
    if not args.tol > 0:
        raise UsageError("--tol must be positive")
    src = _out_path(args.trajectory, args.trajectory)  # where simulate --out wrote it
    try:
        traj = ev.load_trajectory(src)
    except (OSError, EOFError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot load trajectory at {src}: {exc}") from exc
    if args.R == "auto":
        try:
            R, _, eta_tilde = va.find_R(traj.snapshots[0], traj.model)
        except (ValueError, RuntimeError) as exc:
            raise UsageError(f"auto R selection failed: {exc}") from exc
        print(f"selected R = {_fmt(R)}; eta_tilde = {_fmt(eta_tilde)}")
    else:
        try:
            R = float(args.R)
        except ValueError as exc:
            raise UsageError(f"bad R {args.R!r}") from exc
    try:
        rep = va.report(traj, R, traj.model)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_path(args.out, args.out) if args.out else src
    out.mkdir(parents=True, exist_ok=True)
    cols = [rep.times, rep.I, rep.Iprime_formula, rep.Isecond_fd, rep.rhs_formula,
            rep.residual, rep.tail_mass,
            rep.ineq_checked, rep.ineq_satisfied]
    np.savetxt(
        out / "virial_report.csv", np.column_stack(cols), fmt=["%.17g"] * 7 + ["%d"] * 2,
        delimiter=",", newline="\r\n", comments="",
        header="t,I,Iprime_formula,Isecond_fd,rhs,residual,tail_mass,checked,satisfied",
    )
    summary = {
        "R": rep.R,
        "eta": rep.eta,
        "eta_tilde": rep.eta_tilde,
        "max_residual": rep.max_residual(),
        "violations": rep.violations(),
    }
    if rep.envelope_root is not None:
        summary["envelope_root"] = rep.envelope_root
    (out / "virial_summary.json").write_text(json.dumps(summary, indent=2))
    ok = rep.max_residual() < args.tol and rep.violations() == 0
    return EXIT_OK if ok else EXIT_FAIL


def cmd_sweep(args) -> int:
    sc, slots, lists = load_scenario(args.scenario), {}, []
    for spec in args.set:
        key, eq, text = spec.partition("=")
        *path, leaf = key.split(".")
        node = functools.reduce(lambda d, k: d.get(k) if isinstance(d, dict) else None, path, sc)
        try:  # V1,V2,... is read as the JSON array [V1,V2,...]
            lists.append(json.loads(f"[{text}]") if eq else [])
        except ValueError:
            lists.append([])
        known = isinstance(node, dict) and not isinstance(node.get(leaf, {}), dict)
        if not (lists[-1] and known) or key in slots:
            raise UsageError(f"--set {spec!r}: need KEY=JSON,JSON,... once per KEY of the scenario")
        slots[key] = node, leaf
    points = []  # every point is built, and so checked, before the first run
    for values in itertools.product(*lists):
        for (node, leaf), v in zip(slots.values(), values):
            node[leaf] = v
        points.append((values, _scenario_pieces(sc)))
    rows = []
    for values, (model, cfg, u0) in points:
        traj = ev.run(u0, model, cfg)
        t_detect = traj.verdict.t_detect
        rows.append([*map(json.dumps, values), _fmt(traj.energy_series[0]), traj.verdict.status,
                     "" if t_detect is None else _fmt(t_detect), traj.steps, traj.dt_levels])
    out = _out_path(args.out, "sweep.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    head = [*slots, "energy", "verdict", "t_detect", "steps", "dt_levels"]
    np.savetxt(out, np.array(rows, dtype=object), fmt="%s", delimiter=",", newline="\r\n",
               header=",".join(head), comments="")
    return EXIT_OK


def cmd_ground_state(args) -> int:
    stagger = args.model == "inverse_power"
    template = LineField(L=16.0, N=2**12, values=np.zeros(2**12), stagger=stagger)
    try:
        if stagger and args.gamma < 0:  # attractive: no ModelSpec, so no energy
            model = None
            gs = sol.attractive_inverse_power_profile(
                args.gamma, args.mu, template, omega=args.omega, tol=args.tol
            )
        else:
            model = fn.ModelSpec(args.model, gamma=args.gamma, mu=args.mu)
            gs = sol.ground_state_flow(model, template, omega=args.omega, tol=args.tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record = {
        "model": args.model,
        "grid": template.grid_spec(),
        "omega": args.omega,
        "gamma": args.gamma,
        "mu": args.mu,
        "residual": gs.residual,
        "iterations": gs.iterations,
        "converged": gs.converged,
        "mass": fn.mass(gs.field),
        "linf": lp_norm(gs.field, np.inf),
    }
    if args.model == "delta":
        record["vertex_jump"] = sol.vertex_derivative_jump(gs.field)
        record["gamma_phi0"] = args.gamma * float(
            np.abs(gs.field.values[fn.origin_index(gs.field)])
        )
    if model is not None:
        record["energy"] = fn.energy(gs.field, model)
    out = _out_path(args.out, "ground_state")
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "profile.npy", gs.field.values)
    (out / "record.json").write_text(json.dumps(record, indent=2))
    if not gs.converged:
        print(
            f"ground state not converged: residual {gs.residual:.3g} "
            f"after {gs.iterations} iterations",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="viriallab")
    sub = p.add_subparsers(dest="command", required=True)

    wc = sub.add_parser("weight-check", help="certify the cutoff that chi_R and eta use")
    wc.add_argument("--samples", type=int, default=100_000)
    wc.add_argument("--out")
    wc.set_defaults(func=cmd_weight_check)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("scenario")
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    vr = sub.add_parser("virial-report", help="virial identity report for a trajectory")
    vr.add_argument("trajectory")
    vr.add_argument("--R", default="auto")
    vr.add_argument("--tol", type=float, default=1e-2)
    vr.add_argument("--out")
    vr.set_defaults(func=cmd_virial_report)

    sw = sub.add_parser("sweep", help="run a scenario at each combination of set values")
    sw.add_argument("scenario")
    sw.add_argument("--set", action="append", required=True, metavar="KEY=V1,V2,...")
    sw.add_argument("--out")
    sw.set_defaults(func=cmd_sweep)

    gsp = sub.add_parser("ground-state", help="compute a standing-wave profile")
    gsp.add_argument("--model", default="free")
    gsp.add_argument("--gamma", type=float, default=0.0)
    gsp.add_argument("--mu", type=float, default=0.5)
    gsp.add_argument("--omega", type=float, default=1.0)
    gsp.add_argument("--tol", type=float, default=1e-8)
    gsp.add_argument("--out")
    gsp.set_defaults(func=cmd_ground_state)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BADARGS if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADARGS


if __name__ == "__main__":
    sys.exit(main())
