import csv
import dataclasses
import functools
import hashlib
import importlib.metadata
import io
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

import viriallab
from viriallab import cli
from viriallab import evolve as ev
from viriallab import functionals as fn
from viriallab import soliton as sol
from viriallab import virial_analysis as va
from viriallab import weight as w
from viriallab.field import field_from_grid, tail_mass


def quick_scenario(tmp_path, name="quick", lam=1.0, T=0.05, model=None):
    sc = {
        "name": name,
        "model": model or {"variant": "free"},
        "initial_data": {"kind": "scaled_soliton", "lam": lam, "omega": 1.0},
        "grid": {"kind": "line", "L": 16.0, "N": 1024},
        "solver": {
            "dt_init": 1e-3, "dt_max": 1e-3, "phase_tol": 1e-3,
            "T_end": T, "snapshot_stride": 10,
        },
        "analysis": {"R": 8.0},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(sc))
    return path


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("VIRIALLAB_OUT", str(tmp_path / "out"))
    return tmp_path


def same_run(a, b) -> bool:
    """Two simulate directories hold the same run: equal bytes in snapshots.npy
    and series.csv, and summary.json equal apart from the scenario hash."""
    if any((a / f).read_bytes() != (b / f).read_bytes() for f in ("snapshots.npy", "series.csv")):
        return False
    sa, sb = (json.loads((d / "summary.json").read_text()) for d in (a, b))
    for s in (sa, sb):
        del s["provenance"]["scenario_sha256"]
    return sa == sb


class TestWeightCheck:
    def test_default_passes(self, capsys):
        assert cli.main(["weight-check", "--samples", "2000"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"]

    def test_too_few_samples(self):
        assert cli.main(["weight-check", "--samples", "100"]) == 2

    def test_corrupted_profile_fails(self, monkeypatch, capsys):
        # a cutoff with a zero tail, put where chi_R and eta read theirs
        bad = dataclasses.replace(w.default_profile(), tail_coeffs=np.zeros(6))
        monkeypatch.setattr(w, "default_profile", lambda: bad)
        assert cli.main(["weight-check", "--samples", "2000"]) == 1
        assert "knot_continuity" in capsys.readouterr().err

    def test_report_file_keys_and_types(self, tmp_path):
        out = tmp_path / "wc.json"
        assert cli.main(["weight-check", "--samples", "2000", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert list(rep) == ["passed", "checks"] and rep["passed"] is True
        assert rep["checks"] and all(
            list(c) == ["name", "passed", "margin", "location"]
            and type(c["name"]) is str and type(c["passed"]) is bool
            and type(c["margin"]) is float and type(c["location"]) is float
            for c in rep["checks"]
        )


class TestSimulate:
    def test_quick_run_completes(self, tmp_path):
        p = quick_scenario(tmp_path)
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "series.csv").exists()
        assert (tmp_path / "run" / "summary.json").exists()

    def test_summary_records_provenance(self, tmp_path):
        p = quick_scenario(tmp_path)
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "run")]) == 0
        prov = json.loads((tmp_path / "run" / "summary.json").read_text())["provenance"]
        assert prov == {
            "viriallab": viriallab.__version__, "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "python": platform.python_version(),
            "scenario_sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
        }

    def test_load_without_provenance(self, tmp_path):
        # a directory written before provenance was recorded loads as before
        p = quick_scenario(tmp_path)
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "run")]) == 0
        summary_path = tmp_path / "run" / "summary.json"
        ref = ev.load_trajectory(tmp_path / "run")
        summary = json.loads(summary_path.read_text())
        del summary["provenance"]
        summary_path.write_text(json.dumps(summary, indent=2))
        old = ev.load_trajectory(tmp_path / "run")
        assert old.verdict == ref.verdict and old.steps == ref.steps
        assert np.array_equal(old.times, ref.times)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(old.snapshots, ref.snapshots))

    def test_blowup_exit_code(self, tmp_path):
        p = quick_scenario(tmp_path, name="blow", lam=1.3, T=2.0)
        code = cli.main(["simulate", str(p), "--out", str(tmp_path / "blow")])
        assert code == 10

    @pytest.mark.parametrize("analysis, column", [
        (None, None), ({}, None), ({"R": "auto"}, None), ({"R": 0}, "tail_mass@0"),
        ({"R": 8}, "tail_mass@8"), ({"R": 2.5}, "tail_mass@2.5"),
    ])
    def test_analysis_R_accepted(self, tmp_path, analysis, column):
        # absent, "auto" or a finite number >= 0; a number adds the tail mass
        # of |x| >= R as the last series column
        sc = json.loads(quick_scenario(tmp_path).read_text())
        if analysis is None:
            del sc["analysis"]
        else:
            sc["analysis"] = analysis
        p = tmp_path / "r.json"
        p.write_text(json.dumps(sc))
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "run")]) == 0
        head = (tmp_path / "run" / "series.csv").read_text().splitlines()[0].split(",")
        assert head[:4] == ["t", "mass", "energy", "grad_norm"]
        assert head[4:] == ([column] if column else [])

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli.main(["simulate", str(p)]) == 2

    def test_missing_field(self, tmp_path):
        p = tmp_path / "incomplete.json"
        p.write_text(json.dumps({"name": "x"}))
        assert cli.main(["simulate", str(p)]) == 2
        edits = [
            lambda sc: sc["initial_data"].pop("lam"),
            lambda sc: sc.update(initial_data=5),
            lambda sc: sc.update(solver=[1]),
            lambda sc: sc["model"].pop("variant"),
            lambda sc: sc.update(initial_data={"kind": "file", "path": str(tmp_path / "no.npy")}),
            lambda sc: sc["solver"].update(T_end=float("nan")),
            lambda sc: sc["solver"].update(snapshot_stride=2.5),
            lambda sc: sc["grid"].update(L=float("nan")),
            lambda sc: sc.update(grid={"kind": "graph", "J": 3, "Ledge": float("nan"), "M": 99}),
            lambda sc: sc["grid"].update(kind="torus"),
            lambda sc: sc.update(model={"variant": "delta", "gamma": float("nan")}),
            lambda sc: sc.update(
                model={"variant": "graph", "vertex": {"kind": "dirac_delta", "gamma": float("inf")}},
                grid={"kind": "graph", "J": 3, "Ledge": 16.0, "M": 99},
            ),
            # models that do not fit their grid
            lambda sc: sc.update(
                model={"variant": "delta", "gamma": 1.0}, grid={**sc["grid"], "stagger": True}
            ),
            lambda sc: sc.update(model={"variant": "graph", "vertex": {"kind": "kirchhoff"}}),
            lambda sc: sc.update(grid={"kind": "graph", "J": 3, "Ledge": 16.0, "M": 99}),
            lambda sc: sc.update(model={"variant": "inverse_power", "gamma": 1.0, "mu": 0.5}),
            # rejected before the solve (a NaN tol used to run every Newton iteration)
            lambda sc: sc.update(initial_data={"kind": "ground_state", "tol": float("nan")}),
        ]
        for i, edit in enumerate(edits):
            sc = json.loads(quick_scenario(tmp_path).read_text())
            edit(sc)
            p = tmp_path / f"broken{i}.json"
            p.write_text(json.dumps(sc))  # NaN is written as the JSON extension NaN
            assert cli.main(["simulate", str(p)]) == 2, sc

    def test_spectral_grid_not_power_of_two_rejected_before_solving(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(ev, "run", lambda *a: pytest.fail("solved before rejecting"))
        sc = cli.load_scenario(cli.bundled_scenario_path("free_blowup"))
        sc["grid"]["N"] = 1000
        p = tmp_path / "n1000.json"
        p.write_text(json.dumps(sc))
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "error: bad scenario: ValueError: spectral derivative needs N a power of two" in err
        assert not (tmp_path / "run").exists()

    def test_vertex_layout_must_match_model(self, tmp_path, capsys):
        # a delta' vertex holds one value per edge, which the default shared
        # grid cannot store
        sc = json.loads(quick_scenario(tmp_path, T=0.02).read_text())
        sc["model"] = {"variant": "graph", "vertex": {"kind": "delta_prime", "gamma": 2.0}}
        sc["initial_data"] = {"kind": "gaussian", "a": 0.5, "center": 2.0}
        sc["grid"] = {"kind": "graph", "J": 3, "Ledge": 10.0, "M": 100}
        p = tmp_path / "dprime.json"
        p.write_text(json.dumps(sc))
        assert cli.main(["simulate", str(p)]) == 2
        assert '"shared_vertex": false' in capsys.readouterr().err
        sc["grid"]["shared_vertex"] = False
        p.write_text(json.dumps(sc))
        assert cli.main(["simulate", str(p)]) == 0

    def test_ground_state_profile_as_file_data(self, tmp_path):
        # profile.npy of `ground-state` fed back as initial data runs bit for
        # bit as the same profile computed in memory
        gs = tmp_path / "gs"
        assert cli.main(["ground-state", "--model", "delta", "--gamma", "1", "--out", str(gs)]) == 0
        rec = json.loads((gs / "record.json").read_text())
        assert rec["grid"] == {"kind": "line", "L": 16.0, "N": 4096, "stagger": False}
        sc = json.loads(quick_scenario(tmp_path, T=0.01).read_text())
        sc.update(model={"variant": "delta", "gamma": 1.0}, grid=rec["grid"])
        runs = {
            "file": {"kind": "file", "path": str(gs / "profile.npy")},
            "memory": {"kind": "ground_state"},
        }
        for name, data in runs.items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(sc | {"initial_data": data}))
            assert cli.main(["simulate", str(p), "--out", str(tmp_path / name)]) == 0
        assert same_run(tmp_path / "file", tmp_path / "memory")

    def test_graph_file_data_roundtrip(self, tmp_path):
        # graph samples, (J, M+1) with the vertex first, through np.save and
        # back as initial data
        sc = json.loads(quick_scenario(tmp_path, T=0.01).read_text())
        sc.update(
            model={"variant": "graph", "vertex": {"kind": "dirac_delta", "gamma": 1.0}},
            initial_data={"kind": "gaussian", "a": 0.8, "center": 1.0},
            grid={"kind": "graph", "J": 3, "Ledge": 10.0, "M": 100},
        )
        u0 = cli._scenario_pieces(sc)[2]
        np.save(tmp_path / "u0.npy", u0.values)
        for name, data in [("gauss", sc["initial_data"]),
                           ("file", {"kind": "file", "path": str(tmp_path / "u0.npy")})]:
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(sc | {"initial_data": data}))
            assert cli.main(["simulate", str(p), "--out", str(tmp_path / name)]) == 0
        first = np.load(tmp_path / "file" / "snapshots.npy", allow_pickle=False)
        assert first.shape[1:] == (3, 101)
        assert same_run(tmp_path / "file", tmp_path / "gauss")

    def test_graph_file_data_nonzero_far_node(self, tmp_path, capsys):
        # the first Cayley step would drop a value at a Dirichlet far node
        # (x = Ledge), so the loader rejects it
        sc = json.loads(quick_scenario(tmp_path, T=0.01).read_text())
        sc.update(
            model={"variant": "graph", "vertex": {"kind": "kirchhoff"}},
            grid={"kind": "graph", "J": 3, "Ledge": 10.0, "M": 100},
            initial_data={"kind": "file", "path": str(tmp_path / "u0.npy")},
        )
        u = np.exp(-np.linspace(0.0, 4.0, 101) ** 2) * np.ones((3, 1))
        u[:, -1] = 0.0
        u[1, -1] = 0.5
        np.save(tmp_path / "u0.npy", u.astype(complex))
        p = tmp_path / "far.json"
        p.write_text(json.dumps(sc))
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "far")]) == 2
        assert "nonzero value at a Dirichlet far node" in capsys.readouterr().err
        assert not (tmp_path / "far").exists()
        u[1, -1] = 0.0
        np.save(tmp_path / "u0.npy", u.astype(complex))
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "far")]) == 0

    def test_profile_on_other_grid_rejected(self, tmp_path, capsys):
        # a staggered profile on an unstaggered grid of the same shape would
        # shift every sample by h/2; the record.json beside it names its grid
        gs = tmp_path / "gs"
        args = ["ground-state", "--model", "inverse_power", "--gamma", "-0.5", "--out", str(gs)]
        assert cli.main(args) == 0
        sc = json.loads(quick_scenario(tmp_path, T=0.01).read_text())
        sc["initial_data"] = {"kind": "file", "path": str(gs / "profile.npy")}
        for stagger, code in [(False, 2), (True, 0)]:
            sc["grid"] = {"kind": "line", "L": 16.0, "N": 4096, "stagger": stagger}
            p = tmp_path / f"stagger_{stagger}.json"
            p.write_text(json.dumps(sc))
            assert cli.main(["simulate", str(p), "--out", str(tmp_path / p.stem)]) == code
        assert "record.json names grid" in capsys.readouterr().err
        assert not (tmp_path / "stagger_False").exists()

    def test_grid_check_reads_only_profile_record(self, tmp_path):
        # the record names the grid of profile.npy alone: another .npy beside
        # it, or a record written before grids were recorded, is checked by
        # shape only
        gs = tmp_path / "gs"
        args = ["ground-state", "--model", "inverse_power", "--gamma", "-0.5", "--out", str(gs)]
        assert cli.main(args) == 0
        np.save(gs / "restart.npy", np.load(gs / "profile.npy"))
        sc = json.loads(quick_scenario(tmp_path, T=0.01).read_text())
        sc["grid"] = {"kind": "line", "L": 16.0, "N": 4096, "stagger": False}
        sc["initial_data"] = {"kind": "file", "path": str(gs / "restart.npy")}
        p = tmp_path / "restart.json"
        p.write_text(json.dumps(sc))
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "restart")]) == 0
        record = json.loads((gs / "record.json").read_text())
        del record["grid"]
        (gs / "record.json").write_text(json.dumps(record))
        sc["initial_data"]["path"] = str(gs / "profile.npy")
        p.write_text(json.dumps(sc))
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "old_record")]) == 0

    @pytest.mark.parametrize("write", [
        lambda p, u: np.save(p, u[::2]),
        lambda p, u: np.save(p, u.reshape(2, -1)),
        lambda p, u: (np.save(p, u), p.write_bytes(p.read_bytes()[:-16])),
        lambda p, u: p.write_bytes(b""),
        lambda p, u: p.write_text("x,re,im\r\n0,1,0\r\n"),
        lambda p, u: np.save(p, np.array([u, None], dtype=object), allow_pickle=True),
    ], ids=["wrong_shape", "graph_shape", "truncated_file", "empty_file", "not_npy",
            "pickled_object"])
    def test_bad_file_data(self, tmp_path, capsys, write):
        sc = json.loads(quick_scenario(tmp_path).read_text())
        u = np.exp(-np.linspace(-4.0, 4.0, 1024) ** 2).astype(complex)
        write(tmp_path / "u0.npy", u)
        sc["initial_data"] = {"kind": "file", "path": str(tmp_path / "u0.npy")}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(sc))
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "bad")]) == 2
        assert "error: bad scenario: " in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_bundled_scenarios_roundtrip(self):
        names = [
            "free_soliton", "free_blowup", "free_control", "free_gaussian",
            "invpow_blowup", "invpow_gaussian", "delta_blowup", "delta_gaussian",
            "graph_blowup", "graph_gaussian",
        ]
        for name in names:
            path = cli.bundled_scenario_path(name)
            sc = cli.load_scenario(path)
            again = json.loads(json.dumps(sc))
            assert again == sc


class TestVirialReport:
    def run_quick(self, tmp_path, out=None):
        sc = {
            "name": "smooth",
            "model": {"variant": "free"},
            "initial_data": {"kind": "gaussian", "a": 1.0, "sigma": 1.0},
            "grid": {"kind": "line", "L": 20.0, "N": 4096},
            "solver": {
                "dt_init": 1e-3, "dt_max": 1e-3, "phase_tol": 1e6,
                "T_end": 0.05, "snapshot_stride": 10,
            },
            "analysis": {"R": 8.0},
        }
        p = tmp_path / "smooth.json"
        p.write_text(json.dumps(sc))
        out = out or tmp_path / "smooth_run"
        assert cli.main(["simulate", str(p), "--out", str(out)]) == 0
        return out

    def test_smooth_run_passes(self, tmp_path):
        out = self.run_quick(tmp_path)
        assert cli.main(["virial-report", str(out), "--R", "8.0"]) == 0
        assert (out / "virial_report.csv").exists()
        summary = json.loads((out / "virial_summary.json").read_text())
        assert summary["max_residual"] < 1e-2
        assert summary["violations"] == 0

    @pytest.mark.parametrize("R", [8.0, 0.1])
    def test_report_bytes_match_csv_writer(self, tmp_path, R):
        # R = 0.1 leaves the snapshots unchecked, so both flag values appear
        out = self.run_quick(tmp_path)
        cli.main(["virial-report", str(out), "--R", str(R)])
        traj = ev.load_trajectory(out)
        rep = va.report(traj, R, traj.model)
        # byte reference: the row-by-row csv.writer form of virial_report.csv
        ref = io.StringIO(newline="")
        wr = csv.writer(ref)
        wr.writerow(["t", "I", "Iprime_formula", "Isecond_fd", "rhs", "residual",
                     "tail_mass", "checked", "satisfied"])
        for i, t in enumerate(rep.times):
            row = [t, rep.I[i], rep.Iprime_formula[i], rep.Isecond_fd[i], rep.rhs_formula[i],
                   rep.residual[i], tail_mass(traj.snapshots[1 + i], R)]
            wr.writerow([f"{float(v):.17g}" for v in row]
                        + [int(rep.ineq_checked[i]), int(rep.ineq_satisfied[i])])
        assert (out / "virial_report.csv").read_bytes() == ref.getvalue().encode()
        assert np.any(rep.ineq_checked) != (R == 0.1)

    def test_envelope_root_from_t0(self, tmp_path):
        # the envelope starts from I and I' of snapshot 0, at t = 0, and not
        # from the first interior snapshot of the report
        sc = json.loads(cli.bundled_scenario_path("free_blowup").read_text())
        sc["solver"].update(phase_tol=1e6, T_end=0.05, snapshot_stride=10)
        p = tmp_path / "fb.json"
        p.write_text(json.dumps(sc))
        out = tmp_path / "fb"
        assert cli.main(["simulate", str(p), "--out", str(out)]) == 0
        cli.main(["virial-report", str(out), "--R", "auto"])
        summary = json.loads((out / "virial_summary.json").read_text())
        traj = ev.load_trajectory(out)
        u0, R = traj.snapshots[0], summary["R"]
        root = va.envelope(
            fn.virial_I(u0, R), fn.virial_I_prime(u0, R, traj.model), summary["eta_tilde"]
        )
        assert summary["envelope_root"] == root

    def test_adaptive_blowup_run_reported(self, tmp_path):
        # after the first step, free_blowup's steps are rate-limited onto dt
        # rungs below dt_max, so its snapshots are unevenly spaced; the report
        # takes them and writes the envelope root
        sc = json.loads(cli.bundled_scenario_path("free_blowup").read_text())
        sc["solver"].update(T_end=0.1, snapshot_stride=20)
        p = tmp_path / "fb.json"
        p.write_text(json.dumps(sc))
        out = tmp_path / "fb"
        assert cli.main(["simulate", str(p), "--out", str(out)]) == 0
        h = np.diff(ev.load_trajectory(out).times)
        assert np.max(h[:-1]) / np.min(h[:-1]) > 1.05  # uneven, the last spacing aside
        assert cli.main(["virial-report", str(out), "--R", "auto"]) == 0
        summary = json.loads((out / "virial_summary.json").read_text())
        assert summary["violations"] == 0 and summary["max_residual"] < 1e-2
        assert summary["envelope_root"] > 0.1

    def test_auto_R_rejects_ground_state(self, tmp_path, capsys):
        # free_soliton is the ground state, E = 0, which computes to -2.2e-14:
        # negative only by rounding, so no R is selected and nothing is written
        sc = json.loads(cli.bundled_scenario_path("free_soliton").read_text())
        sc["solver"].update(T_end=0.05, snapshot_stride=10)
        p = tmp_path / "fs.json"
        p.write_text(json.dumps(sc))
        out = tmp_path / "fs"
        assert cli.main(["simulate", str(p), "--out", str(out)]) == 0
        assert cli.main(["virial-report", str(out), "--R", "auto"]) == 2
        assert "beyond rounding" in capsys.readouterr().err
        assert not (out / "virial_summary.json").exists()

    def test_bad_R(self, tmp_path):
        out = self.run_quick(tmp_path)
        assert cli.main(["virial-report", str(out), "--R", "-1"]) == 2
        assert cli.main(["virial-report", str(out), "--R", "inf"]) == 2
        assert not (out / "virial_summary.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_bad_tol(self, tmp_path, tol):
        # rejected before the trajectory is read, so nothing is written
        out = self.run_quick(tmp_path)
        assert cli.main(["virial-report", str(out), "--R", "8", "--tol", tol]) == 2
        assert not (out / "virial_summary.json").exists()
        assert not (out / "virial_report.csv").exists()

    def test_relative_trajectory_under_output_root(self, tmp_path, monkeypatch):
        # the README workflow with relative paths: virial-report finds what
        # simulate wrote under $VIRIALLAB_OUT, not under the working directory
        monkeypatch.chdir(tmp_path)
        self.run_quick(tmp_path, out="rel_run")
        assert cli.main(["virial-report", "rel_run", "--R", "8"]) == 0
        assert (tmp_path / "out" / "rel_run" / "virial_summary.json").exists()

    def test_out_under_output_root(self, tmp_path):
        # a relative --out names a directory under $VIRIALLAB_OUT, which gets
        # both report files; the trajectory directory gets neither
        out = self.run_quick(tmp_path)
        assert cli.main(["virial-report", str(out), "--R", "8", "--out", "rep"]) == 0
        files = ["virial_report.csv", "virial_summary.json"]
        assert sorted(f.name for f in (tmp_path / "out" / "rep").iterdir()) == files
        assert not any((out / f).exists() for f in files)

    def test_missing_trajectory(self, tmp_path):
        assert cli.main(["virial-report", str(tmp_path / "nothing")]) == 2

    @pytest.mark.parametrize("damage", [
        lambda out: (out / "snapshots.npy").unlink(),
        lambda out: (out / "snapshots.npy").write_bytes((out / "snapshots.npy").read_bytes()[:-16]),
        lambda out: np.save(out / "snapshots.npy", np.load(out / "snapshots.npy")[:, ::2]),
        lambda out: (out / "series.csv").write_text(
            "".join((out / "series.csv").read_text().splitlines(keepends=True)[:-1])
        ),
        lambda out: (out / "summary.json").write_text("{"),
    ], ids=["missing_file", "truncated_file", "wrong_shape", "count_mismatch", "bad_summary"])
    def test_unloadable_trajectory(self, tmp_path, capsys, damage):
        out = self.run_quick(tmp_path)
        damage(out)
        assert cli.main(["virial-report", str(out), "--R", "8.0"]) == 2
        assert f"error: cannot load trajectory at {out}: " in capsys.readouterr().err

    def test_auto_R_evaluates_invariants_once(self, tmp_path, monkeypatch, capsys):
        p = quick_scenario(tmp_path, name="neg", lam=1.3, T=0.05)
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "neg")]) == 0
        calls = []
        energy = va.energy
        monkeypatch.setattr(va, "energy", lambda *a: calls.append(1) or energy(*a))
        cli.main(["virial-report", str(tmp_path / "neg"), "--R", "auto"])
        assert len(calls) == 1
        assert "selected R = " in capsys.readouterr().out


FREE_BLOWUP = str(cli.bundled_scenario_path("free_blowup"))


class TestSweep:
    @pytest.mark.parametrize("name", ["free_gaussian", "graph_gaussian"])
    def test_key_not_in_scenario_rejected(self, tmp_path, capsys, name):
        # gaussian data has no initial_data.lam to set
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", str(cli.bundled_scenario_path(name)), "--set", "initial_data.lam=0.9,1.2",
            "--out", str(out),
        ]) == 2
        assert "error: --set 'initial_data.lam=0.9,1.2': need KEY=" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_initial_data_rejected(self, tmp_path, capsys):
        sc = json.loads(quick_scenario(tmp_path).read_text())
        sc["initial_data"] = 5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(sc))
        assert cli.main(["sweep", str(p), "--set", "initial_data.lam=0.9,1.2"]) == 2
        assert "error: scenario field 'initial_data' is not an object" in capsys.readouterr().err

    def test_bad_last_point_rejected_before_solving(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ev, "run", lambda *a: pytest.fail("solved before rejecting"))
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", FREE_BLOWUP, "--set", "initial_data.lam=0.9,1.3",
            "--set", "solver.T_end=0.4,-1", "--out", str(out),
        ]) == 2
        assert "T_end must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_product_order_and_columns(self, tmp_path):
        path, out = quick_scenario(tmp_path, T=0.01), tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", str(path), "--set", "initial_data.lam=0.9,1.1", "--set", "grid.N=256,512",
            "--out", str(out),
        ]) == 0
        rows = [r.split(",") for r in out.read_bytes().decode().split("\r\n")[:-1]]
        assert rows[0] == (
            "initial_data.lam,grid.N,energy,verdict,t_detect,steps,dt_levels".split(",")
        )
        assert [r[:2] for r in rows[1:]] == [
            ["0.9", "256"], ["0.9", "512"], ["1.1", "256"], ["1.1", "512"],
        ]
        # the last point's row is that point's own run
        sc = cli.load_scenario(path)
        sc["initial_data"]["lam"], sc["grid"]["N"] = 1.1, 512
        model, cfg, u0 = cli._scenario_pieces(sc)
        traj = ev.run(u0, model, cfg)
        assert rows[-1][2:] == [
            ev._fmt(fn.energy(u0, model)), traj.verdict.status, "", str(traj.steps),
            str(traj.dt_levels),
        ]

    def test_sweep_and_determinism(self, tmp_path):
        args = [
            "sweep", FREE_BLOWUP, "--set", "initial_data.lam=0.9,1.3", "--set", "solver.T_end=0.4",
            "--out", str(tmp_path / "sweep1.csv"),
        ]
        assert cli.main(args) == 0
        args2 = args[:-1] + [str(tmp_path / "sweep2.csv")]
        assert cli.main(args2) == 0
        assert (tmp_path / "sweep1.csv").read_bytes() == (tmp_path / "sweep2.csv").read_bytes()
        rows = (tmp_path / "sweep1.csv").read_text().strip().splitlines()
        assert rows[0] == "initial_data.lam,solver.T_end,energy,verdict,t_detect,steps,dt_levels"
        lam13 = rows[-1].split(",")
        assert lam13[:2] == ["1.3", "0.4"]
        assert float(lam13[2]) < 0  # negative energy at lambda = 1.3
        assert lam13[3] == "blowup_detected"


class TestGroundState:
    def test_free(self, tmp_path):
        out = tmp_path / "gs"
        assert cli.main(["ground-state", "--model", "free", "--out", str(out)]) == 0
        rec = json.loads((out / "record.json").read_text())
        assert rec["converged"]
        assert rec["mass"] == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, rel=1e-3)

    @pytest.mark.parametrize("argv", [
        "--model delta", "--model inverse_power --gamma -0.5",
    ])
    def test_profile_npy(self, tmp_path, argv):
        # the samples in the grid's shape, loadable without pickles, and the
        # grid they live on in record.json
        out = tmp_path / "gs"
        assert cli.main(["ground-state", *argv.split(), "--out", str(out)]) == 0
        prof = np.load(out / "profile.npy", allow_pickle=False)
        rec = json.loads((out / "record.json").read_text())
        assert prof.dtype == complex and prof.shape == (4096,)
        template = field_from_grid(rec["grid"])
        assert template.grid_spec()["stagger"] == ("inverse_power" in argv)
        assert fn.mass(template.with_values(prof)) == rec["mass"]
        assert not (out / "profile.csv").exists()

    def test_delta_jump_recorded(self, tmp_path):
        out = tmp_path / "gsd"
        code = cli.main([
            "ground-state", "--model", "delta", "--gamma", "1.0", "--out", str(out),
        ])
        assert code == 0
        rec = json.loads((out / "record.json").read_text())
        assert rec["vertex_jump"] == pytest.approx(rec["gamma_phi0"], rel=0.02)

    def test_zero_tol_rejected(self):
        assert cli.main(["ground-state", "--tol", "0"]) == 2

    def test_not_converged_reported(self, tmp_path, monkeypatch, capsys):
        def stalled(model, template, omega, tol):
            return sol.GroundState(
                field=template.sampled(lambda x: np.exp(-(x**2))), omega=omega,
                residual=0.125, iterations=7, converged=False,
            )

        monkeypatch.setattr(sol, "ground_state_flow", stalled)
        out = tmp_path / "gs"
        assert cli.main(["ground-state", "--model", "free", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "residual 0.125" in err[0] and "7 iterations" in err[0]
        assert json.loads((out / "record.json").read_text())["converged"] is False


@pytest.mark.parametrize("argv", [
    "ground-state --omega -1",
    "ground-state --model inverse_power --gamma -0.5 --mu 1.5",
    "ground-state --model inverse_power --gamma -0.5 --omega 0",
    "ground-state --omega nan",
    "ground-state --omega inf",
    "ground-state --tol nan",
    "ground-state --model graph",
    "sweep --set initial_data.lam=0.9,0",
    "sweep --set initial_data.lam=1,Infinity",
    "sweep --set initial_data.lam=0.9 --set solver.T_end=-1",
    "sweep --set initial_data.lam=0.9 --set solver.T_end=NaN",
    "sweep --set initial_data.lam",
    "sweep --set initial_data.lam=",
    "sweep --set initial_data.lam=0.9,,1.3",
    "sweep --set initial_data.lam=0.9,x",
    "sweep --set initial_data.lam=0.9 --set initial_data.lam=1.3",
    "sweep --set solver.phase_tl=0.01",
    "sweep --set initial_data=5",
    "sweep --set grid.N.x=1",
    "sweep --set grid.N=1000",
    "sweep invpow_gaussian --set grid.N=1000",
    "sweep --set grid.N=4096.5",
    "sweep invpow_gaussian --set grid.stagger=\"false\"",
    "sweep graph_gaussian --set grid.M=1600.0",
    "sweep",
    "simulate free_gaussian analysis.R=-1",
    "simulate free_gaussian analysis.R=NaN",
    "simulate free_gaussian analysis.R=Infinity",
    "simulate free_gaussian analysis.R=true",
    "simulate free_gaussian analysis.R=\"8\"",
    "simulate free_gaussian analysis=[]",
    "simulate free_gaussian analysis=null",
    "simulate free_gaussian analysis=8",
    "simulate graph_gaussian grid.shared_vertex=\"true\"",
    "simulate free_gaussian model.nonlinearity_on=\"false\"",
    "simulate delta_gaussian model.gama=1.0",
    "simulate delta_gaussian model.gamma=\"1.0\"",
    "simulate invpow_gaussian model.mu=\"0.5\"",
    "simulate graph_gaussian model.vertex.gama=1.0",
    "simulate free_gaussian initial_data.a=\"1.5\"",
    "simulate free_gaussian initial_data.a=true",
    "simulate free_gaussian initial_data.sigm=2.0",
    "simulate free_soliton initial_data.lam=\"1.0\"",
    "simulate free_gaussian solver.phase_tol=true",
    "simulate free_gaussian solver.T_end=true",
    "sweep free_gaussian --set initial_data.a=\"1.5\"",
    "weight-check --profile x.json",
])
def test_bad_arguments_exit_2_before_solving(argv, tmp_path, monkeypatch):
    # sweep runs a valid bundled scenario, free_blowup unless the row names
    # another, and simulate a copy of the named scenario with the one KEY=JSON
    # set, so only the bad option or entry can exit 2
    args = argv.split()
    if args[0] == "sweep":
        name = args.pop(1) if args[1:2] and not args[1].startswith("--") else "free_blowup"
        args.insert(1, str(cli.bundled_scenario_path(name)))
    if args[0] == "simulate":
        key, _, text = args.pop(2).partition("=")
        *path, leaf = key.split(".")
        sc = json.loads(cli.bundled_scenario_path(args[1]).read_text())
        functools.reduce(dict.__getitem__, path, sc)[leaf] = json.loads(text)
        args[1] = str(tmp_path / "bad.json")
        pathlib.Path(args[1]).write_text(json.dumps(sc))
    monkeypatch.setattr(ev, "run", lambda *a: pytest.fail("solved before rejecting"))
    assert cli.main(args) == 2
    assert not (tmp_path / "out").exists()  # nothing written under VIRIALLAB_OUT


# Run in a fresh interpreter: the split path (free and inverse-power lines),
# trajectory I/O, the virial analysis and `simulate free_gaussian` import no
# scipy; a delta-line run, which factors a sparse matrix, does.
SCIPY_BOUNDARY = r"""
import json, sys
import viriallab, viriallab.cli
from viriallab import cli, evolve as ev, virial_analysis as va, weight

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out, seen = sys.argv[1], {}
for name, N in (("free_blowup", 1024), ("invpow_blowup", 8192)):
    sc = cli.load_scenario(cli.bundled_scenario_path(name))
    sc["grid"]["N"] = N
    sc["solver"].update(T_end=0.02, snapshot_stride=5)
    model, cfg, u0 = cli._scenario_pieces(sc)
    ev.save_trajectory(ev.run(u0, model, cfg), f"{out}/{name}")
    traj = ev.load_trajectory(f"{out}/{name}")
    R = va.find_R(traj.snapshots[0], model)[0]
    E, m = float(traj.energy_series[0]), float(traj.mass_series[0])
    va.inequality_flags(traj.snapshots, R, model, E, weight.eta(R, m))
    va.report(traj, R, model)
    seen[name] = scipy_modules()
code = cli.main(["simulate", str(cli.bundled_scenario_path("free_gaussian")), "--out", f"{out}/fg"])
seen["simulate free_gaussian"] = scipy_modules() if code == 0 else ["exit", code]
sc = cli.load_scenario(cli.bundled_scenario_path("delta_gaussian"))
sc["grid"]["N"] = 512
sc["solver"]["T_end"] = 0.01
model, cfg, u0 = cli._scenario_pieces(sc)
ev.run(u0, model, cfg)
seen["delta"] = scipy_modules()
print(json.dumps(seen))
"""


def test_scipy_loaded_only_where_a_sparse_matrix_is_built(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(viriallab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BOUNDARY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    for step in ("free_blowup", "invpow_blowup", "simulate free_gaussian"):
        assert seen[step] == [], step
    assert "scipy.sparse.linalg" in seen["delta"]
