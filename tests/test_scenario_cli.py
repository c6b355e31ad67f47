import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import heisgame.cli as cli
from heisgame.cli import main
from heisgame.game import solve_bytes
from heisgame.grids import read_value_grid
from heisgame.scenario import ScenarioError, load_scenario, parse_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

SMALL = {
    "schema": 1,
    "kind": "hji",
    "horizon": 1.0,
    "hamiltonian": {"name": "norm"},
    "initial": {"name": "gauge"},
    "grid": {"box": [[-4, 4], [-4, 4], [-8, 8]], "counts": [17, 17, 33]},
    "time_steps": 8,
    "lattice": {"rings": 2, "base_angles": 8},
    "seed": 0,
    "verify": {
        "group_samples": 2000,
        "flow_controls": 50,
        "reach_instances": 200,
        "translation_instances": 200,
        "shift_instances": 50,
        "convexity_directions": 16,
        "dpp_probes": 24,
        "identity_probes": 200,
        "isaacs_probes": 100,
        "random_pairs": 4000,
        "oracle_nodes": 6,
        "oracle_counts": [33, 33, 65],
    },
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestScenarioParsing:
    def test_shipped_scenarios_parse(self):
        for path in SCENARIOS.glob("*.json"):
            sc = load_scenario(path)
            assert sc.horizon == 1.0

    def test_canonical_derived_constants(self):
        sc = load_scenario(SCENARIOS / "canonical.json")
        assert sc.kind == "hji"
        assert sc.game.r_y == pytest.approx(6.594885, abs=1e-6)
        assert sc.game.r_z == 1.0
        assert sc.meta["constants"]["k"] == 1.0

    def test_negative_horizon_names_field(self):
        data = dict(SMALL, horizon=-1.0)
        with pytest.raises(ScenarioError, match="horizon.*T must be positive"):
            parse_scenario(data)

    def test_missing_and_invalid_fields(self):
        with pytest.raises(ScenarioError, match="schema"):
            parse_scenario({})
        with pytest.raises(ScenarioError, match="kind"):
            parse_scenario({"schema": 1, "kind": "nope"})
        bad = dict(SMALL, grid={"box": [[0, 1], [0, 1], [0, 1]], "counts": [1, 5, 5]})
        with pytest.raises(ScenarioError, match="counts"):
            parse_scenario(bad)
        bad = dict(SMALL, lattice={"rings": 0})
        with pytest.raises(ScenarioError, match="rings"):
            parse_scenario(bad)
        bad = dict(SMALL, hamiltonian={"name": "mystery"})
        with pytest.raises(ScenarioError, match="hamiltonian"):
            parse_scenario(bad)

    def test_constant_overrides(self):
        data = dict(SMALL, constants={"c2p": 0.5})
        sc = parse_scenario(data)
        assert sc.game.c2p == 0.5

    def test_grid_defaults(self):
        data = dict(SMALL)
        data.pop("grid")
        sc = parse_scenario(data)
        assert sc.counts == (33, 33, 65)
        assert np.allclose(sc.box.lo, (-4, -4, -8))
        assert np.allclose(sc.box.hi, (4, 4, 8))

    def test_game_kind(self):
        sc = load_scenario(SCENARIOS / "coupling-game.json")
        assert sc.kind == "game"
        assert sc.game.r_y == 2.0
        assert sc.game.c1 == pytest.approx(2.0 * 1.0 + 2.0)
        assert sc.problem is None


class TestSolveCommand:
    def small_scenario(self, tmp_path, counts=(9, 9, 17), steps=2, rings=1):
        data = dict(SMALL, grid={"box": SMALL["grid"]["box"], "counts": list(counts)},
                    time_steps=steps, lattice={"rings": rings, "base_angles": 8})
        return write_scenario(tmp_path, data)

    def test_solve_writes_artifacts(self, tmp_path):
        path = self.small_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "run.log").exists()
        assert (out / "valuegrid.json").exists()
        assert (out / "slice_000.csv").exists()
        assert (out / "slice_000.bin").exists()
        vg = read_value_grid(out)
        assert vg.data.shape == (3, 9, 9, 17)

    def test_manifest_constants_agree(self, tmp_path):
        path = self.small_scenario(tmp_path)
        out = tmp_path / "out"
        main(["solve", str(path), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        dc = manifest["derived_constants"]
        assert dc["r_y"]["value"] == pytest.approx(6.594885, abs=1e-6)
        assert dc["c_sharp"]["value"] == pytest.approx(6.594885, abs=1e-6)
        assert dc["c_sharp"]["value"] == pytest.approx(dc["r_y"]["value"], rel=1e-12)
        assert "exp(T*K/2)" in dc["r_y"]["formula"]
        assert manifest["covering"]["y"]["points"] == 9
        assert "trusted_region" in manifest
        assert manifest["sample_counts"]["identity_probes"] == 200

    def test_negative_horizon_exit_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, dict(SMALL, horizon=-2.0))
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "horizon" in err and "T" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_negative_threads_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(SCENARIOS / "coupling-game.json"),
                  "--out", str(out), "--threads", "-3"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_box_too_small_for_reach_exit_2(self, tmp_path):
        data = dict(SMALL, grid={"box": [[-4, 4], [-4, 4], [-4, 4]],
                                 "counts": [9, 9, 9]})
        path = write_scenario(tmp_path, data)
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_cost_exit_3(self, tmp_path, capsys):
        data = {
            "schema": 1,
            "kind": "game",
            "horizon": 1.0,
            "radii": {"r_y": 1e9, "r_z": 0.0},
            "running_cost": {"name": "custom-affine",
                             "params": {"ay": [1e300, 0.0]}},
            "terminal": {"name": "constant", "params": {"value": 0.0}},
            "grid": {"box": [[-1, 1], [-1, 1], [-1, 1]], "counts": [3, 3, 3]},
            "time_steps": 1,
            "lattice": {"rings": 1, "base_angles": 4},
            "seed": 0,
        }
        path = write_scenario(tmp_path, data)
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "numerical abort" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path):
        path = self.small_scenario(tmp_path)
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["solve", str(path), "--out", str(out1)]) == 0
        assert main(["solve", str(path), "--out", str(out2)]) == 0
        assert main(["solve", str(path), "--out", str(out3), "--threads", "2"]) == 0
        for name in ["slice_000.csv", "slice_002.csv", "slice_001.bin",
                     "manifest.json", "valuegrid.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes(), name

    @pytest.mark.parametrize("hamiltonian,line", [
        ("norm", "symmetry x1,x2: 425 of 1377 nodes"),
        ("component", "symmetry x2: 765 of 1377 nodes"),
    ])
    def test_solve_logs_symmetry(self, tmp_path, capsys, hamiltonian, line):
        data = dict(SMALL, grid={"box": SMALL["grid"]["box"], "counts": [9, 9, 17]},
                    time_steps=2, hamiltonian={"name": hamiltonian})
        out = tmp_path / "out"
        assert main(["solve", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 0
        assert line in capsys.readouterr().out.splitlines()
        assert line in (out / "run.log").read_text().splitlines()

    def test_game_without_symmetry_logs_none(self, tmp_path):
        data = {
            "schema": 1, "kind": "game", "horizon": 0.25,
            "radii": {"r_y": 2.0, "r_z": 1.0},
            "running_cost": {"name": "custom-affine",
                             "params": {"ay": [0.5, -0.25], "az": [0.3, 0.2]}},
            "terminal": {"name": "gauge"},
            "grid": {"box": SMALL["grid"]["box"], "counts": [9, 9, 17]},
            "time_steps": 2, "lattice": {"rings": 1, "base_angles": 8},
        }
        out = tmp_path / "out"
        assert main(["solve", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 0
        assert "symmetry none: 1377 of 1377 nodes" in (out / "run.log").read_text()

    def test_wrong_catalog_declaration_exit_2(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import heisgame.scenario as scenario

        real = scenario.make_hamiltonian
        monkeypatch.setattr(scenario, "make_hamiltonian", lambda name, params:
                            dataclasses.replace(real(name, params),
                                                reflections=frozenset({"x1", "x2"})))
        data = dict(SMALL, grid={"box": SMALL["grid"]["box"], "counts": [9, 9, 17]},
                    time_steps=2, hamiltonian={"name": "component"})
        out = tmp_path / "out"
        assert main(["solve", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 2
        assert "reflection 'x1' does not hold" in capsys.readouterr().err
        assert not (out / "valuegrid.json").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        path = self.small_scenario(tmp_path)
        target = tmp_path / "from-env"
        monkeypatch.setenv("HEISGAME_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["solve", str(path)]) == 0
        assert (target / "manifest.json").exists()


class TestMemoryGuard:
    HUGE = [4097, 4097, 8193]

    @pytest.mark.parametrize("command,field", [("solve", "grid"), ("verify", "grid"),
                                               ("verify", "oracle_counts")])
    def test_beyond_physical_memory_exit_2(self, tmp_path, capsys, command, field):
        if field == "grid":
            data = dict(SMALL, grid={"box": SMALL["grid"]["box"], "counts": self.HUGE})
        else:
            data = dict(SMALL, verify=dict(SMALL["verify"], oracle_counts=self.HUGE))
        out = tmp_path / "out"
        assert main([command, str(write_scenario(tmp_path, data)), "--out", str(out)]) == 2
        assert not out.exists()
        assert "GiB" in capsys.readouterr().err

    def test_verify_counts_its_oracle_solve(self, tmp_path, monkeypatch, capsys):
        # a machine that holds the scenario's own solve but not the oracle's too
        data = dict(SMALL, time_steps=2)
        path = write_scenario(tmp_path, data)
        own = solve_bytes(SMALL["grid"]["counts"], 2, 25, reversed_copy=True)
        monkeypatch.setattr(cli, "_physical_memory", lambda: own + 1)
        assert main(["solve", str(path), "--out", str(tmp_path / "s")]) == 0
        assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 2
        assert not (tmp_path / "v").exists()
        assert "physical memory" in capsys.readouterr().err

    def test_hji_solve_counts_its_reversed_copy(self, tmp_path, monkeypatch, capsys):
        path = write_scenario(tmp_path, dict(SMALL, time_steps=2))
        game_time = solve_bytes(SMALL["grid"]["counts"], 2, 25)
        monkeypatch.setattr(cli, "_physical_memory", lambda: game_time + 1)
        assert main(["solve", str(path), "--out", str(tmp_path / "s")]) == 2
        assert "physical memory" in capsys.readouterr().err


class TestVerifyCommand:
    def test_small_scenario_all_pass(self, tmp_path):
        path = write_scenario(tmp_path, SMALL)
        out = tmp_path / "verify-out"
        assert main(["verify", str(path), "--out", str(out)]) == 0
        bundle = json.loads((out / "verify.json").read_text())
        names = {c["name"] for c in bundle["checks"]}
        assert {"group_associativity", "flow_exactness", "reach_bound",
                "translation_identity", "separation_gronwall",
                "shifted_start_bound", "h_convexity",
                "oracle_equivalence_frozen", "oracle_equivalence_small_n",
                "dpp_residual", "lipschitz_spatial_ratio_vs_c_sharp",
                "lipschitz_space_time_ratio_vs_c_prime", "isaacs_lattice_gap",
                "hamiltonian_identity", "uniqueness_initial_trace",
                "initial_slice_matches_datum"} <= names
        assert all(c["passed"] for c in bundle["checks"])
        for c in bundle["checks"]:
            assert c["statement"]
        traj = (out / "sample_trajectory.csv").read_text().strip().split("\n")
        assert traj[0] == "time,x1,x2,x3"
        assert len(traj) > 2

    @pytest.mark.parametrize("field,value", [
        ("reach_instances", 0), ("dpp_probes", 0), ("oracle_nodes", 0),
        ("translation_instances", -3), ("max_nodes", 0), ("convexity_directions", 0),
        ("convexity_probes", 2), ("isaacs_probes", 2.5), ("group_samples", "10"),
        ("random_pairs", True), ("oracle_counts", "abc"),
        ("oracle_counts", [9.5, 9, 17]), ("oracle_counts", [9, 9, 1])])
    def test_bad_verify_field_exit_2(self, tmp_path, capsys, field, value):
        # each of these once ran, or passed its check without a sample
        data = dict(SMALL, verify=dict(SMALL["verify"], **{field: value}))
        out = tmp_path / "out"
        assert main(["verify", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 2
        assert f"verify.{field}" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        path = write_scenario(tmp_path, dict(SMALL, time_steps=2))
        outs = [tmp_path / name for name in "abc"]
        codes = [main(["verify", str(path), "--out", str(out), *extra])
                 for out, extra in zip(outs, ([], [], ["--threads", "2"]))]
        assert codes[0] == codes[1] == codes[2]
        for name in ["verify.json", "sample_trajectory.csv"]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
            assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    def test_underdeclared_c2p_fails(self, tmp_path):
        data = dict(SMALL, constants={"c2p": 0.1})
        path = write_scenario(tmp_path, data)
        out = tmp_path / "verify-bad"
        assert main(["verify", str(path), "--out", str(out)]) == 1
        bundle = json.loads((out / "verify.json").read_text())
        failed = {c["name"] for c in bundle["checks"] if not c["passed"]}
        assert "lipschitz_spatial_ratio_vs_c_sharp" in failed

    def test_game_kind_battery(self, tmp_path):
        data = json.loads((SCENARIOS / "coupling-game.json").read_text())
        data["verify"] = SMALL["verify"]
        path = write_scenario(tmp_path, data)
        out = tmp_path / "verify-game"
        assert main(["verify", str(path), "--out", str(out)]) == 0
        bundle = json.loads((out / "verify.json").read_text())
        names = {c["name"] for c in bundle["checks"]}
        assert "hamiltonian_identity" not in names  # initial-value form only
        assert "isaacs_lattice_gap" in names

    def test_frozen_dynamics_oracle_exact(self, tmp_path):
        data = dict(SMALL, hamiltonian={"name": "constant", "params": {"value": 0.5}})
        path = write_scenario(tmp_path, data)
        out = tmp_path / "verify-frozen"
        assert main(["verify", str(path), "--out", str(out)]) == 0
        bundle = json.loads((out / "verify.json").read_text())
        by_name = {c["name"]: c for c in bundle["checks"]}
        assert by_name["oracle_equivalence_frozen"]["measured"] <= 1e-12
        assert by_name["oracle_equivalence_small_n"]["measured"] <= 1e-12

    @pytest.mark.parametrize("hamiltonian", [{"name": "norm"},
                                             {"name": "constant", "params": {"value": 0.5}}])
    def test_identity_verdict_follows_expected_bound(self, tmp_path, hamiltonian):
        # the constant Hamiltonian has K = r_z = 0, so its covering error is 0
        path = write_scenario(tmp_path, dict(SMALL, hamiltonian=hamiltonian))
        out = tmp_path / "verify-identity"
        assert main(["verify", str(path), "--out", str(out)]) == 0
        bundle = json.loads((out / "verify.json").read_text())
        check = {c["name"]: c for c in bundle["checks"]}["hamiltonian_identity"]
        assert check["passed"]
        assert check["constant"] == 2 * check["detail"]["expected_bound"]
        assert (check["constant"] == 0.0) == (hamiltonian["name"] == "constant")


class TestConvergeCommand:
    def test_exact_solution_collapses(self, tmp_path):
        out = tmp_path / "conv"
        rc = main(["converge", str(SCENARIOS / "constant-hamiltonian.json"),
                   "--levels", "3", "--out", str(out)])
        assert rc == 0
        rows = (out / "converge.csv").read_text().strip().split("\n")
        assert len(rows) == 4
        header = rows[0].split(",")
        diff_col = header.index("sup_diff_to_next")
        for row in rows[1:3]:
            assert float(row.split(",")[diff_col]) <= 1e-10

    def test_single_level_rejected(self, tmp_path):
        rc = main(["converge", str(SCENARIOS / "constant-hamiltonian.json"),
                   "--levels", "1", "--out", str(tmp_path)])
        assert rc == 2

    def test_indivisible_steps_rejected(self, tmp_path):
        data = dict(SMALL, time_steps=2)
        path = write_scenario(tmp_path, data)
        assert main(["converge", str(path), "--levels", "3",
                     "--out", str(tmp_path / "c")]) == 2

    def test_memory_guard_covers_the_ladder(self, tmp_path, monkeypatch, capsys):
        # a machine that holds the finest level's solve, but not every level at once
        path = write_scenario(tmp_path, SMALL)
        finest = solve_bytes(SMALL["grid"]["counts"], SMALL["time_steps"], 25)
        monkeypatch.setattr(cli, "_physical_memory", lambda: finest + 1)
        solves = []
        monkeypatch.setattr(cli, "backward_induction", lambda *a, **k: solves.append(a))
        assert main(["converge", str(path), "--levels", "2",
                     "--out", str(tmp_path / "c")]) == 2
        assert solves == []
        assert "physical memory" in capsys.readouterr().err

    def test_node_cap_guard(self, tmp_path):
        data = dict(SMALL)
        data["verify"] = dict(SMALL["verify"], max_nodes=100)
        path = write_scenario(tmp_path, data)
        assert main(["converge", str(path), "--levels", "2",
                     "--out", str(tmp_path / "c")]) == 2


class TestAuditCommand:
    def test_roundtrip(self, tmp_path):
        path = write_scenario(tmp_path, SMALL)
        out = tmp_path / "solve-out"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        assert main(["audit", str(out)]) == 0
        audit = json.loads((out / "audit.json").read_text())
        assert len(audit["audits"]) == 2
        assert all(a["passed"] for a in audit["audits"])

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["audit", str(tmp_path)]) == 2

    def test_manifest_without_constant_exit_2(self, tmp_path, capsys):
        out = tmp_path / "solve-out"
        assert main(["solve", str(write_scenario(tmp_path, dict(SMALL, time_steps=2))),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["derived_constants"]["c1p"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["audit", str(out)]) == 2
        assert "derived_constants.c1p" in capsys.readouterr().err
        assert not (out / "audit.json").exists()

    def test_out_option_rejected(self, tmp_path):
        # audits write next to their input, so audit takes no --out
        with pytest.raises(SystemExit) as exc:
            main(["audit", str(tmp_path), "--out", "x"])
        assert exc.value.code == 2
        assert not (tmp_path / "audit.json").exists()


def test_console_script_help():
    exe = shutil.which("heisgame")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "verify" in proc.stdout
