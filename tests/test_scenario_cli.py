import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heisgame.checks as checks
import heisgame.cli as cli
import heisgame.game as game
import heisgame.scenario as scenario
from heisgame.cli import main
from heisgame.game import make_lattice, solve_bytes
from heisgame.grids import grid_nodes, read_value_grid
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
        assert sc.problem.lip_y == 1.0

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

    @pytest.mark.parametrize("kind,name", [("hji", "c1"), ("hji", "C2"), ("game", "k"),
                                           ("game", "d1")])
    def test_constant_the_kind_never_reads_rejected(self, tmp_path, capsys, kind, name):
        data = dict(SMALL if kind == "hji" else
                    json.loads((SCENARIOS / "coupling-game.json").read_text()),
                    constants={name: 0.5})
        with pytest.raises(ScenarioError, match=f"constants.{name}"):
            parse_scenario(data)
        assert main(["solve", str(write_scenario(tmp_path, data)),
                     "--out", str(tmp_path / "out")]) == 2
        accepted = "k, d1, d1p, c2, c2p" if kind == "hji" else "c1, c1p, c2, c2p"
        assert accepted in capsys.readouterr().err

    @pytest.mark.parametrize("lattice,field", [
        ({"rings": True}, "lattice.rings"),
        ({"y": {"rings": True}, "z": {"rings": 1}}, "lattice.y.rings")])
    def test_boolean_rings_rejected(self, lattice, field):
        with pytest.raises(ScenarioError, match=field):
            parse_scenario(dict(SMALL, lattice=lattice))

    @pytest.mark.parametrize("change,field", [
        ({"lattice": {"ring": 1, "base_angles": 8}}, "lattice.ring"),
        ({"grid": {"box": SMALL["grid"]["box"], "count": [5, 5, 5]}}, "grid.count"),
        ({"sed": 3}, "sed"),
        ({"hamiltonian": {"name": "norm"}}, "hamiltonian")])
    def test_unknown_key_rejected(self, change, field):
        data = dict(SMALL if "hamiltonian" not in change else
                    json.loads((SCENARIOS / "coupling-game.json").read_text()), **change)
        with pytest.raises(ScenarioError, match=f"'{field}': unknown key; known: "):
            parse_scenario(data)

    @pytest.mark.parametrize("change,field", [({"horizon": 10 ** 400}, "horizon"),
                                              ({"constants": {"k": 10 ** 400}}, "constants.k")])
    def test_integer_beyond_floats_rejected(self, change, field):
        with pytest.raises(ScenarioError, match=f"'{field}': must be a finite number"):
            parse_scenario(dict(SMALL, **change))

    @pytest.mark.parametrize("seed", [-3, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ScenarioError, match="'seed': must be an integer >= 0"):
            parse_scenario(dict(SMALL, seed=seed))

    def test_verify_settings_filled_in(self):
        # the defaults the README documents, under SMALL's overrides
        defaults = {"group_samples": 10_000, "flow_controls": 200, "reach_instances": 2000,
                    "translation_instances": 2000, "shift_instances": 300,
                    "dpp_probes": 48, "identity_probes": 1000, "isaacs_probes": 200,
                    "random_pairs": 20_000, "convexity_directions": 64,
                    "convexity_probes": 33, "oracle_nodes": 12, "max_nodes": 2_000_000}
        assert parse_scenario(SMALL).verify == {**defaults, **SMALL["verify"],
                                                "oracle_counts": (33, 33, 65)}
        data = dict(SMALL)
        data.pop("verify")
        assert parse_scenario(data).verify == {**defaults, "oracle_counts": (17, 17, 33)}

    def test_benchmark_scenarios_parse(self):
        spec = importlib.util.spec_from_file_location("workloads",
                                                      REPO / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for _, template in workloads.WORKLOADS.values():
            parse_scenario(workloads.scenario(template, 0))

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

    def test_solve_writes_artifacts(self, tmp_path, capsys):
        path = self.small_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        # the write phase is timed apart from the solve
        log = (out / "run.log").read_text().splitlines()
        assert re.fullmatch(r"wrote outputs in \d+\.\d\d s", log[1])
        assert log[1] in capsys.readouterr().out.splitlines()
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
        assert manifest["covering"]["y"]["points"] == 9
        assert "trusted_region" in manifest
        assert manifest["sample_counts"]["identity_probes"] == 200

    # every formula text of a manifest, per kind; the inputs an hji scenario
    # derives have their own texts
    SHARED_FORMULAS = {
        "c2": "C2 (terminal/datum bound)",
        "c2p": "C2p (terminal/datum gauge-Lipschitz constant)",
        "c_hat": "C_hat = exp(T*R_Z/2)",
        "c_tilde": "C_tilde = (1 + 3*R_Z) * exp(T*R_Z/2)",
        "c_sharp": "C_sharp = (1 + 3*R_Z) * exp(T*R_Z/2) * (C1p*T + C2p)",
        "c_prime": "C_prime = C_tilde * (C1p*T + C2p) + C1",
    }
    FORMULAS = {
        "hji": {"r_y": "R_Y = (1 + 3*K) * exp(T*K/2) * (D1p*T + C2p)", "r_z": "R_Z = K",
                "c1": "C1 = D1 + R_Z*R_Y", "c1p": "C1p = D1p", **SHARED_FORMULAS},
        "game": {"r_y": "R_Y (scenario input)", "r_z": "R_Z (scenario input)",
                 "c1": "C1 (running-cost bound)",
                 "c1p": "C1p (running-cost gauge-Lipschitz constant)", **SHARED_FORMULAS},
    }

    @pytest.mark.parametrize("kind", ["hji", "game"])
    def test_manifest_formulas_and_values(self, tmp_path, kind):
        data = dict(SMALL if kind == "hji" else
                    json.loads((SCENARIOS / "coupling-game.json").read_text()),
                    grid={"box": SMALL["grid"]["box"], "counts": [9, 9, 17]}, time_steps=2)
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        dc = json.loads((out / "manifest.json").read_text())["derived_constants"]
        assert {name: entry["formula"] for name, entry in dc.items()} == self.FORMULAS[kind]
        # each value is its GameSpec field or LipschitzConstants attribute, bit for bit
        game = load_scenario(path).game
        for name, entry in dc.items():
            source = game if name in ("r_y", "r_z", "c1", "c1p", "c2", "c2p") \
                else game.constants
            assert entry["value"].hex() == float(getattr(source, name)).hex(), name

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

    @pytest.mark.parametrize("command", ["solve", "verify", "converge"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, str(SCENARIOS / "coupling-game.json"),
                  "--out", str(out), "--seed", "-3"])
        assert exc.value.code == 2
        assert "--seed: must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change,field", [
        ({"initial": {"name": "constant", "params": {"value": None}}}, "initial.params.value"),
        ({"hamiltonian": {"name": "constant", "params": {"value": None}}},
         "hamiltonian.params.value"),
        ({"hamiltonian": {"name": "constant", "params": {"value": "inf"}}},
         "hamiltonian.params.value"),
        ({"hamiltonian": {"name": "constant", "params": {"value": float("nan")}}},
         "hamiltonian.params.value"),
        ({"hamiltonian": {"name": "constant", "params": {"value": float("inf")}}},
         "hamiltonian.params.value"),
        ({"hamiltonian": {"name": "constant", "params": {"value": 10 ** 400}}},
         "hamiltonian.params.value"),
        ({"hamiltonian": {"name": "constant", "params": {"value": True}}},
         "hamiltonian.params.value"),
        ({"hamiltonian": {"name": "shifted-norm", "params": {"shift": [1, "a"]}}},
         "hamiltonian.params.shift"),
        ({"hamiltonian": {"name": "shifted-norm", "params": {"offset": [1]}}},
         "hamiltonian.params.offset"),
        ({"initial": {"name": "euclidean-norm-squared-truncated", "params": {"cap": [1]}}},
         "initial.params.cap"),
        ({"initial": {"name": "affine", "params": {"a": {"x": 1}}}}, "initial.params.a"),
        ({"initial": {"name": "affine", "params": {"b": None}}}, "initial.params.b"),
        ({"grid": {"box": [[{}, 1], [0, 1], [0, 1]]}}, "grid.box"),
        ({"grid": {"box": [[True, 2], [0, 1], [0, 1]]}}, "grid.box"),
        # the gauge takes no parameter
        ({"initial": {"name": "gauge", "params": {"value": 1}}}, "initial"),
        ({"kind": "game", "radii": {"r_y": 1.0, "r_z": 1.0}, "terminal": {"name": "gauge"},
          "running_cost": {"name": "custom-affine", "params": {"az": [0.3]}}},
         "running_cost.params.az"),
        ({"kind": "game", "radii": {"r_y": 1.0, "r_z": 1.0},
          "terminal": {"name": "constant", "params": {"value": "1"}},
          "running_cost": {"name": "constant", "params": {"value": -1e400}}},
         "running_cost.params.value"),
        ({"kind": "game", "radii": {"r_y": 1.0, "r_z": 1.0},
          "terminal": {"name": "gauge"},
          "running_cost": {"name": "custom-affine", "params": {"a0": None}}},
         "running_cost.params.a0")])
    def test_bad_catalog_parameter_exit_2(self, tmp_path, capsys, change, field):
        data = {**json.loads((SCENARIOS / "constant-hamiltonian.json").read_text()), **change}
        if data["kind"] == "game":
            del data["hamiltonian"], data["initial"]
        out = tmp_path / "o"
        assert main(["solve", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"'{field}'" in err[0]
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

    def test_nan_in_skipped_pair_entry_exit_3(self, tmp_path, capsys, monkeypatch):
        # z index 1 is outside the max-min's probe and y index 20 is a y the
        # bound skips, so only the finite guard lets the NaN abort the solve
        table = game._pair_table

        def pair_with_nan(spec, ypts, zpts):
            out = table(spec, ypts, zpts).copy()
            out[1, 20] = np.nan
            return out

        monkeypatch.setattr(game, "_pair_table", pair_with_nan)
        path = self.small_scenario(tmp_path, rings=2)
        assert 1 not in game._ring_probe(make_lattice(1.0, 2, 8).points)
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

    def test_mirrored_slices_match_savetxt(self, tmp_path):
        # the norm/gauge solve declares both reflections, so each slice
        # repeats most of its values
        out = tmp_path / "out"
        assert main(["solve", str(self.small_scenario(tmp_path)), "--out", str(out)]) == 0
        vg = read_value_grid(out)
        coords = grid_nodes(vg.box, vg.counts)
        for k in range(len(vg.times)):
            assert len(np.unique(vg.data[k].view(np.uint64))) < vg.data[k].size / 2
            table = np.column_stack([coords, vg.data[k].reshape(-1),
                                     vg.trusted[k].reshape(-1).astype(float)])
            np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g,%.17g,%.17g,%.17g,%d",
                       header="x1,x2,x3,value,trusted", comments="")
            name = f"slice_{k:03d}.csv"
            assert (out / name).read_bytes() == (tmp_path / "ref.csv").read_bytes(), name

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

    @pytest.mark.parametrize("command", ["solve", "converge", "verify"])
    def test_declared_k_is_sampled(self, tmp_path, command):
        # the norm Hamiltonian has y-modulus 1; a declared k of 0.5 is wrong
        data = dict(SMALL, grid={"box": SMALL["grid"]["box"], "counts": [9, 9, 17]},
                    time_steps=2, constants={"k": 0.5})
        argv = [command, str(write_scenario(tmp_path, data)), "--out", str(tmp_path / "out")]
        with pytest.warns(UserWarning, match="Hamiltonian y-increment"):
            assert main(argv + (["--levels", "2"] if command == "converge" else [])) == 0

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
        own = solve_bytes(SMALL["grid"]["counts"], 2, 25, 25)
        monkeypatch.setattr(cli, "_physical_memory", lambda: own + 1)
        assert main(["solve", str(path), "--out", str(tmp_path / "s")]) == 0
        assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 2
        assert not (tmp_path / "v").exists()
        assert "physical memory" in capsys.readouterr().err

    def test_hji_solve_guard_equals_game_time(self, tmp_path, monkeypatch, capsys):
        # the time reversal is a view, so an HJI solve needs the game-time bytes
        path = write_scenario(tmp_path, dict(SMALL, time_steps=2))
        game_time = solve_bytes(SMALL["grid"]["counts"], 2, 25, 25)
        monkeypatch.setattr(cli, "_physical_memory", lambda: game_time)
        assert main(["solve", str(path), "--out", str(tmp_path / "s")]) == 0
        monkeypatch.setattr(cli, "_physical_memory", lambda: game_time - 1)
        assert main(["solve", str(path), "--out", str(tmp_path / "t")]) == 2
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify", "converge"])
    @pytest.mark.parametrize("lattice", [{"rings": 1000, "base_angles": 8},
                                         {"y": {"rings": 1000}, "z": {"rings": 2}},
                                         {"y": {"rings": 2}, "z": {"rings": 1000}}])
    def test_huge_lattice_refused_before_it_is_built(self, tmp_path, monkeypatch, capsys,
                                                     command, lattice):
        # on a machine of 8 GiB; lattice_bytes puts a 1000-ring build at about 18 GiB
        monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * 2**30)
        err = refused_before_any_lattice(tmp_path, monkeypatch, capsys, command,
                                         dict(SMALL, lattice=lattice))
        assert "lattice build" in err and "physical memory" in err

    @pytest.mark.parametrize("command", ["solve", "verify", "converge"])
    def test_pair_table_refused_before_the_lattices_are_built(self, tmp_path, monkeypatch,
                                                              capsys, command):
        # on a machine of 4 GiB, 60 rings build in about 71 MB a lattice, and
        # the solve's stacks and W fit; its 14641 x 14641 pair table does not
        monkeypatch.setattr(cli, "_physical_memory", lambda: 4 * 2**30)
        err = refused_before_any_lattice(tmp_path, monkeypatch, capsys, command,
                                         dict(SMALL, lattice={"rings": 60, "base_angles": 8}))
        assert "solver arrays" in err and "physical memory" in err


def refused_before_any_lattice(tmp_path, monkeypatch, capsys, command, data) -> str:
    """The one stderr line of ``command`` on the scenario ``data``, which must
    exit 2 before it builds a lattice or makes its output directory."""
    def build(*args):
        raise AssertionError(f"lattice {args} built before the input was refused")

    for module in (game, scenario, checks):
        monkeypatch.setattr(module, "make_lattice", build)
    out = tmp_path / "out"
    argv = [command, str(write_scenario(tmp_path, data)), "--out", str(out)]
    assert main(argv + (["--levels", "2"] if command == "converge" else [])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and not out.exists()
    return err[0]


@pytest.mark.parametrize("command", ["solve", "verify", "converge"])
def test_empty_certified_region_refused_before_the_lattices_are_built(
        tmp_path, monkeypatch, capsys, command):
    # the reach R_Z*T = 1 of canonical's game is the box's horizontal half extent
    data = json.loads((SCENARIOS / "canonical.json").read_text())
    data["grid"] = {"box": [[-0.5, 0.5], [-0.5, 0.5], [-1, 1]], "counts": [9, 9, 17]}
    err = refused_before_any_lattice(tmp_path, monkeypatch, capsys, command, data)
    assert "certified region is empty" in err


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
        ("oracle_counts", [9.5, 9, 17]), ("oracle_counts", [9, 9, 1]),
        ("dpp_probe", 8)])
    def test_bad_verify_field_exit_2(self, tmp_path, capsys, field, value):
        # each of these once ran, or passed its check without a sample
        data = dict(SMALL, verify=dict(SMALL["verify"], **{field: value}))
        out = tmp_path / "out"
        assert main(["verify", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 2
        assert f"verify.{field}" in capsys.readouterr().err
        assert not out.exists()

    def test_violated_bound_warns_once(self, tmp_path):
        # the baseline, frozen and small-N oracle solves all meet the same
        # terminal cost beyond c2; the warning's fixed location lets
        # Python's default filter print it once
        data = json.loads((SCENARIOS / "coupling-game.json").read_text())
        data.update(grid=dict(data["grid"], counts=[9, 9, 17]), time_steps=2,
                    constants={"c2": 0.5})
        path = write_scenario(tmp_path, data)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("default")
            # the coarse grid fails two checks, which do not matter here
            assert main(["verify", str(path), "--out", str(tmp_path / "out")]) in (0, 1)
        assert sum("exceeds c2" in str(x.message) for x in w) == 1

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

    def test_memory_guard_covers_the_ladder(self, tmp_path, monkeypatch, capsys):
        # a machine that holds the finest level's solve, but not every level at once
        path = write_scenario(tmp_path, SMALL)
        finest = solve_bytes(SMALL["grid"]["counts"], SMALL["time_steps"], 25, 25)
        monkeypatch.setattr(cli, "_physical_memory", lambda: finest + 1)
        solves = []
        monkeypatch.setattr(scenario, "backward_induction", lambda *a, **k: solves.append(a))
        assert main(["converge", str(path), "--levels", "2",
                     "--out", str(tmp_path / "c")]) == 2
        assert solves == []
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("field,change,levels", [
        ("--levels", {}, "1"),
        ("grid.counts", {"grid": {"box": SMALL["grid"]["box"], "counts": [18, 17, 33]}}, "2"),
        ("time_steps", {"time_steps": 3}, "2"),
        ("lattice.rings", {"lattice": {"rings": 1, "base_angles": 8}}, "2"),
        ("verify.max_nodes", {"verify": dict(SMALL["verify"], max_nodes=100)}, "2")],
        ids=["levels", "grid.counts", "time_steps", "lattice.rings", "verify.max_nodes"])
    def test_ladder_refusal_exit_2(self, tmp_path, capsys, field, change, levels):
        out = tmp_path / "c"
        path = write_scenario(tmp_path, dict(SMALL, **change))
        assert main(["converge", str(path), "--levels", levels, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]
        assert not out.exists()


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

    @pytest.mark.parametrize("name,key,value", [
        ("valuegrid.json", "slices", 5), ("valuegrid.json", "box", [[-4, -4, -8]]),
        ("valuegrid.json", "trusted_region", 5), ("manifest.json", "seed", "x"),
        ("manifest.json", "scenario", [1]), ("manifest.json", None, [1]),
        ("manifest.json", "seed", -3), ("manifest.json", None, "{not json"),
        *(("manifest.json", "derived_constants.c2p.value", v)
          for v in (float("inf"), True, float("nan"), -1.0, "0.5"))])
    def test_malformed_input_exit_2(self, tmp_path, capsys, name, key, value):
        # exit 1 means a failed audit, so a malformed input file exits 2;
        # a key of None replaces the whole document, a string value its text,
        # and a dotted key names a nested value
        out = tmp_path / "solve-out"
        assert main(["solve", str(write_scenario(tmp_path, dict(SMALL, time_steps=2))),
                     "--out", str(out)]) == 0
        doc = json.loads((out / name).read_text())
        if key is None:
            doc = value
        else:
            *path, last = key.split(".")
            target = doc
            for part in path:
                target = target[part]
            target[last] = value
        (out / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["audit", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0]
        if name == "manifest.json":
            assert f"manifest.json in {out}" in err[0] and (key is None or key in err[0])
        assert not (out / "audit.json").exists()

    def test_out_option_rejected(self, tmp_path):
        # audits write next to their input, so audit takes no --out
        with pytest.raises(SystemExit) as exc:
            main(["audit", str(tmp_path), "--out", "x"])
        assert exc.value.code == 2
        assert not (tmp_path / "audit.json").exists()


def _src_env() -> dict:
    """This process's environment, importing this checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_console_script_help():
    # the installed script where there is one, else the module entry that
    # bench/run.py runs, importing this checkout's src
    script, env = shutil.which("heisgame"), dict(os.environ)
    argv = [script]
    if script is None:
        argv, env = [sys.executable, "-m", "heisgame.cli"], _src_env()
    proc = subprocess.run(argv + ["--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "verify" in proc.stdout


SMALL_GAME = {
    "schema": 1,
    "kind": "game",
    "horizon": 0.25,
    "radii": {"r_y": 2.0, "r_z": 1.0},
    "running_cost": {"name": "custom-affine",
                     "params": {"a0": 0.25, "ay": [0.5, -0.25], "az": [0.3, 0.2]}},
    "terminal": {"name": "gauge"},
    "grid": {"box": [[-4, 4], [-4, 4], [-8, 8]], "counts": [9, 9, 17]},
    "time_steps": 2,
    "lattice": {"rings": 2, "base_angles": 8},
}


@pytest.mark.parametrize("data", [dict(SMALL, grid=SMALL_GAME["grid"], time_steps=2),
                                  SMALL_GAME], ids=["hji", "custom-affine"])
def test_solve_does_not_import_numpy_random(tmp_path, data):
    # the declaration samples are fixed, so a solve never loads numpy.random
    # (about 6 MB of resident memory); a fresh process, since this one has
    code = ("import sys\nfrom heisgame.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    argv = ["solve", str(write_scenario(tmp_path, data)), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_src_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "manifest.json").exists()


def test_verify_does_not_import_numpy_ma(tmp_path):
    # the sample trajectory's times are deduplicated without np.unique, whose
    # masked-array check loads numpy.ma; a fresh process, as above
    data = dict(SMALL, grid=SMALL_GAME["grid"], time_steps=2,
                verify=dict(SMALL["verify"], oracle_counts=[9, 9, 17]))
    code = ("import sys\nfrom heisgame.cli import main\nmain(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    argv = ["verify", str(write_scenario(tmp_path, data)), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_src_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "verify.json").exists()
    assert (tmp_path / "out" / "sample_trajectory.csv").exists()

def test_pairs_tool_smoke(tmp_path):
    # tools/pairs.py, 2 interleaved pairs of this checkout against itself
    path = write_scenario(tmp_path, dict(SMALL, grid=SMALL_GAME["grid"], time_steps=2))
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "pairs.py"), str(REPO),
                           str(REPO), "--pairs", "2", "--", "solve", str(path)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["command"] == ["solve", str(path)]
    for side in ("parent", "change"):
        runs = result["runs"][side]
        assert [r["exit_code"] for r in runs] == [0, 0]
        assert all(r["wall_s"] > 0 and r["peak_rss_mb"] > 0 for r in runs)
    for metric in ("wall_s", "peak_rss_mb"):
        s = result["summary"][metric]
        assert s["pairs"] == 2 and s["won"] + s["lost"] <= 2
        assert s["verdict"] in ("gain", "loss", "no claim")
    # the outputs went to temporary directories, not next to the scenario
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]
    # the launcher stays small: it imports neither numpy nor heisgame
    probe = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                            " import pairs; print(sorted(m for m in sys.modules"
                            " if m.split('.')[0] in ('numpy', 'heisgame')))",
                            str(REPO / "tools")], capture_output=True, text=True, timeout=60)
    assert probe.stdout.strip() == "[]", probe.stderr
