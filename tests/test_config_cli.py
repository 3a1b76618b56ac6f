import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from race_wfl.cli import main
from race_wfl.config import (
    ScenarioConfig, config_from_dict, config_hash, config_to_dict,
    load_config, named_rng,
)
from race_wfl.errors import ConfigError
from race_wfl.tsfen import load_params, save_params


class TestDefaults:
    def test_golden_parameter_values(self):
        # the default scenario must match the standard simulation settings
        # field for field
        cfg = ScenarioConfig()
        assert cfg.platoon.n_followers == 20
        assert cfg.channel.path_loss_exponent == 3.76
        assert cfg.cost.cycles_per_sample == 1e7
        assert cfg.cost.model_bits == 1e6
        assert cfg.cost.cpu_hz == 0.5e9
        assert cfg.cost.max_power_dbm == 15.0
        assert cfg.cost.max_energy_j == 0.1
        assert cfg.cost.power_coeff == 1e-28
        assert cfg.platoon.a_max == 0.73
        assert cfg.platoon.b_max == 1.67
        assert cfg.platoon.d_min == 2.0
        assert cfg.platoon.t_min == 1.5
        assert cfg.platoon.v_des == 30.0
        assert cfg.platoon.update_interval == 1.0
        assert cfg.channel.noise_variance_dbm == -174.0
        assert cfg.mappo.batch_size == 32
        assert cfg.task.learning_rate == 1e-4
        assert cfg.mappo.learning_rate == 1e-4
        assert cfg.mappo.gamma == 0.98
        assert cfg.mappo.gae_lambda == 0.95
        assert cfg.mappo.clip == 0.2
        assert cfg.mappo.d_model == 64
        assert cfg.mappo.n_heads == 8
        assert cfg.mappo.lstm_hidden == 128
        assert cfg.selection.subperiods == 5
        assert cfg.run.episodes == 500
        assert (cfg.platoon.speed_min, cfg.platoon.speed_max) == (15.0, 20.0)
        assert (cfg.platoon.gap_min, cfg.platoon.gap_max) == (10.0, 15.0)
        assert cfg.platoon.vehicle_length == 5.0

    def test_empty_config_is_the_default_scenario(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert config_hash(load_config(path)) == \
            config_hash(ScenarioConfig())


class TestValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"platooon": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"platoon": {"n_follower": 5}})

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schema_version": 99})

    def test_semantic_constraints(self):
        with pytest.raises(ConfigError):
            config_from_dict({"selection": {"n_subchannels": 30}})
        with pytest.raises(ConfigError):
            config_from_dict({"task": {"model_dim": 201}})
        with pytest.raises(ConfigError):
            config_from_dict({"thresholds": {"mode": "psychic"}})

    def test_round_trip_through_yaml(self, tmp_path):
        cfg = config_from_dict({"platoon": {"n_followers": 6},
                                "selection": {"n_subchannels": 2}})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(config_to_dict(cfg)))
        again = load_config(path)
        assert config_hash(again) == config_hash(cfg)


class TestHash:
    def test_hash_changes_iff_a_field_changes(self):
        base = config_hash(ScenarioConfig())
        assert config_hash(ScenarioConfig()) == base
        changed = config_from_dict({"run": {"seed": 1}})
        assert config_hash(changed) != base

    def test_hash_ignores_key_order(self):
        a = config_from_dict({"run": {"seed": 2, "episodes": 3}})
        b = config_from_dict({"run": {"episodes": 3, "seed": 2}})
        assert config_hash(a) == config_hash(b)


class TestNamedRng:
    def test_same_stream_reproduces(self):
        a = named_rng(7, "channel").standard_normal(5)
        b = named_rng(7, "channel").standard_normal(5)
        assert (a == b).all()

    def test_streams_are_independent(self):
        a = named_rng(7, "channel").standard_normal(5)
        b = named_rng(7, "task").standard_normal(5)
        assert not np.allclose(a, b)

    def test_episode_indexing(self):
        a = named_rng(7, "platoon-init", 0).standard_normal(3)
        b = named_rng(7, "platoon-init", 1).standard_normal(3)
        assert not np.allclose(a, b)

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigError):
            named_rng(0, "entropy-fountain")


TINY = {
    "platoon": {"n_followers": 6},
    "selection": {"n_subchannels": 2, "subperiods": 3},
    "task": {"model_dim": 40, "n_samples": 200},
    "mappo": {"d_model": 8, "n_heads": 2, "squeeze_dim": 3,
              "lstm_hidden": 6, "fc_hidden": 6, "episodes_per_update": 1},
    "run": {"episodes": 2, "rounds_per_episode": 5, "seed": 1,
            "checkpoint_every": 1},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY))
    return path


@pytest.fixture
def trained_checkpoint(tiny_config, tmp_path):
    out = tmp_path / "run_train"
    assert main(["train", "--config", str(tiny_config), "--out-dir",
                 str(out), "--episodes", "1"]) == 0
    return out / "checkpoint_final.bin"


class TestCli:
    def test_baseline_subcommand(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run_baseline"
        code = main(["baseline", "--policy", "greedy_aoi", "--config",
                     str(tiny_config), "--out-dir", str(out)])
        assert code == 0
        assert (out / "rounds.csv").exists()
        assert (out / "summary.json").exists()
        assert "cumulative_sum_aoi_mean" in capsys.readouterr().out

    def test_train_and_evaluate_subcommands(self, tiny_config, tmp_path):
        out = tmp_path / "run_train"
        assert main(["train", "--config", str(tiny_config), "--out-dir",
                     str(out)]) == 0
        ckpt = out / "checkpoint_final.bin"
        assert ckpt.exists()
        out2 = tmp_path / "run_eval"
        assert main(["evaluate", "--config", str(tiny_config),
                     "--checkpoint", str(ckpt), "--out-dir", str(out2),
                     "--episodes", "1"]) == 0
        assert (out2 / "rounds.csv").exists()

    def test_evaluate_missing_checkpoint_exits_4(self, tiny_config,
                                                  tmp_path):
        assert main(["evaluate", "--config", str(tiny_config),
                     "--checkpoint", str(tmp_path / "absent.bin"),
                     "--out-dir", str(tmp_path / "e")]) == 4

    def test_evaluate_truncated_checkpoint_exits_4(
            self, tiny_config, trained_checkpoint, tmp_path):
        data = trained_checkpoint.read_bytes()
        # cut inside the JSON header, then inside the payload
        for keep in (40, len(data) - 8):
            cut = tmp_path / f"cut{keep}.bin"
            cut.write_bytes(data[:keep])
            assert main(["evaluate", "--config", str(tiny_config),
                         "--checkpoint", str(cut), "--out-dir",
                         str(tmp_path / "e"), "--episodes", "1"]) == 4

    def test_evaluate_checkpoint_of_another_network_exits_4(
            self, trained_checkpoint, tmp_path):
        wider = json.loads(json.dumps(TINY))
        wider["mappo"]["lstm_hidden"] = 9
        other = tmp_path / "wider.yaml"
        other.write_text(yaml.safe_dump(wider))
        assert main(["evaluate", "--config", str(other), "--checkpoint",
                     str(trained_checkpoint), "--out-dir",
                     str(tmp_path / "e"), "--episodes", "1"]) == 4

    def test_evaluate_per_agent_critic_checkpoint_exits_4(
            self, tiny_config, trained_checkpoint, tmp_path, capsys,
            caplog):
        # the layout before the critic was shared: agent{k}.critic.* for
        # every agent instead of one critic.*
        params, meta = load_params(trained_checkpoint)
        old = {name: p for name, p in params.items()
               if not name.startswith("critic.")}
        for k in range(meta["n_agents"]):
            old.update({f"agent{k}.{name}": p for name, p in params.items()
                        if name.startswith("critic.")})
        path = tmp_path / "old.bin"
        save_params(path, old, meta=meta)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(tiny_config),
                     "--checkpoint", str(path), "--out-dir",
                     str(tmp_path / "e"), "--episodes", "1"]) == 4
        assert "agent0.critic." in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    def test_allocate_exit_codes(self, tmp_path):
        feasible = tmp_path / "ok.csv"
        feasible.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain\n"
            "100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6\n")
        out = tmp_path / "alloc.csv"
        assert main(["allocate", "--profiles", str(feasible),
                     "--bandwidth", "1e6", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("device,feasible,binding")
        assert rows[1].split(",")[1] == "1"

        bad = tmp_path / "bad.csv"
        bad.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain\n"
            "100,1e7,0.5e9,1e-28,0.0316,1e-9,1e6,10\n")
        assert main(["allocate", "--profiles", str(bad),
                     "--bandwidth", "1e6", "--out",
                     str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("row, bandwidth", [
        # the stationary chi plus the transmission infimum overshot the
        # budget by a rounding residue, so a second root-finder found no
        # bracket
        ("7643179,1.03e12,1e6,5.71e-27,1.2e-7,7.22e-7,1.38e6,3.38e10",
         "1e6"),
        # a budget just above the transmission infimum, where x e^x -
        # expm1(x) cancelled to 0 and the multiplier divided by it
        ("28,2436932.9557931186,198255192.35334966,9.780809112616421e-29,"
         "0.020583711282558117,5.096265109004979e-07,1181652.698635612,"
         "2622610.008049046", "612815.2806843467"),
    ])
    def test_allocate_solves_feasible_edge_rows(self, tmp_path, row,
                                                bandwidth):
        profiles = tmp_path / "p.csv"
        profiles.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain\n" + row + "\n")
        out = tmp_path / "a.csv"
        assert main(["allocate", "--profiles", str(profiles), "--bandwidth",
                     bandwidth, "--out", str(out)]) == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert fields[1:3] == ["1", "binding"]
        assert float(fields[-1]) <= 1e-9 * float(row.split(",")[5])

    @pytest.mark.parametrize("energy", [
        "0.1",    # energy slack: the full-power transmission time would be 0
        "0.01",   # energy binds: full-CPU computation alone needs 0.025 J;
                  # rho would be expm1(...) / inf = 0
    ])
    def test_allocate_power_gain_overflow_exits_2(self, tmp_path, caplog,
                                                  energy):
        # max_power_w * gain is inf
        profiles = tmp_path / "p.csv"
        profiles.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain\n"
            f"100,1e7,0.5e9,1e-28,10,{energy},1e6,1e308\n")
        out = tmp_path / "a.csv"
        assert main(["allocate", "--profiles", str(profiles), "--out",
                     str(out)]) == 2
        message = caplog.records[-1].getMessage()
        assert message.startswith("configuration error: profile row 0: ")
        assert "max_power_w * gain overflows" in message

    # the well-formed rows known to exit 4, one per cause; a sweep of gains
    # up to 1e308 at budgets 0.02-0.1 and of sample counts up to 6.6e217
    # on the default row found none besides the first
    @pytest.mark.parametrize("row, message", [
        # u * bandwidth * gain overflows, so the stationarity path reads a
        # transmission energy of 0 and the solve spends ~3.5e74 budgets
        ("100,1.0011302169771886e-138,5e8,1e-28,0.0316,"
         "1.9699149614688815e-278,1e6,1.9499599122022312e303,1e6",
         "allocation solver failed to converge: a binding solve spends "
         "6.87695605091"),
        # rho is subnormal beside a 1e300 W power, so the spent energy is
        # 1.4e-9 relative over budget
        ("100,1e30,0.5e9,1e-28,1e300,0.1,1e6,1e6,1e6",
         "allocation solver failed to converge: a binding solve spends "
         "0.100000000142"),
        # the computation energy is nan
        ("100,1e7,1e-100,1e300,0.0316,0.1,1e6,1e6,1e6",
         "allocation solver failed to converge: a binding solve spends "
         "nan J of a 0.1 J budget"),
    ])
    def test_allocate_solver_failure_exits_4(self, tmp_path, caplog, row,
                                             message):
        profiles = tmp_path / "p.csv"
        profiles.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain,bandwidth\n"
            + row + "\n")
        assert main(["allocate", "--profiles", str(profiles), "--out",
                     str(tmp_path / "a.csv")]) == 4
        assert caplog.records[-1].getMessage().startswith(
            "profile row 0: " + message)

    @pytest.mark.parametrize("row, message", [
        # the interior transmission time underflows to 0
        ("100,1e10,0.5e9,1e-28,0.0316,0.1,1e-320,1e6,1e6",
         "interior transmission time 0.0 s beyond the float range: "
         "tx_time must be > 0"),
        # the interior transmission time rounds below the full-power one
        ("50,1e7,1e9,1e-28,1e-93,1e-62,6e-30,1e170,1.5e291",
         "interior transmission time 1.5e-323 s beyond the float range: "
         "tx_time below the minimum achievable transmission time "
         "(would need rho > 1)"),
    ])
    def test_allocate_interior_beyond_float_range_exits_2(
            self, tmp_path, caplog, row, message):
        profiles = tmp_path / "p.csv"
        profiles.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain,bandwidth\n"
            + row + "\n")
        assert main(["allocate", "--profiles", str(profiles), "--out",
                     str(tmp_path / "a.csv")]) == 2
        assert caplog.records[-1].getMessage() == (
            "configuration error: profile row 0: " + message)

    @pytest.mark.parametrize("bandwidth", ["0", "-1", "nan", "inf"])
    def test_allocate_rejects_bad_bandwidth_flag(self, tmp_path, caplog,
                                                 bandwidth):
        # rejected once, before any row: 0 must not fall back to the
        # config's bandwidth, nor inf solve with a transmission time of 0
        profiles = tmp_path / "p.csv"
        profiles.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain\n"
            "100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6\n")
        out = tmp_path / "a.csv"
        assert main(["allocate", "--profiles", str(profiles), "--bandwidth",
                     bandwidth, "--out", str(out)]) == 2
        message = caplog.records[-1].getMessage()
        assert message.startswith("configuration error: --bandwidth")
        assert not out.exists()

    def test_allocate_rejects_missing_columns(self, tmp_path):
        broken = tmp_path / "broken.csv"
        broken.write_text("sample_count,gain\n1,2\n")
        assert main(["allocate", "--profiles", str(broken)]) == 2

    def test_unknown_baseline_policy_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--policy", "convex_greedy", "--out-dir",
                  str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("platoon:\n  warp_drive: 9\n")
        assert main(["baseline", "--policy", "random", "--config",
                     str(bad), "--out-dir", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("command, edit, flags", [
        ("baseline", {"channel": {"bandwidth": -1}}, []),
        ("baseline", {"channel": {"estimation_error_variance": 2}}, []),
        ("baseline", {"channel": {"bandwidth": "abc"}}, []),
        ("baseline", {"platoon": {"a_max": -1}}, []),
        ("baseline", {"platoon": {"substeps": 0}}, []),
        ("baseline", {"platoon": {"speed_min": 30, "speed_max": 10}}, []),
        ("baseline", {"platoon": {"gap_min": 20, "gap_max": 10}}, []),
        ("baseline", {"cost": {"max_energy_j": -1}}, []),
        ("train", {"mappo": {"n_heads": 7}}, []),
        ("train", {"mappo": {"batch_size": 0}}, []),
        ("baseline", {"task": {"n_classes": 0}}, []),
        ("baseline", {"run": {"seed": -1}}, []),
        ("baseline", {"run": {"episodes": 0}}, []),
        ("baseline", {"run": {"rounds_per_episode": 0}}, []),
        ("baseline", {"selection": {"subperiods": 0}}, []),
        ("baseline", {}, ["--seed", "-1"]),
        ("baseline", {}, ["--episodes", "0"]),
        # 200 samples cannot give each of 40 devices a sample
        ("baseline", {"platoon": {"n_followers": 40}}, []),
        ("train", {"mappo": {"gamma": 1e300}}, []),
        ("train", {"mappo": {"gamma": -1e300}}, []),
        ("train", {"mappo": {"gamma": 5}}, []),
        ("train", {"mappo": {"gae_lambda": 1e300}}, []),
        ("train", {"mappo": {"gae_lambda": -0.5}}, []),
        ("train", {"mappo": {"learning_rate": -1}}, []),
        ("train", {"mappo": {"clip": -1}}, []),
        ("train", {"mappo": {"clip": 0}}, []),
        ("train", {"mappo": {"ppo_epochs": 0}}, []),
        ("train", {"mappo": {"ppo_epochs": -1}}, []),
        ("train", {"mappo": {"episodes_per_update": 0}}, []),
        ("train", {"mappo": {"episodes_per_update": -3}}, []),
    ])
    def test_out_of_range_scenario_value_exits_2(self, tmp_path, caplog,
                                                  command, edit, flags):
        data = json.loads(json.dumps(TINY))
        for section, values in edit.items():
            data.setdefault(section, {}).update(values)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = [command, "--config", str(path), "--out-dir",
                str(tmp_path / "r"), *flags]
        if command == "baseline":
            argv += ["--policy", "random"]
        assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith("configuration error: ")
        assert "\n" not in errors[0]
        assert not (tmp_path / "r" / "rounds.csv").exists()

    # finite values whose car-following, noise-power, channel-gain or
    # Stage-1 terms overflow
    @pytest.mark.parametrize("section, name, value", [
        ("platoon", "speed_max", 1.0e300),
        ("platoon", "d_min", 1.0e300),
        ("platoon", "t_min", 1.0e300),
        ("platoon", "v_des", 1.0e-300),
        ("channel", "noise_variance_dbm", 1.0e300),
        ("channel", "noise_variance_dbm", -1.0e300),
        ("channel", "frequency_factor", 1.0e300),
        ("cost", "cpu_hz", 1.0e300),
        ("cost", "power_coeff", 1.0e300),
    ])
    def test_extreme_value_exits_2_naming_the_field(self, tmp_path, caplog,
                                                    section, name, value):
        data = json.loads(json.dumps(TINY))
        data.setdefault(section, {})[name] = value
        path = tmp_path / "extreme.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["baseline", "--policy", "random", "--config",
                     str(path), "--out-dir", str(tmp_path / "r")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith(
            f"configuration error: bad value in section {section}: ")
        assert name in errors[0]

    @pytest.mark.parametrize("edit, name", [
        ({"d_model": 0}, "d_model"),
        ({"n_heads": 0}, "n_heads"),
        ({"squeeze_dim": 0}, "squeeze_dim"),
        ({"lstm_hidden": 0}, "lstm_hidden"),
        ({"fc_hidden": 0}, "fc_hidden"),
        ({"d_model": 10, "n_heads": 3}, "d_model"),
    ])
    def test_network_size_exits_2_naming_the_field(self, tmp_path, caplog,
                                                   edit, name):
        data = json.loads(json.dumps(TINY))
        data["mappo"].update(edit)
        path = tmp_path / "net.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["train", "--config", str(path), "--out-dir",
                     str(tmp_path / "r")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith(
            "configuration error: bad value in section mappo: ")
        assert name in errors[0]

    # values no section can bound, because the Stage-1 terms they break
    # depend on the budget left or on the distance: chi ** 3 underflows
    # in the power-capped branch, and every gain is 0
    @pytest.mark.parametrize("section, name, value", [
        ("cost", "power_coeff", 1.0e270),
        ("channel", "path_loss_exponent", 1.0e300),
    ])
    def test_allocation_beyond_float_range_exits_2(self, tmp_path, caplog,
                                                   capsys, section, name,
                                                   value):
        data = json.loads(json.dumps(TINY))
        data.setdefault(section, {})[name] = value
        path = tmp_path / "extreme.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["baseline", "--policy", "greedy_aoi", "--config",
                     str(path), "--out-dir", str(tmp_path / "r")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith("configuration error: round 0 ")
        assert "allocation for device 0: " in errors[0]
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    @pytest.mark.parametrize("row, column", [
        ("100,1e7,0.5e9,1e-28,0.0316,-0.1,1e6,1e6", "max_energy_j"),
        ("100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,abc", "gain"),
        ("100,1e7,0.5e9,1e-28,,0.1,1e6,1e6", "max_power_w"),
        ("100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,inf", "gain"),
        ("100,1e7,0.5e9,nan,0.0316,0.1,1e6,1e6", "power_coeff"),
        ("100.5,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6", "sample_count"),
        ("100,1e7,0.5e9,1e-28,0.0316,0.1", "model_bits"),
        # rows are checked in file order, columns in header order, and the
        # first failure is the one reported
        ("100,1e7,abc,1e-28,0.0316,0.1,1e6,xyz", "cpu_hz"),
        ("100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,abc\n"
         "100,1e7,0.5e9,1e-28,xyz,0.1,1e6,1e6", "gain"),
        ("100.5,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6\n"
         "100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,abc", "sample_count"),
        # a blank line is no row
        ("\n100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,abc", "gain"),
        # a gain or bandwidth <= 0; two negatives used to pass the
        # feasibility test and crash the solver
        ("100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,-10", "gain"),
        ("100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,0", "gain"),
        ("100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6,-1e6", "bandwidth"),
        ("100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6,0", "bandwidth"),
        ("100,1e7,5e9,1e-28,0.0316,1,1e6,-10,-1e6", "gain"),
    ])
    def test_allocate_rejects_malformed_rows(self, tmp_path, caplog, row,
                                             column):
        profiles = tmp_path / "p.csv"
        profiles.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain,bandwidth\n"
            "100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6\n" + row + "\n")
        assert main(["allocate", "--profiles", str(profiles), "--out",
                     str(tmp_path / "a.csv")]) == 2
        message = caplog.records[-1].getMessage()
        assert message.startswith("configuration error: profile row 1")
        assert column in message

    @pytest.mark.parametrize("argv, target", [
        # a missing parent directory for --out; a regular file in place
        # of a directory for --out-dir
        (["allocate", "--profiles", "p.csv", "--out"], "missing/a.csv"),
        (["verify", "--quick", "--out-dir"], "file/sub"),
        (["baseline", "--policy", "random", "--out-dir"], "file/sub"),
    ])
    def test_unwritable_output_path_exits_2(self, tmp_path, caplog,
                                            monkeypatch, argv, target):
        monkeypatch.chdir(tmp_path)
        Path("p.csv").write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain\n"
            "100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6\n")
        Path("file").write_text("")
        assert main(argv + [target]) == 2
        message = caplog.records[-1].getMessage()
        assert message.startswith("configuration error: cannot create")
        assert repr(target) in message

    def test_allocate_row_semantics(self, tmp_path):
        good = "100,1e7,0.5e9,1e-28,0.0316,0.1,1e6,1e6"
        plain = tmp_path / "plain.csv"
        plain.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain\n" + good + "\n")
        out = tmp_path / "plain_out.csv"
        assert main(["allocate", "--profiles", str(plain), "--bandwidth",
                     "2e6", "--out", str(out)]) == 0
        solved = out.read_text().splitlines()[1]
        # a blank line is skipped and not counted; an empty bandwidth cell
        # falls back to --bandwidth; a repeated name reads its last column;
        # an extra field is ignored
        profiles = tmp_path / "p.csv"
        profiles.write_text(
            "gain,sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain,bandwidth\n"
            "abc," + good + ",\n"
            "\n"
            "abc," + good + ",2e6,extra\n")
        out = tmp_path / "a.csv"
        assert main(["allocate", "--profiles", str(profiles), "--bandwidth",
                     "2e6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1:] == [solved, "1" + solved[1:]]
        # a short row leaves the repeated name's last column missing
        profiles.write_text(
            "sample_count,cycles_per_sample,cpu_hz,power_coeff,"
            "max_power_w,max_energy_j,model_bits,gain,gain\n" + good + "\n")
        assert main(["allocate", "--profiles", str(profiles)]) == 2

    def test_report_of_a_run_without_aggregation(self, tiny_config,
                                                 tmp_path, capsys):
        idle = json.loads(json.dumps(TINY))
        idle["selection"]["n_subchannels"] = 0
        cfg = tmp_path / "idle.yaml"
        cfg.write_text(yaml.safe_dump(idle))
        out = tmp_path / "run_idle"
        main(["baseline", "--policy", "random", "--config", str(cfg),
              "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_report_subcommand(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run_b"
        main(["baseline", "--policy", "random", "--config",
              str(tiny_config), "--out-dir", str(out)])
        capsys.readouterr()
        table = tmp_path / "table.csv"
        assert main(["report", str(out), "--out", str(table)]) == 0
        printed = capsys.readouterr().out
        assert "sum_aoi" in printed
        assert table.exists()
        assert main(["report", str(out), "--out",
                     str(tmp_path / "missing" / "table.csv")]) == 2

    @pytest.mark.parametrize("text", [
        "not json {", '{"summary": {}}', "[1, 2]"])
    def test_report_on_a_malformed_summary_exits_2(self, tmp_path, caplog,
                                                   text):
        (tmp_path / "summary.json").write_text(text)
        assert main(["report", str(tmp_path)]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith("configuration error: malformed "
                                    f"summary.json under {tmp_path}")
        assert "\n" not in errors[0]

    def test_diverged_policy_exits_4(self, tmp_path, caplog):
        data = json.loads(json.dumps(TINY))
        data["mappo"]["learning_rate"] = 1e300
        path = tmp_path / "diverge.yaml"
        path.write_text(yaml.safe_dump(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(path), "--out-dir",
                         str(tmp_path / "r")]) == 4
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "non-finite" in errors[0] and "\n" not in errors[0]

    def test_train_without_a_selectable_device_exits_0(self, tmp_path):
        # a zero drift threshold leaves no device eligible, so no round of
        # an update window records anything
        data = json.loads(json.dumps(TINY))
        data["thresholds"] = {"threshold": 0.0}
        path = tmp_path / "none.yaml"
        path.write_text(yaml.safe_dump(data))
        for cmd in (["baseline", "--policy", "random"], ["train"]):
            assert main(cmd + ["--config", str(path), "--out-dir",
                               str(tmp_path / cmd[0])]) == 0
        assert (tmp_path / "train" / "checkpoint_final.bin").exists()

    def test_out_root_env_var(self, tiny_config, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.setenv("RACE_WFL_OUT_ROOT", str(tmp_path / "root"))
        assert main(["baseline", "--policy", "round_robin", "--config",
                     str(tiny_config)]) == 0
        assert (tmp_path / "root" / "round_robin" / "rounds.csv").exists()

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        for name in ("allocate", "train", "evaluate", "baseline", "verify",
                     "report"):
            assert name in text


def test_config_dict_round_trip():
    cfg = ScenarioConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg
