import json
import re
import subprocess
import sys
import time
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from dacsim.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from dacsim.config import (
    STATE_WIDTH,
    ConfigError,
    load_scenario,
    scenario_to_json,
    validate_scenario,
)
from dacsim.engine import run_scenario
from dacsim.protocols import PROTOCOL_IDS, Z_STATE_PROTOCOLS

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "dacsim" / "scenarios"
ALL_PRESETS = sorted(p.name for p in SCENARIOS.glob("*.json"))


def tiny_scenario(**overrides):
    data = {
        "name": "tiny",
        "graph": {"preset": "fig1a"},
        "protocol": "dc1",
        "params": {"alpha": 1.0, "beta": 1.0},
        "inputs": {"signals": [{"kind": "constant", "params": {"value": float(k)}}
                               for k in range(6)]},
        "horizon": 2.0,
        "step": 0.01,
        "tail_start": 1.5,
    }
    data.update(overrides)
    return data


class TestValidation:
    def test_bundled_case2_parameters(self):
        cfg = load_scenario(SCENARIOS / "case2.json")
        assert cfg.raw["params"]["alpha"] == 3.0
        assert cfg.raw["params"]["beta"] == 10.0
        assert cfg.protocol == "dc1"

    def test_negative_alpha_names_field(self):
        with pytest.raises(ConfigError, match="params.alpha"):
            validate_scenario(tiny_scenario(params={"alpha": -1.0, "beta": 1.0}))

    def test_unknown_key_suggestion(self):
        bad = tiny_scenario()
        bad["params"] = {"alpha_": 1.0, "alpha": 1.0, "beta": 1.0}
        with pytest.raises(ConfigError, match="did you mean 'alpha'"):
            validate_scenario(bad)

    def test_every_violation_reported_at_once(self):
        bad = tiny_scenario(horizon=-1.0, protocol="dc9")
        bad["params"] = {"alpha": 0.0, "beta": 1.0}
        with pytest.raises(ConfigError) as excinfo:
            validate_scenario(bad)
        text = str(excinfo.value)
        assert "horizon" in text and "protocol" in text and "alpha" in text

    def test_exactly_one_topology(self):
        both = tiny_scenario(schedule={"graphs": [{"preset": "fig1a"}],
                                       "segments": [[0.0, 0]], "repeat": "none"})
        with pytest.raises(ConfigError, match="exactly one"):
            validate_scenario(both)
        neither = tiny_scenario()
        del neither["graph"]
        with pytest.raises(ConfigError, match="exactly one"):
            validate_scenario(neither)

    def test_input_count_must_match_topology(self):
        bad = tiny_scenario(inputs={"signals": [{"kind": "constant", "params": {"value": 1}}]})
        with pytest.raises(ConfigError, match="6 nodes"):
            validate_scenario(bad)

    def test_protocol_specific_requirements(self):
        with pytest.raises(ConfigError, match="theta"):
            validate_scenario(tiny_scenario(protocol="dc2"))
        with pytest.raises(ConfigError, match="sat_limits"):
            validate_scenario(tiny_scenario(protocol="dc1_sat"))
        with pytest.raises(ConfigError, match="delta"):
            validate_scenario(tiny_scenario(protocol="dcdisc"))

    def test_unbalanced_graph_needs_waiver(self):
        bad = tiny_scenario(graph={"n": 2, "edges": [[1, 2, 1.0]]},
                            inputs={"signals": [{"kind": "constant", "params": {"value": 1}},
                                                {"kind": "constant", "params": {"value": 2}}]})
        with pytest.raises(ConfigError, match="weight-balanced"):
            validate_scenario(bad)
        bad["waive_graph_checks"] = True
        cfg = validate_scenario(bad)
        assert cfg.protocol == "dc1"

    def test_init_vectors(self):
        cfg = validate_scenario(tiny_scenario(init={"x0": [1, 2, 3, 4, 5, 6]}))
        assert np.array_equal(cfg.x0, [1, 2, 3, 4, 5, 6])
        cfg = validate_scenario(tiny_scenario(init={"x0": "u0"}))
        assert np.array_equal(cfg.x0, np.arange(6.0))
        with pytest.raises(ConfigError, match="init.v0"):
            validate_scenario(tiny_scenario(init={"v0": [1.0]}))

    def test_named_theta_schedule(self):
        data = tiny_scenario(protocol="dc2")
        data["params"] = {"alpha": 1.0, "beta": 1.0,
                          "theta": {"name": "sine", "base": 2.0,
                                    "amplitude": 0.25, "frequency": 1.0}}
        cfg = validate_scenario(data)
        theta = cfg.build_params().theta
        assert np.allclose(theta.lower, 1.5) and np.allclose(theta.upper, 2.5)
        assert np.allclose(theta.at(0.0), 2.0)

    @pytest.mark.parametrize("fname", ALL_PRESETS)
    def test_round_trip(self, fname, tmp_path):
        cfg = load_scenario(SCENARIOS / fname)
        copy = tmp_path / fname
        copy.write_text(scenario_to_json(cfg))
        again = load_scenario(copy)
        assert again == cfg

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)


class TestCli:
    def write(self, tmp_path, data, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    def test_run_writes_artifacts(self, tmp_path, capsys):
        path = self.write(tmp_path, tiny_scenario())
        code = main(["run", str(path), "--out", str(tmp_path / "out"), "--svg"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "tiny: tail sup error" in out
        assert (tmp_path / "out" / "tiny.csv").exists()
        assert (tmp_path / "out" / "tiny_metrics.json").exists()
        svg = (tmp_path / "out" / "tiny.svg").read_text()
        assert "<svg" in svg and "polyline" in svg
        metrics = json.loads((tmp_path / "out" / "tiny_metrics.json").read_text())
        assert metrics["scenario"] == "tiny"
        assert len(metrics["per_agent_sup_error_tail"]) == 6

    def test_svg_title_is_escaped(self, tmp_path):
        name = 'ring <N=6> & "static"'
        path = self.write(tmp_path, tiny_scenario(name=name))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--svg"]) == EXIT_OK
        root = ElementTree.parse(tmp_path / "out" / f"{name}.svg").getroot()
        titles = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
                  if el.get("font-size") == "14"]
        assert titles == [name]

    def test_cli_import_leaves_out_what_a_run_does_not_use(self):
        # argument parsing, the batch pool, urllib.request (which
        # xml.sax.saxutils would load for the SVG title), and difflib (for
        # suggestions on unknown config keys)
        code = ("import sys, dacsim.cli; print(sorted({'argparse', 'concurrent.futures', "
                "'urllib.request', 'difflib'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("outputs,problem", [
        ({"csv": 5}, '"outputs.csv" must be a non-empty file name, got 5'),
        ({"metrics": ""}, '"outputs.metrics" must be a non-empty file name'),
        ({"csv": "a.txt", "metrics": "a.txt"}, '"outputs.metrics" names \'a.txt\', the file of the csv'),
        ({"csv": "tiny_metrics.json"}, '"outputs.metrics" names \'tiny_metrics.json\''),
        ({"svg": "./tiny.csv"}, '"outputs.svg" names \'./tiny.csv\', the file of the csv'),
    ], ids=["not-a-string", "empty", "same-custom-name", "another-default", "same-path"])
    def test_bad_output_names_are_config_errors(self, outputs, problem, tmp_path, capsys):
        path = self.write(tmp_path, tiny_scenario(outputs=outputs))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert problem in capsys.readouterr().out
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--svg"]) == EXIT_CONFIG
        assert problem in capsys.readouterr().out
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_custom_output_names(self, tmp_path):
        outputs = {"csv": "a.csv", "metrics": "m.json", "svg": "tiny.csv.svg"}
        path = self.write(tmp_path, tiny_scenario(outputs=outputs))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--svg"]) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(outputs.values())
        assert json.loads((tmp_path / "out" / "m.json").read_text())["scenario"] == "tiny"

    def test_validate_dry_run(self, capsys):
        code = main(["validate", str(SCENARIOS / "case2.json")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "admissible=True" in out
        assert "nothing executed" in out

    def test_validate_reports_stepsize(self, capsys):
        code = main(["validate", str(SCENARIOS / "sampled_bias.json")])
        assert code == EXIT_OK
        assert "admissible=True" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, tiny_scenario(params={"alpha": -1, "beta": 1}))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert main(["validate", str(path)]) == EXIT_CONFIG

    def test_divergence_exit_code_and_partial(self, tmp_path, capsys):
        data = tiny_scenario(protocol="dcdisc", horizon=250.0)
        data["params"] = {"alpha": 1.0, "beta": 1.0, "delta": 5.0}
        del data["step"]
        path = self.write(tmp_path, data)
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_DIVERGED
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        k = int(re.search(r"at k=(\d+);", out).group(1))
        partial = tmp_path / "out" / "tiny.partial.csv"
        assert f"partial trajectory in {partial}" in out
        lines = partial.read_text().splitlines()
        assert lines[0].startswith("k,t,x1,")
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(k + 1))

    def test_batch_runs_all(self, tmp_path, capsys):
        self.write(tmp_path, tiny_scenario(name="a"), "a.json")
        self.write(tmp_path, tiny_scenario(name="b"), "b.json")
        code = main(["batch", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "a: tail sup error" in out and "b: tail sup error" in out
        assert (tmp_path / "out" / "a.csv").exists()
        assert (tmp_path / "out" / "b.csv").exists()

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ALL_PRESETS:
            assert name in out

    def test_seed_override_changes_samples(self, tmp_path):
        out = tmp_path / "out"
        data = json.loads((SCENARIOS / "sampled_bias.json").read_text())
        data["horizon"] = 10.0
        data["tail_start"] = 8.0
        path = self.write(tmp_path, data)
        main(["run", str(path), "--out", str(out)])
        first = (out / "sampled_bias.csv").read_bytes()
        main(["run", str(path), "--out", str(out), "--seed", "99"])
        assert (out / "sampled_bias.csv").read_bytes() != first

    def test_step_override_is_a_config_error_for_dcdisc(self, tmp_path, capsys):
        # dcdisc steps by params.delta, which --step used to leave as it was
        data = json.loads((SCENARIOS / "sampled_bias.json").read_text())
        data.update(horizon=10.0, tail_start=8.0)
        path = self.write(tmp_path, data, "sampled_bias.json")
        out = tmp_path / "out"
        for argv in (["run", str(path)], ["batch", str(tmp_path)]):
            assert main(argv + ["--out", str(out), "--step", "0.37"]) == EXIT_CONFIG
            assert '"params.delta"' in capsys.readouterr().out
            assert not out.exists() or not any(out.iterdir())
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK

    def test_step_override_sets_the_continuous_step(self, tmp_path):
        self.write(tmp_path, tiny_scenario(), "tiny.json")
        for argv, out in ((["run", str(tmp_path / "tiny.json")], tmp_path / "run"),
                          (["batch", str(tmp_path)], tmp_path / "batch")):
            assert main(argv + ["--out", str(out), "--step", "0.05"]) == EXIT_OK
            times = np.loadtxt(out / "tiny.csv", delimiter=",", skiprows=1, usecols=0)
            np.testing.assert_allclose(times, np.arange(41) * 0.05, rtol=0, atol=1e-12)

    def test_module_entry_point(self):
        # python -m dacsim runs the command line; importing the package
        # does not import its __main__
        proc = subprocess.run([sys.executable, "-m", "dacsim", "presets"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "case1.json" in proc.stdout
        proc = subprocess.run([sys.executable, "-c",
                               "import sys, dacsim; print('dacsim.__main__' in sys.modules)"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_script_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "dacsim.cli", "presets"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "case1.json" in proc.stdout

    def test_cross_process_determinism(self, tmp_path):
        path = self.write(tmp_path, tiny_scenario())
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            proc = subprocess.run(
                [sys.executable, "-m", "dacsim.cli", "run", str(path), "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "tiny.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_every_bundled_preset_executes(self, tmp_path):
        # the full catalog through the parallel batch path; exit 0 for all
        code = main(["batch", str(SCENARIOS), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        for name in ALL_PRESETS:
            assert (tmp_path / "out" / f"{Path(name).stem}.csv").exists()
            assert (tmp_path / "out" / f"{Path(name).stem}_metrics.json").exists()


NAN, INF = float("nan"), float("inf")
NON_NUMBERS = [
    ("params.alpha", {"params": {"alpha": NAN, "beta": 1.0}}),
    ("params.beta", {"params": {"alpha": 1.0, "beta": INF}}),
    ("params.alpha", {"params": {"alpha": True, "beta": 1.0}}),
    ("horizon", {"horizon": INF}),
    ("horizon", {"horizon": -INF}),
    ("step", {"step": NAN}),
    ("tail_start", {"tail_start": NAN}),
    ("seed", {"seed": True}),
    ("seed", {"seed": INF}),
    ("init.x0[2]", {"init": {"x0": [0.0, 0.0, NAN, 0.0, 0.0, 0.0]}}),
    ("inputs.signals[1].params.value",
     {"inputs": {"signals": [{"kind": "constant", "params": {"value": INF if k == 1 else 1.0}}
                             for k in range(6)]}}),
    ("graph.edges[0][2]", {"graph": {"n": 2, "edges": [[1, 2, NAN], [2, 1, 1.0]]}}),
    ("graph.n", {"graph": {"n": INF, "edges": []}}),
]


class TestNonFiniteAndBooleanNumbers:
    @pytest.mark.parametrize("field,override", NON_NUMBERS)
    def test_validate_rejects(self, field, override):
        with pytest.raises(ConfigError) as excinfo:
            validate_scenario(tiny_scenario(**override))
        assert f'"{field}"' in str(excinfo.value)

    @pytest.mark.parametrize("field,override", NON_NUMBERS)
    def test_cli_exits_with_config_error(self, field, override, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tiny_scenario(**override)))  # NaN/Infinity literals
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert field in capsys.readouterr().out
        assert not (tmp_path / "out" / "tiny.csv").exists()

    def test_flag_still_takes_a_boolean(self):
        cfg = validate_scenario(tiny_scenario(waive_graph_checks=True))
        assert cfg.protocol == "dc1"

    def test_step_count_overflow(self):
        with pytest.raises(ConfigError, match="than can be counted"):
            validate_scenario(tiny_scenario(horizon=1e308, step=1e-3))


class TestScheduleEnd:
    """A schedule must run past the horizon whatever the waiver: the run
    reads the digraph at t = horizon, and graph_at is undefined from the
    schedule's end_time on."""

    @staticmethod
    def scenario(protocol, end_time, waive):
        data = tiny_scenario(protocol=protocol, horizon=4.0, tail_start=3.0,
                             params={"alpha": 1.0, "beta": 1.0, "sat_limits": 5.0},
                             schedule={"graphs": [{"preset": "fig1a"}, {"preset": "fig1b"}],
                                       "segments": [[0.0, 0], [1.0, 1]],
                                       "end_time": end_time})
        del data["graph"]
        if waive:
            data["waive_graph_checks"] = True
        return data

    @pytest.mark.parametrize("end_time", [2.0, 4.0])
    @pytest.mark.parametrize("waive", [False, True])
    @pytest.mark.parametrize("protocol", ["dc1", "dc1_sat"])  # affine and closure paths
    def test_end_at_or_before_the_horizon_is_a_config_error(self, protocol, waive, end_time,
                                                            tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(self.scenario(protocol, end_time, waive)))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().out.count('"end_time" must be a number beyond the horizon') == 2
        assert not (tmp_path / "out" / "tiny.csv").exists()

    @pytest.mark.parametrize("protocol", ["dc1", "dc1_sat"])
    def test_end_past_the_horizon_runs_under_the_waiver(self, protocol, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(self.scenario(protocol, 5.0, waive=True)))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "tiny.csv").exists()


@pytest.mark.parametrize("protocol", [p for p in PROTOCOL_IDS if p != "dcdisc"])
def test_z_state_protocols_named_once(protocol):
    """Z_STATE_PROTOCOLS decides both which runs keep z and which configs
    need a theta gain."""
    keeps_z = protocol in Z_STATE_PROTOCOLS
    no_theta = tiny_scenario(protocol=protocol, params={"alpha": 1.0, "beta": 1.0,
                                                        "sat_limits": 5.0})
    if keeps_z:
        with pytest.raises(ConfigError, match='requires "params.theta"'):
            validate_scenario(no_theta)
    else:
        validate_scenario(no_theta)
    cfg = validate_scenario(tiny_scenario(protocol=protocol, params={
        "alpha": 1.0, "beta": 1.0, "theta": 2.0, "sat_limits": 5.0}))
    traj, _, _ = run_scenario(cfg)
    assert (traj.z is not None) == keeps_z
    if keeps_z:
        assert traj.z.shape == traj.x.shape
    assert STATE_WIDTH[protocol] == (3 if keeps_z else 2)


class TestStateBudget:
    def test_long_horizon_rejected_before_the_admissibility_scan(self, tmp_path, capsys):
        # 1e9 rows of 12 states; the schedule scan alone took ~20 s.  Every
        # bundled scenario stays within the budget (test_round_trip loads them)
        data = json.loads((SCENARIOS / "case1.json").read_text())
        data.update(horizon=1e6, tail_start=9e5)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="budget") as excinfo:
            validate_scenario(data)
        assert time.perf_counter() - start < 1.0
        assert len(excinfo.value.problems) == 1
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().out.count("budget") == 2


def test_agent_count_resolved_at_validation(monkeypatch):
    from dacsim.config import ScenarioConfig
    cfg = validate_scenario(tiny_scenario(protocol="dc2", params={
        "alpha": 1.0, "beta": 1.0, "theta": 2.0, "sat_limits": 3.0}))
    assert cfg.n == 6

    def no_rebuild(self):
        raise AssertionError("build_params rebuilt the topology")

    monkeypatch.setattr(ScenarioConfig, "build_topology", no_rebuild)
    params = cfg.build_params()
    assert params.theta.lower.shape == (6,) and params.sat_limits.shape == (6,)
