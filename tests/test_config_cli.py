import json
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from dacsim import cli, config
from dacsim.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from dacsim.config import (
    INIT_KEYS,
    OUTPUT_SUFFIXES,
    PARAM_KEYS,
    STATE_WIDTH,
    TOP_KEYS,
    ConfigError,
    load_scenario,
    validate_scenario,
)
from dacsim.engine import run_scenario
from dacsim.protocols import PROTOCOL_IDS, Z_STATE_PROTOCOLS
from dacsim.signals import SIGNAL_KEYS
from dacsim.switching import SCHEDULE_KEYS

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "dacsim" / "scenarios"
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
        copy.write_text(json.dumps(cfg.raw, indent=2, sort_keys=True))
        again = load_scenario(copy)
        assert again == cfg

    @pytest.mark.parametrize("fname", ["static.json", "sampled_bias.json"])
    def test_name_defaults_to_the_file_stem(self, fname, tmp_path):
        data = json.loads((SCENARIOS / fname).read_text())
        del data["name"]
        path = tmp_path / "unnamed.json"
        path.write_text(json.dumps(data))
        cfg = load_scenario(path)
        assert cfg.name == "unnamed" and cfg.outputs["csv"] == "unnamed.csv"

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
        # xml.sax.saxutils would load for the SVG title), difflib (for
        # suggestions on unknown config keys), and the CSV and SVG writers,
        # which only the runs that write them compile
        code = ("import sys, dacsim.cli; print(sorted({'argparse', 'concurrent.futures', "
                "'urllib.request', 'difflib', 'dacsim.csvformat', 'dacsim.svgplot'} "
                "& set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("overrides,problem", [
        ({"outputs": {"csv": 5}}, '"outputs.csv" must be a non-empty file name, got 5'),
        ({"outputs": {"metrics": ""}}, '"outputs.metrics" must be a non-empty file name'),
        ({"outputs": {"csv": "a.txt", "metrics": "a.txt"}},
         '"outputs.metrics" names \'a.txt\', the file of the csv'),
        ({"outputs": {"csv": "tiny_metrics.json"}}, '"outputs.metrics" names \'tiny_metrics.json\''),
        ({"outputs": {"svg": "./tiny.csv"}}, '"outputs.svg" names \'./tiny.csv\', the file of the csv'),
        # "{elsewhere}" is a directory beside --out
        ({"name": "{elsewhere}/x"}, '"name" must be a file name with no directory part'),
        ({"name": "../x"}, '"name" must be a file name with no directory part, got \'../x\''),
        ({"name": "sub/x"}, '"name" must be a file name with no directory part, got \'sub/x\''),
        ({"name": ".."}, '"name" must be a file name with no directory part, got \'..\''),
        ({"outputs": {"csv": "{elsewhere}/x.csv"}},
         '"outputs.csv" must be a file name with no directory part'),
        ({"outputs": {"metrics": "../m.json"}},
         '"outputs.metrics" must be a file name with no directory part, got \'../m.json\''),
        ({"outputs": {"svg": "sub/p.svg"}},
         '"outputs.svg" must be a file name with no directory part, got \'sub/p.svg\''),
        ({"outputs": {"csv": "."}}, '"outputs.csv" must be a file name with no directory part'),
        ({"outputs": {"csv": ".."}}, '"outputs.csv" must be a file name with no directory part'),
    ], ids=["not-a-string", "empty", "same-custom-name", "another-default", "same-path",
            "absolute-name", "parent-name", "sub-name", "dotdot-name", "absolute-output",
            "parent-output", "sub-output", "dot-output", "dotdot-output"])
    def test_bad_output_names_are_config_errors(self, overrides, problem, tmp_path, capsys):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        overrides = json.loads(json.dumps(overrides).replace("{elsewhere}", str(elsewhere)))
        path = self.write(tmp_path, tiny_scenario(**overrides))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert problem in capsys.readouterr().out
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--svg"]) == EXIT_CONFIG
        assert problem in capsys.readouterr().out
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
        # nothing was written beside --out or elsewhere either
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["elsewhere", path.name] + (["out"] if (tmp_path / "out").exists() else []))
        assert not any(elsewhere.iterdir())

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
    @pytest.mark.parametrize("fname", ALL_PRESETS)
    def test_width_is_the_run_storage(self, fname):
        # the budget counts the columns of the array that a run stores its
        # state in: (x, v), (x, v, z), or dcdisc's (z, v, u); twenty steps
        # of each bundled scenario show it
        data = json.loads((SCENARIOS / fname).read_text())
        unit = data["params"].get("delta") or data.get("step", config.DEFAULT_STEP)
        data.update(horizon=20 * unit, tail_start=15 * unit)
        cfg = validate_scenario(data)
        traj, _, _ = run_scenario(cfg)
        assert STATE_WIDTH[cfg.protocol] * cfg.n == traj.x.base.shape[1]

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

    def test_row_count_of_a_tiny_step_is_printed_short(self, tmp_path, capsys):
        # a step of 1e-300 gives about 4e301 stored rows, an exact integer
        # of 302 digits: it is printed to three figures, like the product
        data = json.loads((SCENARIOS / "static.json").read_text())
        data.update(step=1e-300)
        with pytest.raises(ConfigError, match="budget") as excinfo:
            validate_scenario(data)
        [problem] = [p for p in excinfo.value.problems if "budget" in p]
        assert re.search(r"gives \d\.\d*e\+\d+ stored rows", problem), problem
        path = tmp_path / "tiny_step.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "budget" in out and not re.search(r"\d{20}", out), out

    @pytest.mark.parametrize("period,message", [
        (1e-4, r"switching boundary 5e-05 is not a multiple of the step h = 0\.01"),
        (1e-9, r"schedule period 1e-09 is shorter than the step h = 0\.01")])
    def test_dense_schedule_rejected_before_it_is_unrolled(self, period, message, tmp_path,
                                                           capsys):
        # case1 on two digraphs that switch every period / 2.  One period's
        # switches are checked before the schedule is unrolled into its 2e6
        # (2e11) switches: unrolling first took 6.5 s untraced, and 81 MB
        # traced, to reject the 1e-4 period
        data = json.loads((SCENARIOS / "case1.json").read_text())
        data["schedule"].update(segments=[[0.0, 0], [period / 2, 1]], repeat={"cyclic": period})
        data.update(horizon=100.0, tail_start=75.0, step=0.01)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ConfigError) as excinfo:
                validate_scenario(data)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [problem] = excinfo.value.problems
        assert re.search(message, problem), problem
        assert elapsed < 1.0 and peak < 2 ** 20, (elapsed, peak)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == EXIT_CONFIG == 1
        assert re.search(message, capsys.readouterr().out)


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


def shortened(fname, horizon):
    """A bundled scenario, validated with a shorter horizon."""
    data = json.loads((SCENARIOS / fname).read_text())
    data.update(horizon=horizon, tail_start=0.75 * horizon)
    return validate_scenario(data, name=Path(fname).stem)


class TestBuiltOnce:
    """validate_scenario builds the topology, the inputs and the parameters,
    and a run reads them from the config."""

    @pytest.mark.parametrize("fname", ["case1.json", "masked.json", "static.json",
                                       "sampled_bias.json"])
    def test_a_run_builds_nothing(self, fname, tmp_path, monkeypatch):
        cfg = shortened(fname, 4.0)

        def boom(*args, **kwargs):
            raise AssertionError("a run rebuilt a scenario object")

        for name in ("graph_from_json", "schedule_from_json", "preset_scenario",
                     "signal_from_json"):
            monkeypatch.setattr(config, name, boom)
        assert cfg.build_inputs() is cfg.inputs and cfg.build_params() is cfg.params
        assert cfg.build_topology() is cfg.topology
        run_scenario(cfg)
        code, line = cli.execute(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, line

    def test_nonpositive_limits_are_a_config_error(self, tmp_path, capsys):
        data = tiny_scenario(protocol="dc1_sat", params={"alpha": 1.0, "beta": 1.0,
                                                         "sat_limits": -1.0})
        with pytest.raises(ConfigError, match="saturation limits must be positive"):
            validate_scenario(data)
        path = tmp_path / "sat.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize("fname", ["static.json", "sampled_bias.json"])
    def test_outputs_agree_across_run_batch_and_repeated_execute(self, fname, tmp_path):
        # dacsim run, dacsim batch, and two cli.execute calls on one config,
        # the second reusing the objects the first ran on
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.copy(SCENARIOS / fname, alone / fname)
        assert main(["run", str(SCENARIOS / fname), "--out", str(tmp_path / "run")]) == EXIT_OK
        assert main(["batch", str(alone), "--out", str(tmp_path / "batch")]) == EXIT_OK
        cfg = load_scenario(SCENARIOS / fname)
        for out in ("first", "second"):
            assert cli.execute(cfg, tmp_path / out, quiet=True)[0] == EXIT_OK
        for kind in ("csv", "metrics"):
            files = {(tmp_path / out / cfg.outputs[kind]).read_bytes()
                     for out in ("run", "batch", "first", "second")}
            assert len(files) == 1, kind


class TestDcdiscHorizonGrid:
    """dcdisc's horizon is a whole number of "params.delta" steps to within
    GRID_ALIGN_TOL steps, the rule of the continuous protocols' horizon."""

    def write(self, tmp_path, horizon):
        data = json.loads((SCENARIOS / "sampled_bias.json").read_text())
        data.update(horizon=horizon, tail_start=8.0)
        path = tmp_path / "sampled_bias.json"
        path.write_text(json.dumps(data))
        return path

    def test_off_the_delta_grid_exits_1(self, tmp_path, capsys):
        path = self.write(tmp_path, 10.05)  # 20.1 steps of 0.5
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert '"horizon" 10.05 is not a multiple of the step "params.delta" = 0.5' in out
        assert 'try "params.delta" = ' in out

    def test_within_the_tolerance_runs(self, tmp_path):
        # 5e-7 steps off the grid: inside GRID_ALIGN_TOL = 1e-6 steps
        path = self.write(tmp_path, 10.0 + 2.5e-7)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        k = np.loadtxt(tmp_path / "out" / "sampled_bias.csv", delimiter=",",
                       skiprows=1, usecols=0)
        assert k[-1] == 20


class TestOneAgent:
    """Consensus needs two agents: a one-agent graph or schedule is a
    config error, not a traceback from the spectral summary or from dcdisc's
    stepsize bound."""

    ONE = {"signals": [{"kind": "constant", "params": {"value": 1.0}}]}

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("protocol,topology,where", [
        ("dc1", {"graph": {"n": 1, "edges": []}}, "graph"),
        ("dc1", {"schedule": {"graphs": [{"n": 1, "edges": []}], "segments": [[0.0, 0]]}},
         "schedule"),
        ("dcdisc", {"graph": {"n": 1, "edges": []}}, "graph"),
    ], ids=["dc1-graph", "dc1-schedule", "dcdisc-graph"])
    def test_is_a_config_error(self, command, protocol, topology, where, tmp_path, capsys):
        data = tiny_scenario(protocol=protocol, inputs=self.ONE, **topology)
        if protocol == "dcdisc":
            data["params"] = {"alpha": 1.0, "beta": 1.0, "delta": 0.5}
            del data["step"]
        if where == "schedule":
            del data["graph"]
        path = tmp_path / "one.json"
        path.write_text(json.dumps(data))
        args = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(args) == EXIT_CONFIG
        assert f"the {where} has 1 agent; average consensus needs at least two" \
            in capsys.readouterr().out
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def cli_on(tmp_path, data, *args):
    """``dacsim *args <file>`` on data written to a file; the exit code."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return main([*args, str(path)])


def scheduled(schedule):
    data = tiny_scenario(schedule=schedule)
    del data["graph"]
    return data


class TestScheduleWithoutSwitch:
    """A schedule that never switches has an infinite dwell time."""

    SCHEDULE = {"graphs": [{"preset": "fig1a"}], "segments": [[0.0, 0]]}

    def test_validates_and_runs(self, tmp_path, capsys):
        data = scheduled(self.SCHEDULE)
        assert cli_on(tmp_path, data, "validate") == EXIT_OK
        out = capsys.readouterr().out
        assert "dwell_min=inf" in out and "admissible=True" in out
        assert cli_on(tmp_path, data, "run", "--out", str(tmp_path / "out")) == EXIT_OK
        assert (tmp_path / "out" / "tiny.csv").is_file()


RING_EDGES = [[k, k % 6 + 1, 1.0] for k in range(1, 7)]


class TestIntegerFields:
    """A node count, an edge endpoint or a segment's digraph index is a JSON
    integer or an integral float; anything else is a config error that names
    the field, not a truncated value."""

    @pytest.mark.parametrize("data,message", [
        (tiny_scenario(graph={"n": 6.7, "edges": RING_EDGES}),
         'digraph "n" must be an integer, got 6.7'),
        (tiny_scenario(graph={"n": "6", "edges": RING_EDGES}),
         "digraph \"n\" must be an integer, got '6'"),
        (tiny_scenario(graph={"n": 6, "edges": [[1, 2.9, 1.0]] + RING_EDGES[1:]}),
         "a node index of edge [1, 2.9, 1.0] must be an integer, got 2.9"),
        (scheduled({"graphs": [{"preset": "fig1a"}], "segments": [[0.0, 0.5]]}),
         "a segment's digraph index must be an integer, got 0.5"),
    ], ids=["n-fraction", "n-string", "edge-endpoint", "segment-index"])
    def test_non_integer_is_a_config_error(self, data, message, tmp_path, capsys):
        assert cli_on(tmp_path, data, "validate") == EXIT_CONFIG
        assert message in capsys.readouterr().out

    def test_integral_floats_are_accepted(self):
        edges = [[float(i), float(j), w] for i, j, w in RING_EDGES]
        cfg = validate_scenario(tiny_scenario(graph={"n": 6.0, "edges": edges}))
        assert cfg.n == 6
        cfg = validate_scenario(scheduled({"graphs": [{"preset": "fig1a"}],
                                           "segments": [[0.0, 0.0]]}))
        assert cfg.topology.segments == ((0.0, 0),)


def with_signal(signal, **overrides):
    """tiny_scenario with agent 1's input replaced by signal."""
    data = tiny_scenario(**overrides)
    data["inputs"]["signals"][0] = signal
    return data


SINE = {"kind": "sine", "params": {"amplitude": 1.0}}
ONE_SEGMENT = {"graphs": [{"preset": "fig1a"}], "segments": [[0.0, 0]]}


@pytest.mark.parametrize("data,needle", [
    (with_signal(dict(SINE, derivative_mode="central_difference")), "'derivative_mode'"),
    (with_signal(dict(SINE, h_d=1e-6)), "'h_d'"),
    (scheduled(dict(ONE_SEGMENT, dwell_min=1.0)), "'dwell_min'"),
    (scheduled(dict(ONE_SEGMENT, end_time=5.0)), "'end_time'"),
    (tiny_scenario(protocol="dc2", params={
        "alpha": 1.0, "beta": 1.0, "theta": {"name": "constant", "values": 1.0}}),
     "'name': 'constant'"),
], ids=["derivative_mode", "h_d", "dwell_min", "end_time", "theta-constant"])
def test_removed_option_is_a_config_error(data, needle, tmp_path, capsys):
    """Options with one value in use were removed; a config that still sets
    one is rejected with a message that names it."""
    assert cli_on(tmp_path, data, "validate") == EXIT_CONFIG
    assert cli_on(tmp_path, data, "run", "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().out.count(needle) == 2


class TestSignalParameters:
    """A parameter that a signal's kind does not read is a config error that
    names the kind and the key, not a default taken in silence."""

    TYPO = {"kind": "sine", "params": {"amplitud": 2, "frequncy": 3}}

    @pytest.mark.parametrize("data", [
        with_signal(TYPO),
        with_signal({"kind": "sum-of-terms", "params": {"terms": [TYPO]}}),
        tiny_scenario(protocol="dc3", params={"alpha": 1.0, "beta": 1.0, "theta": 1.0,
                                              "psi": TYPO}),
    ], ids=["input", "term", "psi"])
    def test_unread_parameter(self, data, tmp_path, capsys):
        assert cli_on(tmp_path, data, "validate") == EXIT_CONFIG
        assert cli_on(tmp_path, data, "run", "--out", str(tmp_path / "out")) == EXIT_CONFIG
        message = "signal kind 'sine' has unknown parameter(s) ['amplitud', 'frequncy']"
        assert capsys.readouterr().out.count(message) == 2
        assert not (tmp_path / "out" / "tiny.csv").exists()


def pole(**params):
    """(t + 0) ** -power: a pole of u at t = 0, or with a negative power of
    its derivative alone."""
    return {"kind": "reciprocal-power", "params": {"coefficient": 1, "shift": 0, **params}}


class TestInputsFiniteAtZero:
    """u(0) sets the initial state and du/dt(0) the continuous dynamics and
    the bounds: an input with a pole at t = 0 is a config error naming the
    agent, not a traceback or a divergence blamed on the stepsize."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("signal,init,message", [
        (pole(), {"x0": "u0"}, "u(0) = inf, du/dt(0) = -inf"),
        (pole(power=-0.5), {}, "du/dt(0) = inf"),
    ], ids=["value", "derivative"])
    def test_is_a_config_error(self, signal, init, message, tmp_path, capsys):
        data = with_signal(signal, init=init)
        assert cli_on(tmp_path, data, "validate") == EXIT_CONFIG
        assert cli_on(tmp_path, data, "run", "--out", str(tmp_path / "out")) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert out.count(f"the input of agent 1 is not finite at t = 0: {message}\n") == 2
        assert not (tmp_path / "out" / "tiny.csv").exists()

    def test_dcdisc_reads_no_derivative(self):
        data = with_signal(pole(power=-0.5), protocol="dcdisc",
                           params={"alpha": 1.0, "beta": 0.5, "delta": 0.01})
        assert validate_scenario(data).protocol == "dcdisc"


def test_readme_names_every_accepted_key():
    """README's Scenario JSON block shows every key that validation accepts."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Scenario JSON", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    keys = (TOP_KEYS | PARAM_KEYS | INIT_KEYS | set(OUTPUT_SUFFIXES)
            | SCHEDULE_KEYS | SIGNAL_KEYS)
    assert sorted(k for k in keys if f'"{k}"' not in block) == []
