"""Command-line front end.

Subcommands:
  run <config>       simulate, write CSV + metrics JSON (+ SVG with --svg)
  validate <config>  print graph/schedule/stepsize diagnostics, run nothing
  batch <dir>        run every *.json in a directory in parallel
  presets            list the bundled scenario files

Exit codes: 0 ok, 1 config error, 2 divergence, 3 I/O failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, load_scenario, read_scenario, validate_scenario
from .discrete import max_stepsize, pdelta_spectrum_check
from .engine import DivergenceError, run_scenario, write_trajectory_csv
from .graphs import WeightedDigraph, is_strongly_connected, is_weight_balanced, spectral_summary
from .switching import validate_admissible

EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO = 0, 1, 2, 3


def _load_with_overrides(path, seed=None, step=None):
    """The scenario file with the overrides set in its JSON, validated once."""
    data, name = read_scenario(path)
    if isinstance(data, dict):
        if step is not None and data.get("protocol") == "dcdisc":
            raise ConfigError([f"--step {step:g} does not apply to dcdisc, which steps by "
                               '"params.delta"; set "params.delta" in the config instead'])
        data.update((key, value) for key, value in (("seed", seed), ("step", step))
                    if value is not None)
    return validate_scenario(data, name=name)


def _metrics_payload(cfg, traj, report):
    payload = asdict(report)
    payload["per_agent_sup_error_tail"] = report.per_agent_sup_error_tail.tolist()
    payload["fitted_rate"] = [None if np.isnan(r) else float(r) for r in report.fitted_rate]
    payload.update({
        "scenario": cfg.name,
        "protocol": cfg.protocol,
        "seed": cfg.seed,
        "horizon": cfg.horizon,
        "ultimate_bound": traj.meta.get("ultimate_bound"),
        "lambda_hat_2": traj.meta.get("lambda_hat_2"),
        "offset_prediction": traj.meta.get("offset_prediction"),
    })
    return payload


def _stepsize_note(cfg, traj) -> None:
    """Say on stderr when a dcdisc run's delta is not below ``max_stepsize``,
    whose bound is sufficient, not necessary: the run goes on."""
    meta = traj.meta if traj is not None else {}
    if "bound" in meta and not meta["delta"] < meta["bound"]:
        print(f"{cfg.name}: stepsize delta={meta['delta']:g} is not below the sufficient "
              f"bound {meta['bound']:.6g}; convergence is not guaranteed", file=sys.stderr)


def execute(scenario, out_dir, svg=False, seed=None, step=None, quiet=False):
    """Run one scenario (a file path or an already-validated ScenarioConfig);
    returns (exit_code, summary line) and writes CSV/metrics/SVG artifacts."""
    if isinstance(scenario, ScenarioConfig):
        cfg = scenario
    else:
        try:
            cfg = _load_with_overrides(scenario, seed=seed, step=step)
        except ConfigError as exc:
            return EXIT_CONFIG, f"{Path(scenario).name}: {exc}"

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return EXIT_IO, f"{cfg.name}: cannot create output directory: {exc}"

    try:
        traj, report, curves = run_scenario(cfg)
    except DivergenceError as exc:
        _stepsize_note(cfg, exc.partial)
        line = f"{cfg.name}: DIVERGED at t={exc.t:.6g} ({exc})"
        if exc.partial is not None:
            try:
                partial_path = out_dir / f"{cfg.name}.partial.csv"
                write_trajectory_csv(partial_path, exc.partial)
                line += f"; partial trajectory in {partial_path}"
            except OSError:
                pass
        return EXIT_DIVERGED, line
    _stepsize_note(cfg, traj)

    try:
        write_trajectory_csv(out_dir / cfg.outputs["csv"], traj, curves)
        with open(out_dir / cfg.outputs["metrics"], "w") as fh:
            json.dump(_metrics_payload(cfg, traj, report), fh, indent=2)
        if svg:
            # imported here: only --svg runs compile it and build its tables
            from .svgplot import render_svg

            render_svg(out_dir / cfg.outputs["svg"], traj, title=cfg.name)
    except OSError as exc:
        return EXIT_IO, f"{cfg.name}: failed to write outputs: {exc}"

    tail_err = float(report.per_agent_sup_error_tail.max())
    ult = traj.meta.get("ultimate_bound")
    if ult is not None:
        # a zero bound (zero-error input class) is asymptotic; allow the
        # finite-horizon residual when judging the run
        verdict = "ok" if tail_err <= ult * 1.05 + 1e-6 else "exceeds"
        line = (f"{cfg.name}: tail sup error {tail_err:.3e} vs ultimate bound "
                f"{ult:.3e} [{verdict}]")
    else:
        line = f"{cfg.name}: tail sup error {tail_err:.3e} (no bound applies)"
    if not quiet:
        print(line)
    return EXIT_OK, line


def _cmd_run(args):
    code, line = execute(args.config, args.out, svg=args.svg,
                         seed=args.seed, step=args.step, quiet=True)
    print(line)
    return code


def _cmd_validate(args):
    try:
        cfg = load_scenario(args.config)
    except ConfigError as exc:
        print(exc)
        return EXIT_CONFIG
    print(f"scenario {cfg.name!r}: protocol={cfg.protocol}, horizon={cfg.horizon}, "
          f"step={cfg.step}, tail_start={cfg.tail_start}, seed={cfg.seed}")
    topology = cfg.build_topology()
    if isinstance(topology, WeightedDigraph):
        spec = spectral_summary(topology)
        print(f"fixed digraph: n={topology.n}, weight_balanced="
              f"{is_weight_balanced(topology)}, strongly_connected="
              f"{is_strongly_connected(topology)}")
        print(f"  lambda_hat_2={spec.lambda_hat_2:.6g}, Re(lambda_2)={spec.re_lambda_2:.6g}, "
              f"d_max_out={spec.d_max_out:.6g}")
        if cfg.protocol == "dcdisc":
            p = cfg.build_params()
            bound = max_stepsize(p.alpha, p.beta, spec.d_max_out)
            rep = pdelta_spectrum_check(topology, p.alpha, p.beta, cfg.delta)
            print(f"  stepsize delta={cfg.delta} vs bound {bound:.6g} "
                  f"(admissible={cfg.delta < bound}); semi-convergent one-step "
                  f"matrix: {rep.semi_convergent}")
    else:
        report = cfg.admissibility or validate_admissible(topology, horizon=cfg.horizon)
        print(f"switching schedule: {len(topology.graphs)} digraphs, "
              f"dwell_min={topology.dwell_min}, "
              f"repeat={'cyclic %g' % topology.period if topology.period else 'none'}")
        print(f"  all_balanced={report.all_balanced}, "
              f"recurrent={report.recurrent}, admissible={report.admissible}")
        for a, b in report.joint_connectivity_intervals[:8]:
            print(f"  jointly strongly connected on [{a:g}, {b:g})")
        for note in report.notes:
            print(f"  note: {note}")
    print("config OK (dry run; nothing executed)")
    return EXIT_OK


def _batch_worker(job):
    path, out, svg, seed, step = job
    return execute(path, out, svg=svg, seed=seed, step=step, quiet=True)


def _cmd_batch(args):
    files = sorted(Path(args.dir).glob("*.json"))
    if not files:
        print(f"no scenario files in {args.dir}")
        return EXIT_CONFIG
    import concurrent.futures  # only batch runs a pool: kept out of every run's set-up

    jobs = [(str(f), args.out, args.svg, args.seed, args.step) for f in files]
    worst = EXIT_OK
    with concurrent.futures.ProcessPoolExecutor() as pool:
        for code, line in pool.map(_batch_worker, jobs):
            print(line)
            worst = max(worst, code)
    return worst


def _cmd_presets(args):
    root = resources.files("dacsim").joinpath("scenarios")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            data = json.loads(entry.read_text())
            print(f"{entry.name:24s} protocol={data.get('protocol', '?'):8s} "
                  f"{data.get('description', '')}")
    return EXIT_OK


def build_parser():
    import argparse  # only the command line parses arguments: kept out of every run's set-up

    parser = argparse.ArgumentParser(
        prog="dacsim",
        description="Simulate dynamic average consensus protocols and check "
                    "their error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("config", help="path to a scenario JSON file")
    _common_flags(run)
    run.set_defaults(fn=_cmd_run)

    val = sub.add_parser("validate", help="check a scenario config without running it")
    val.add_argument("config")
    val.set_defaults(fn=_cmd_validate)

    batch = sub.add_parser("batch", help="run every *.json scenario in a directory")
    batch.add_argument("dir")
    _common_flags(batch)
    batch.set_defaults(fn=_cmd_batch)

    presets = sub.add_parser("presets", help="list bundled scenario presets")
    presets.set_defaults(fn=_cmd_presets)
    return parser


def _common_flags(p):
    p.add_argument("--out", default="out", help="output directory (default: ./out)")
    p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--step", type=float, default=None,
                   help="override the integration step of a continuous protocol")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
