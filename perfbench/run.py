"""dacsim benchmark: end-to-end and per-layer metrics of ``dacsim run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --survey

Run from the root of a source checkout; the package is imported from its
``src/`` directory and from nowhere else.  Every sample is one ``dacsim run``
in a fresh interpreter (``worker.py``), one at a time (closed loop, one
client).  ``--trace 0`` measures set-up, run time and peak memory untraced;
``--trace 1`` adds traced samples and reports the per-layer metrics.  Every
sample's artefacts are checked (``check.py``).  The last line printed is one
JSON object: correct, attempted, failed and the metrics.  Everything else is
also written to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORK = HERE / ".work"

SETUP_PROBES = 2      # set-up-only interpreters before each untraced sample
MIN_TRACED = 2        # traced samples per traced run (their counts must match)
OVERRUN = 1.1         # a sample starts only if it should end by OVERRUN * --seconds
HARD_LIMIT_S = 170.0  # no run may take longer than this, whatever --seconds says

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SampleError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = SRC / "dacsim"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(seed) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


class Runner:
    """Runs worker samples for one benchmark invocation under a hard deadline."""

    def __init__(self, work: Path, limit_s: float | None = HARD_LIMIT_S):
        self.work = work
        self.deadline = None if limit_s is None else time.monotonic() + limit_s
        self.env = worker_env()
        self.n = 0

    def call(self, mode, scenario, svg=False):
        self.n += 1
        out = self.work / f"sample{self.n}"
        cmd = [sys.executable, str(WORKER), mode, str(scenario)]
        if mode != "setup":
            cmd += [str(out)] + (["--svg"] if svg else [])
        timeout = None if self.deadline is None else self.deadline - time.monotonic()
        if timeout is not None and timeout <= 0:
            raise SampleError("hard time limit reached")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout, cwd=self.work)
        except subprocess.TimeoutExpired as exc:
            raise SampleError("hard time limit reached") from exc
        if proc.returncode != 0:
            raise SampleError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["dacsim_file"]).resolve().is_relative_to(SRC.resolve()):
            raise SampleError(f"imported dacsim from {result['dacsim_file']}, not {SRC}")
        return result, out


def prepare(name, seed, work):
    """Scenario path, svg flag, the checker of one sample's output directory,
    and the workload's provenance."""
    wl = workloads.WORKLOADS[name]
    if wl.scenario is None:
        scenario = workloads.write_wide_scenario(seed, work / "discrete_wide.json")
        data = json.loads(scenario.read_text())
        workloads.check_wide_scenario(data)
        expected = workloads.discrete_reference(data)

        def checker(out):
            return check.check_discrete(out, data["name"], expected)
    else:
        scenario = ROOT / workloads.SCENARIO_DIR / wl.scenario
        reference = json.loads((HERE / "reference" / f"{name}.json").read_text())
        stale = reference["scenario_sha256"] != workloads.sha256_file(scenario)
        stem = scenario.stem

        def checker(out):
            res = check.check_bundled(out, stem, reference, wl.svg)
            if stale:
                res.problems.append(f"{scenario.name} differs from the one the reference "
                                    "was recorded with")
            return res
    info = {"workload": name, "scenario": str(scenario.relative_to(ROOT)),
            "scenario_sha256": workloads.sha256_file(scenario), "svg": wl.svg}
    return scenario, wl.svg, checker, info


def checked_sample(runner, mode, scenario, svg, checker, samples):
    """One run or trace sample, its output checked and then deleted."""
    t0 = time.monotonic()
    entry = {"mode": mode}
    try:
        result, out = runner.call(mode, scenario, svg)
    except SampleError as exc:
        entry.update(ok=False, problems=[str(exc)], wall_s=time.monotonic() - t0)
        samples.append(entry)
        return entry
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}: {result['summary']}")
    res = checker(out)
    problems += res.problems + result.get("trace_problems", [])
    shutil.rmtree(out, ignore_errors=True)
    entry.update(result, ok=not problems, problems=problems, max_rel_diff=res.max_rel_diff,
                 wall_s=time.monotonic() - t0)
    samples.append(entry)
    return entry


def keep_sampling(started, samples, seconds, minimum) -> bool:
    """Start another sample only if one more, at the mean cost so far, ends by
    OVERRUN * seconds."""
    if len(samples) < minimum:
        return True
    elapsed = time.monotonic() - started
    return elapsed * (len(samples) + 1) / len(samples) <= OVERRUN * seconds


def measure(args, runner, scenario, svg, checker):
    samples, setups = [], []
    if args.trace:
        # untraced and traced samples alternate, so the overhead estimate
        # compares samples taken on the same machine state
        started = time.monotonic()
        traced = []
        while keep_sampling(started, traced, args.seconds, MIN_TRACED):
            checked_sample(runner, "run", scenario, svg, checker, samples)
            checked_sample(runner, "trace", scenario, svg, checker, traced)
        samples += traced
    else:
        runner.call("setup", scenario)  # warm-up: byte-code cache and page cache
        started = time.monotonic()
        while keep_sampling(started, samples, args.seconds, 1):
            # set-up probes are spread over the run, so that their median sees
            # the same machine as the samples do
            for _ in range(SETUP_PROBES):
                setups.append(runner.call("setup", scenario)[0])
            checked_sample(runner, "run", scenario, svg, checker, samples)
    return samples, setups


def e2e_metrics(samples, setups) -> tuple[dict, dict]:
    """Gated metrics, and the raw wall times they are scaled from.  Each
    worker's times are scaled by its own speed factor: REFERENCE_S over the
    median of the calibration kernel times it took (see calibrate.py)."""
    good = [s for s in samples if s["ok"] and s["mode"] == "run"]
    if not good:
        return {}, {}
    workers = setups + good
    for w in workers:
        w["speed_factor"] = calibrate.REFERENCE_S / statistics.median(w["cal_s"])
    raw = {"run_wall_s": statistics.median(s["run_s"] for s in good),
           "setup_wall_s": statistics.median(w["setup_s"] for w in workers),
           "speed_factor": statistics.median(w["speed_factor"] for w in workers)}
    return {"run_s": statistics.median(s["run_s"] * s["speed_factor"] for s in good),
            "setup_s": statistics.median(w["setup_s"] * w["speed_factor"] for w in workers),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good)}, raw


def layer_metrics(samples, problems) -> dict:
    plain = [s for s in samples if s["mode"] == "run" and s["ok"]]
    traced = [s for s in samples if s["mode"] == "trace" and s["ok"]]
    if not traced:
        return {}
    first = traced[0]["counts"]
    for other in traced[1:]:
        if other["counts"] != first:
            diff = sorted(k for k in set(first) | set(other["counts"])
                          if first.get(k) != other["counts"].get(k))
            problems.append(f"trace counts do not repeat across samples: {diff}")
    out = {}
    for key in traced[0]["layers"]:
        values = [s["layers"][key] for s in traced]
        out[key] = statistics.median(values) if key.endswith("_s") else values[0]
    if plain:
        out["trace.overhead_frac"] = (statistics.median(s["run_s"] for s in traced)
                                      / statistics.median(s["run_s"] for s in plain) - 1.0)
    return out


def unit_of(key) -> str:
    if key in E2E_UNITS:
        return E2E_UNITS[key]
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_frac", "ratio")):
        if key.endswith(suffix):
            return unit
    return "count"


def run_benchmark(args) -> int:
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work)
        scenario, svg, checker, info = prepare(args.workload, args.seed, work)
        samples, setups = measure(args, runner, scenario, svg, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"sample {i + 1}: {p}" for i, s in enumerate(samples) for p in s["problems"]]
    failed = sum(not s["ok"] for s in samples)
    e2e, raw = e2e_metrics(samples, setups)
    layers = layer_metrics(samples, problems) if args.trace else {}
    max_rel = max((s["max_rel_diff"] for s in samples if "max_rel_diff" in s), default=math.nan)
    runs = [s["run_s"] for s in samples if s["ok"] and s["mode"] == "run"]
    metrics = layers if args.trace else e2e

    prov = {**provenance(args.seed), **info}
    print(f"dacsim benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(samples)} samples, {failed} failed")
    print("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    notes = {"run_s": "median of sample wall time x its speed_factor",
             "setup_s": "median of set-up wall time x its speed_factor",
             "run_wall_s": f"median of {len(runs)}" + (
                 f", range {min(runs):.4g}..{max(runs):.4g}" if runs else ""),
             "setup_wall_s": f"median of {len(setups) + len(runs)} fresh interpreters",
             "speed_factor": "median over workers of reference / kernel time",
             "failed_frac": f"{failed} of {len(samples)} samples",
             "max_rel_diff": f"against the reference; tolerance {check.RTOL:g}"}
    extra = {**raw, "failed_frac": failed / max(1, len(samples)), "max_rel_diff": max_rel}
    for key, value in {**metrics, **extra}.items():
        unit = unit_of(key) if key.endswith("_s") or key in metrics else "ratio"
        print(f"  {key:<26} {value:>14.6g} {unit:<6} {notes.get(key, '')}")
    for p in problems:
        print(f"  problem: {p}")

    record = {"provenance": prov,
              "seconds": args.seconds, "trace": args.trace,
              "correct": not problems, "attempted": len(samples), "failed": failed,
              **extra, "run_samples": len(runs), "end_to_end": e2e, "per_layer": layers,
              "problems": problems, "setup_probes": setups, "samples": samples}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": len(samples), "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


def survey() -> int:
    """Every bundled scenario once under the trace; ungated."""
    scenarios = sorted((ROOT / workloads.SCENARIO_DIR).glob("*.json"))
    work = WORK / f"survey-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rows, worst = [], 0
    try:
        runner = Runner(work, limit_s=None)
        for path in scenarios:
            try:
                result, out = runner.call("trace", path, svg=False)
            except SampleError as exc:
                print(f"{path.name}: {exc}")
                worst = 1
                continue
            shutil.rmtree(out, ignore_errors=True)
            if result["exit_code"] != 0 or result["trace_problems"]:
                worst = 1
            rows.append({"scenario": path.stem,
                         "protocol": json.loads(path.read_text())["protocol"],
                         "scenario_sha256": workloads.sha256_file(path),
                         **{k: result[k] for k in ("run_s", "setup_s", "exit_code",
                                                   "peak_rss_mb", "trace_problems")},
                         "layers": result["layers"]})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cols = [("integrate", "engine.integrate_s"), ("rhs", "protocols.rhs_s"),
            ("signals", "signals.eval_s"), ("graph_at", "switching.graph_at_s"),
            ("package", "engine.package_s"), ("gamma", "engine.gamma_s"),
            ("bounds", "bounds.curve_s"), ("discrete", "discrete.step_s"),
            ("metrics", "engine.metrics_s"), ("csv", "engine.csv_s")]
    print("| scenario | protocol | steps | run (s) | " + " | ".join(c for c, _ in cols) + " |")
    print("| --- | --- | ---: | ---: | " + " | ".join("---:" for _ in cols) + " |")
    for r in rows:
        lay = r["layers"]
        steps = lay["engine.integrate_steps"] or lay["discrete.steps"]
        print(f"| {r['scenario']} | {r['protocol']} | {steps} | {r['run_s']:.2f} | "
              + " | ".join(f"{lay[k]:.2f}" for _, k in cols) + " |")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "survey.json"
    out.write_text(json.dumps({"provenance": provenance(None), "traced": True,
                               "scenarios": rows}, indent=1) + "\n")
    print(f"traced times; results written to {out.relative_to(ROOT)}")
    return worst


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=36, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--survey", action="store_true",
                   help="trace every bundled scenario once (ungated)")
    args = p.parse_args(argv)
    if not args.survey and args.workload is None:
        p.error("--workload is required unless --survey is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dacsim" / "__init__.py").is_file():
        print(f"error: no dacsim package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the generator checks use the package
    if args.survey:
        return survey()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
