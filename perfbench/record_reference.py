"""Record the compact reference of each bundled workload from the current source.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the root of a checkout of a known-good commit.  Writes
``perfbench/reference/<workload>.json``: the scenario's SHA-256, sampled CSV
rows, per-column norms, the metrics JSON, the SVG polyline count, and where
it was recorded from.
"""

import json
import shutil
import sys

import check
import run
import workloads


def main(names) -> int:
    names = names or [n for n, w in workloads.WORKLOADS.items() if w.scenario]
    work = run.WORK / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner(work, limit_s=None)
        for name in names:
            wl = workloads.WORKLOADS[name]
            scenario = run.ROOT / workloads.SCENARIO_DIR / wl.scenario
            result, out = runner.call("run", scenario, wl.svg)
            if result["exit_code"] != 0:
                print(f"{name}: {result['summary']}", file=sys.stderr)
                return 1
            paths = check.artefact_paths(out, scenario.stem)
            ref = {
                "workload": name,
                "scenario": wl.scenario,
                "scenario_sha256": workloads.sha256_file(scenario),
                "recorded_from": run.provenance(None),
                "csv": check.csv_summary(*check.read_csv(paths["csv"])),
                "metrics": json.loads(paths["metrics"].read_text()),
                "svg_polylines": check.svg_polylines(paths["svg"]) if wl.svg else None,
            }
            target = run.HERE / "reference" / f"{name}.json"
            target.parent.mkdir(exist_ok=True)
            target.write_text(json.dumps(ref) + "\n")
            print(f"{name}: wrote {target.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
