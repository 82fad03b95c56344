"""One ``dacsim run`` in a fresh interpreter, as a user runs it.

    python3 worker.py setup SCENARIO
    python3 worker.py run   SCENARIO OUT_DIR [--svg]
    python3 worker.py trace SCENARIO OUT_DIR [--svg]

``setup`` times ``import dacsim`` plus ``load_scenario`` (which validates).
``run`` also times ``cli.execute`` on the validated config and reports the
process's peak resident memory.  Both time the calibration kernel
(``calibrate.py``) next to what they measure.  ``trace`` runs the same under
the layer trace.  The result is printed as one JSON line.
"""

import json
import resource
import sys
import time

CAL_REPS = 3  # calibration kernel runs after set-up, and again after the run


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM belongs to the address
    space made at exec; ru_maxrss would also carry over the parent's peak,
    which Linux keeps across fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    mode, scenario = argv[0], argv[1]
    out_dir = argv[2] if len(argv) > 2 else None
    svg = "--svg" in argv[3:]

    t0 = time.perf_counter()
    import dacsim  # noqa: F401  (part of the timed set-up)
    from dacsim import cli, config

    result = {"dacsim_file": dacsim.__file__}
    tracer = None
    if mode == "trace":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = config.load_scenario(scenario)
    t1 = time.perf_counter()
    result["setup_s"] = t1 - t0
    if tracer is None:
        import calibrate

        result["cal_s"] = calibrate.timings(CAL_REPS)
    if mode != "setup":
        t1 = time.perf_counter()
        code, line = cli.execute(cfg, out_dir, svg=svg, quiet=True)
        result["run_s"] = time.perf_counter() - t1
        result["exit_code"] = code
        result["summary"] = line
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is None:
            result["cal_s"] += calibrate.timings(CAL_REPS)
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics()
        result["counts"] = tracer.work_counts()
        result["trace_problems"] = tracer.self_check()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
