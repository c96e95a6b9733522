"""jetcalc benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process, against the jetcalc sources in `src/`
of the checkout.  Set-up (importing jetcalc and building the inputs) is
timed apart from the timed phase, which runs a fixed number of passes over
the seeded inputs, sized from `--seconds`.  With `--trace 0` every time is
scaled to a reference machine speed sampled throughout the run
(calibration.py).  Every case's output is checked against its reference.
Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the run then repeats the timed phase with every layer wrapped
and reports the per-layer ones instead (see bench/README.md).
The exit code is 0 only when every case was correct.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# set-up is repeated this often in a run; setup_s is the median
SETUPS = 9


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    if lo + 1 >= len(data):
        return data[-1]
    return data[lo] + (data[lo + 1] - data[lo]) * (pos - lo)


def import_jetcalc():
    """Import jetcalc afresh from the checkout's sources: jetcalc's modules
    are dropped from sys.modules first, so that all of them run again."""
    if not (SRC / "jetcalc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no jetcalc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "jetcalc" or n.startswith("jetcalc.")]:
        del sys.modules[name]
    jetcalc = importlib.import_module("jetcalc")
    if Path(jetcalc.__file__).resolve().parent != SRC / "jetcalc":
        raise SystemExit(f"bench: imported jetcalc from {jetcalc.__file__}, not {SRC}")


def set_up(workload, seed, passes, clock=time.perf_counter):
    """Time SETUPS set-ups, each importing jetcalc afresh and building one
    pass's inputs; then build every pass's inputs with the last import, so
    that no case mixes objects of two imports.  Returns (the builds, the
    (start, end) of each timed set-up)."""
    intervals = []
    for index in range(SETUPS):
        start = clock()
        import_jetcalc()
        workload.build(seed, index)
        intervals.append((start, clock()))
    return [workload.build(seed, index) for index in range(passes)], intervals


def seconds(interval, calibration=None):
    """The length of a (start, end) interval; scaled to the reference speed
    when a calibration is given."""
    start, end = interval
    return (end - start) * (calibration.factor(start, end) if calibration else 1.0)


def timed_phase(builds, tracer=None, clock=time.perf_counter):
    """Run every case of every pass.  Returns ((start, end) of the phase,
    (start, end) of each case, outputs, failures)."""
    intervals, outputs, failures = [], [], []
    case_id = 0
    start = clock()
    for cases in builds:
        for label, run, check in cases:
            if tracer is not None:
                tracer.case = case_id
            t0 = clock()
            try:
                out = run()
            except Exception:  # a case that raises counts as failed
                intervals.append((t0, clock()))
                outputs.append(None)
                failures.append((label, traceback.format_exc()))
            else:
                intervals.append((t0, clock()))
                outputs.append(out)
                if not check(out):
                    failures.append((label, f"output differs from reference: {out!r:.400}"))
            case_id += 1
    return (start, clock()), intervals, outputs, failures


def report_failures(failures):
    for label, detail in failures[:5]:
        print(f"FAILED {label}: {detail}", file=sys.stderr)
    if len(failures) > 5:
        print(f"... and {len(failures) - 5} more failures", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads
    from calibration import Calibration

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    # the traced run compares raw times within one process; it needs no calibration
    calibration = None if args.trace else Calibration()
    clock = calibration.clock if calibration else time.perf_counter
    if calibration:
        calibration.start()
    try:
        workload, passes = workloads.make(args.workload, args.seconds)
        builds, setups = set_up(workload, args.seed, passes, clock)
        phase, cases, outputs, failures = timed_phase(builds, clock=clock)
    finally:
        if calibration:
            calibration.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(cases)

    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"cases={attempted} python={sys.version.split()[0]}")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print(f"case percentiles over n={attempted} cases "
          f"({attempted - int(0.9 * attempted)} at or beyond p90)")

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_builds = [workload.build(args.seed, index) for index in range(passes)]
            tracer.covered_s = 0.0
            traced_phase, traced_cases, traced_outputs, traced_failures = \
                timed_phase(traced_builds, tracer)
        finally:
            tracer.uninstall()
        # the traced cases and the two integrity checks count as attempts too
        attempted += len(traced_cases) + 2
        failures.extend(traced_failures)
        if traced_outputs != outputs:
            failures.append(("trace", "traced outputs differ from untraced outputs"))
        if not tracer.restored():
            failures.append(("trace", "wrapped functions were not restored"))
        metrics = tracer.metrics(seconds(traced_phase), seconds(phase))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(span_file, {"workload": args.workload, "seed": args.seed})
        print(f"spans: {sum(s is not None for s in tracer.spans)} written to "
              f"{span_file.relative_to(HERE.parent)}")
    else:
        print(f"speed factor {calibration.factor(*phase):.4f} over the timed phase, "
              f"from {len(calibration.samples)} kernel samples; raw: "
              f"wall_s {seconds(phase):.6g} s, "
              f"case_p50_ms {percentile(map(seconds, cases), 0.5) * 1000.0:.6g} ms, "
              f"setup_s {percentile(map(seconds, setups), 0.5):.6g} s")
        latencies = [seconds(case, calibration) for case in cases]
        metrics = {
            "wall_s": (seconds(phase, calibration), "s"),
            "case_p50_ms": (percentile(latencies, 0.5) * 1000.0, "ms"),
            "case_p90_ms": (percentile(latencies, 0.9) * 1000.0, "ms"),
            "setup_s": (percentile([seconds(s, calibration) for s in setups], 0.5), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    report_failures(failures)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
