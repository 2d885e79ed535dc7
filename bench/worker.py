"""One benchmark process: import arcbar from the checkout, build one
workload's inputs, and run it in one of four modes.

  setup    import and build inputs only, report the time taken
  measure  the passes that fill --seconds, timing each top-level call
  fixed    the workload's trace_passes, for the tracing baseline
  trace    the same passes with the per-layer tracer installed

The last line of stdout is one JSON object; `run.py` reads it.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import speedclock  # noqa: E402  (the benchmark's own modules, next to this file)
import tracing  # noqa: E402
import workloads  # noqa: E402


def load(workload: str, seed: int, clock):
    """-> (workload with its inputs built, (setup seconds, raw seconds))."""
    mark = clock.mark()
    sys.path.insert(0, str(ROOT / "src"))
    import arcbar
    if Path(arcbar.__file__).resolve().parent != ROOT / "src" / "arcbar":
        raise SystemExit(f"arcbar imported from {arcbar.__file__}, not from the checkout")
    wl = workloads.WORKLOADS[workload]()
    wl.clock = clock
    wl.setup(seed)
    return wl, clock.since(mark)


def run_passes(wl, passes: int, tracer=None) -> dict:
    """Run passes, check each one after its calls, and summarize."""
    gc_obs = tracing.GcObserver()
    per_pass, latencies = [], []
    wrong, mishandled = [], []
    attempted = 0
    all_calls = []
    mark = wl.clock.mark()
    with gc_obs:
        if tracer is not None:
            tracer.open_root(wl.name)
            tracer.install()
        try:
            for i in range(passes):
                calls = wl.run_pass(i)
                attempted += len(calls)
                if tracer is None:
                    _tally(wl, i, calls, per_pass, latencies, wrong, mishandled)
                else:
                    all_calls.append(calls)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.close_root()
    wall, raw_wall = wl.clock.since(mark)
    for i, calls in enumerate(all_calls):   # checks run with the tracer removed
        _tally(wl, i, calls, per_pass, latencies, wrong, mishandled)
    return {"passes": per_pass, "latencies": latencies, "attempted": attempted,
            "wrong": len(wrong), "mishandled": len(mishandled),
            "wrong_examples": wrong[:20], "mishandled_examples": sorted(set(mishandled))[:20],
            "wall_s": wall, "raw_wall_s": raw_wall, "gc_gen2": gc_obs.collections[2],
            "gc_collections": sum(gc_obs.collections.values()),
            "gc_pause_s": gc_obs.pause_s}


def _tally(wl, i, calls, per_pass, latencies, wrong, mishandled) -> None:
    outcome = wl.check(i, calls)
    wrong.extend(outcome.wrong)
    mishandled.extend(outcome.mishandled)
    per_pass.append({"cases": sum(c.cases for c in calls),
                     "seconds": sum(c.seconds for c in calls),
                     "raw_seconds": sum(c.raw_seconds for c in calls)})
    latencies.extend(c.seconds for c in calls)
    calls.clear()   # drop the outputs, so they do not add to peak memory


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure", "fixed", "trace"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = p.parse_args(argv)

    tracer = None
    with speedclock.SpeedClock() as clock:
        wl, (setup_s, raw_setup_s) = load(args.workload, args.seed, clock)
        out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
        if args.mode != "setup":
            wl.warmup()
            if args.mode == "measure":
                # the same work on every run: as many passes as fill --seconds
                # at the reference speed
                passes = max(1, round(args.seconds / wl.pass_seconds))
            else:
                passes = wl.trace_passes
            tracer = tracing.Tracer() if args.mode == "trace" else None
            out.update(run_passes(wl, passes, tracer))
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump({"spans": tracer.spans, "dropped": tracer.span_dropped}, fh)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
