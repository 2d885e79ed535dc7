"""arcbar benchmark: the cost of a verdict, per workload.

    python3 bench/run.py --workload laws --seed 1 --seconds 20 --trace 0

Each run starts its own single-threaded worker processes (see worker.py):
several that only import arcbar and build the inputs (`setup_s` is their
median), then one that measures.  With --trace 1 it instead runs a fixed
number of passes twice, untraced and traced, and reports the per-layer
metrics and the tracing overhead.  `--workload all` runs every workload.

The last line of stdout is the result as one JSON object; a copy with the
environment record goes to .bench_results/ in the checkout.  The exit status
is 1 when an output check failed, 2 when the run could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("laws", "bar-relations", "orbit-classes", "cli-requests")
SETUP_RUNS = 4        # setup-only processes; the measuring one adds a fifth sample
BUDGET_S = 170.0      # every run must end within 180 s


class RunError(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")   # same hashing on every run
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time budget spent")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, -(-len(s) * p // 100) - 1))
    return s[int(k)]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setup_runs = [worker(["--mode", "setup", *common], deadline) for _ in range(SETUP_RUNS)]
    res = worker(["--mode", "measure", *common, "--seconds", str(seconds)], deadline)
    setup_runs.append(res)
    setups = [r["setup_s"] for r in setup_runs]
    passes = res["passes"]
    lat = res["latencies"]
    metrics = {
        "cases_per_s": (sum(p["cases"] for p in passes) / sum(p["seconds"] for p in passes),
                        "1/s"),
        "request_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "request_p99_ms": (percentile(lat, 99) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    samples = {"cases_per_s": len(lat), "request_p50_ms": len(lat),
               "request_p99_ms": len(lat), "setup_s": len(setups), "peak_rss_mb": 1}
    extra = {"fail_ratio": (res["wrong"] + res["mishandled"]) / res["attempted"],
             "cases": sum(p["cases"] for p in res["passes"]),
             "gc_gen2_collections": res["gc_gen2"], "gc_pause_s": res["gc_pause_s"],
             "raw_cases_per_s": sum(p["cases"] for p in passes) /
                                sum(p["raw_seconds"] for p in passes),
             "passes": passes,
             "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setup_runs),
             "raw_wall_s": res["raw_wall_s"]}
    return {"metrics": metrics, "samples": samples, "extra": extra, "worker": res}


def trace(workload: str, seed: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    base = worker(["--mode", "fixed", *common], deadline)
    spans = ROOT / ".bench_results" / f"spans-{workload}-seed{seed}.json"
    res = worker(["--mode", "trace", *common, "--spans", str(spans)], deadline)
    layers = dict(res["layers"])
    layers["runtime.gc.gen2_collections"] = base["gc_gen2"]
    layers["runtime.gc.pause_s"] = base["gc_pause_s"]
    layers["trace.overhead_pct"] = (res["wall_s"] / base["wall_s"] - 1) * 100
    units = {m["name"]: m["unit"] for m in per_layer_spec()}
    metrics = {name: (layers[name], units[name]) for name in units}
    samples = {name: len(res["passes"]) for name in units}
    extra = {"untraced_wall_s": base["wall_s"], "traced_wall_s": res["wall_s"],
             "spans_file": str(spans.relative_to(ROOT))}
    return {"metrics": metrics, "samples": samples, "extra": extra, "worker": res}


def per_layer_spec() -> list[dict]:
    with open(HERE / "layers.json") as fh:
        return json.load(fh)["per_layer"]


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "git_commit": git_commit(), "workload": workload,
            "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    res = trace(workload, seed, deadline) if traced else measure(workload, seed, seconds, deadline)
    w = res["worker"]
    correct = w["wrong"] == 0
    record = {"environment": environment(workload, seed), "trace": int(traced),
              "seconds": seconds, "correct": correct, "attempted": w["attempted"],
              "failed": w["wrong"] + w["mishandled"], "wrong": w["wrong"],
              "mishandled": w["mishandled"],
              "wrong_examples": w["wrong_examples"],
              "mishandled_examples": w["mishandled_examples"],
              "metrics": {k: {"value": v, "unit": u, "samples": res["samples"][k]}
                          for k, (v, u) in res["metrics"].items()},
              "extra": res["extra"]}
    out = ROOT / ".bench_results" / f"{workload}-seed{seed}-trace{int(traced)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def print_record(r: dict) -> None:
    env = r["environment"]
    print(f"== {env['workload']}  seed {env['seed']}  trace {r['trace']}  "
          f"python {env['python']}  nproc {env['nproc']}  cpu {env['cpu_model']}")
    for name, m in r["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})")
    print(f"  {'fail_ratio':42s} {r['failed'] / r['attempted']:14.6g} {'':6s} "
          f"({r['failed']} of {r['attempted']} operations; {r['wrong']} wrong, "
          f"{r['mishandled']} malformed requests mishandled)")
    for ex in r["wrong_examples"][:5]:
        print(f"  WRONG: {ex}")
    for ex in r["mishandled_examples"][:5]:
        print(f"  mishandled: {ex}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "arcbar" / "__init__.py").is_file():
        print(f"error: no arcbar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + BUDGET_S
            records.append(run_one(name, args.seed, args.seconds, bool(args.trace), deadline))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in records:
        print_record(r)
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['environment']['workload']}." if prefix else "") + k:
                    {"value": m["value"], "unit": m["unit"]}
                    for r in records for k, m in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
