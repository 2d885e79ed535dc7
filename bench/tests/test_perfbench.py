"""Tests of the benchmark itself: the tracer's coverage, tracing that does not
change results, seeded workloads with ok verdicts, and the run contract."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speedclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def clock():
    with speedclock.SpeedClock() as c:
        yield c


def _tiny(name: str, seed: int, clock):
    wl = workloads.WORKLOADS[name](tiny=True)
    wl.clock = clock
    wl.setup(seed)
    wl.warmup()
    return wl


def _traced_pass(wl, i: int = 0):
    tracer = tracing.Tracer()
    tracer.open_root(wl.name)
    tracer.install()
    try:
        calls = wl.run_pass(i)
    finally:
        tracer.uninstall()
        tracer.close_root()
    return tracer, calls


def _profiled_pass(wl, codes: dict, generators: set, i: int = 0) -> tuple[Counter, list]:
    """Independent oracle: count calls of each target's code object with
    sys.setprofile.  A generator's frame sends 'call' on every resume, so
    generators count distinct frames."""
    counts, frames = Counter(), {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            name = codes[frame.f_code]
            if name in generators:
                frames.setdefault(name, set()).add(id(frame))
                keep.append(frame)
            else:
                counts[name] += 1

    keep = []
    sys.setprofile(profile)
    try:
        calls = wl.run_pass(i)
    finally:
        sys.setprofile(None)
    for name, ids in frames.items():
        counts[name] = len(ids)
    return counts, calls


def _targets() -> tuple[dict, set]:
    codes, generators = {}, set()
    for table in (tracing.TARGETS, tracing.COUNTED, tracing.GENERATORS):
        for specs in table.values():
            for spec in specs:
                for name, _, _, orig in tracing.resolve(spec):
                    codes[getattr(orig, "__func__", orig).__code__] = name
                    if table is tracing.GENERATORS:
                        generators.add(name)
    return codes, generators


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_counts_match_profile_oracle(name, clock):
    wl = _tiny(name, 5, clock)
    codes, generators = _targets()
    oracle, _ = _profiled_pass(wl, codes, generators)
    tracer, _ = _traced_pass(wl)
    assert sum(oracle.values()) > 0
    for target in sorted(set(codes.values())):
        assert tracer.calls[target] == oracle[target], target


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_reports_unchanged(name, clock):
    wl = _tiny(name, 5, clock)
    plain = [wl.report(c) for c in wl.run_pass(0)]
    tracer, calls = _traced_pass(wl)
    assert [wl.report(c) for c in calls] == plain
    assert not wl.check(0, calls).wrong
    # every wrapper is gone again
    for specs in tracing.TARGETS.values():
        for spec in specs:
            for _, owner, attr, orig in tracing.resolve(spec):
                assert vars(owner)[attr] is orig


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, clock):
    first, second = (_traced_pass(_tiny(name, 9, clock))[0] for _ in range(2))
    assert first.calls == second.calls
    assert first.extra == second.extra


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_verdicts_ok_at_seed(name, seed, clock):
    wl = _tiny(name, seed, clock)
    for i in range(2):
        calls = wl.run_pass(i)
        assert calls and all(c.seconds > 0 for c in calls)
        assert wl.check(i, calls).wrong == []


def test_seed_changes_inputs(clock):
    a, b = (_tiny("cli-requests", s, clock).requests(1) for s in (3, 11))
    assert [r.argv for r in a] != [r.argv for r in b]
    a, b = (_tiny("cli-requests", 3, clock).requests(1) for _ in range(2))
    assert [r.argv for r in a] == [r.argv for r in b]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = run.per_layer_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m["name"], m["unit"], m["better"]) for m in layers]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(spec["workloads"][0]) == ["name", "why"]
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"cases_per_s", "request_p50_ms", "request_p99_ms", "setup_s",
                     "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for m in layers:
        assert set(m["on"]) <= set(run.WORKLOADS) and set(m["flat_on"]) <= set(run.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "laws", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
