#!/usr/bin/env python3
"""End-to-end benchmark runner for the cvsafe fleet engine (stdlib only).

Builds bench/e2e (CMake, Release, contracts on), then runs each workload
in fresh cvsafe_e2e processes, each on its own empty CVSAFE_MODEL_CACHE so
set-up always includes training kappa_n and never reuses leftovers.

  run.py                              every workload, both modes; prints
                                      every metric with its unit
  run.py --out FILE                   ... and writes the medians,
                                      quartiles and n of every metric
  run.py --quick                      1/10 sizes, one rep, every check
  run.py --compare A.json B.json      verdict per workload and metric
  run.py --workload NAME --seed S --seconds N --trace 0|1
                                      one workload, one mode; the last
                                      stdout line is the result JSON

--trace 0 reports the end-to-end metrics of BENCHMARK.json (set-up is
measured in 3 to 5 processes and reported as their median); --trace 1
reports the per-layer metrics from the traced replica. Exit status is
non-zero when a build, a run or an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
# setup_s is sampled in several processes: at least 3, and more (up to 5)
# until they add up to 3 s, so sub-second set-ups get more samples. Half
# run before the measuring process and half after, so the samples span
# the whole run rather than one spell of the host.
SETUP_MIN, SETUP_MAX, SETUP_MIN_TOTAL_S = 3, 5, 3.0
RUN_TIMEOUT_S = 170       # every cvsafe_e2e process of one run, together
BUILD_TIMEOUT_S = 880


def log(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def threads_nt() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def local_env(build_dir: Path, **extra: str) -> dict:
    """The environment of every child: temporary files stay in the build
    directory."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp), **extra)


def build(build_dir: Path) -> Path:
    """Configures (once) and builds cvsafe_e2e; returns the binary."""
    env = local_env(build_dir)
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(threads_nt())], check=True, stdout=sys.stderr,
                   env=env, timeout=BUILD_TIMEOUT_S)
    return build_dir / "cvsafe_e2e"


def compiler(build_dir: Path) -> str:
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                exe = line.split("=", 1)[1]
                out = subprocess.run([exe, "--version"], capture_output=True,
                                     text=True, timeout=30).stdout
                return out.splitlines()[0] if out else exe
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return "unknown"


def run_process(binary: Path, workload: str, seed: int, seconds: float,
                trace: int, out_dir: Path, shared_cache: Path | None,
                extra: list[str], deadline: float) -> dict:
    """One cvsafe_e2e process, killed at the monotonic time deadline;
    returns its result file. Without shared_cache the process gets a model
    cache of its own, empty at start and removed after."""
    cache = shared_cache or out_dir / "models"
    if not shared_cache:
        shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True, exist_ok=True)
    env = local_env(binary.parent, CVSAFE_MODEL_CACHE=str(cache))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--threads-nt", str(threads_nt()), "--out", str(out_dir),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    mode = "setup" if "--setup-only" in extra else ("e2e", "layers")[trace]
    path = out_dir / f"{workload}.{mode}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if not shared_cache:
        shutil.rmtree(cache, ignore_errors=True)
    result = json.loads(path.read_text()) if path.exists() else None
    # Exit 1 with a result file is a failed output check: report it.
    if result is None or proc.returncode not in (0, 1):
        raise RuntimeError(f"{workload} ({mode}) exited {proc.returncode}")
    for failure in result["failures"]:
        log(f"{workload} ({mode}): check failed: {failure}")
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(values: list[float], value: float | None, better: str) -> dict:
    """A metric's samples (rounds, or set-up processes): the reported
    value, median, quartiles, n, and the spread that bounds how finely the
    value resolves a change. The value is the median, or the program's
    value composed from each piece's fastest round where it gives one; a
    composed value is as steady as the faster rounds, not as all of them,
    so its spread is the IQR of the faster half of the rounds over it."""
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    if value is None:
        value, spread_of = median, values
    else:
        fastest_first = sorted(values, reverse=better == "higher")
        spread_of = fastest_first[:max(2, (len(values) + 1) // 2)]
    lo, hi = quartiles(spread_of)
    return {"value": value, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "spread": (hi - lo) / value if value else 0.0,
            "values": values}


def run_workload(binary: Path, spec: dict, workload: str, seed: int,
                 seconds: float, trace: int, quick: bool,
                 shared_cache: Path | None) -> dict:
    """Both modes' raw results folded into {correct, attempted, metrics}."""
    out_dir = binary.parent / "runs" / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = ["--quick"] if quick else []

    kind = "end_to_end" if trace == 0 else "per_layer"
    names = [m["name"] for m in spec[kind]]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    better = {m["name"]: m["better"] for m in spec[kind]}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    correct = True
    if trace == 0:
        setups: list[float] = []

        def sample_setup() -> None:
            nonlocal correct
            res = run_process(binary, workload, seed, seconds, 0, out_dir,
                              shared_cache, extra + ["--setup-only"],
                              deadline)
            correct &= res["correct"]
            setups.extend(res["metrics"]["setup_s"]["values"])

        # The first sample sizes the rest; the measuring process is one.
        count = 1
        if not quick:
            sample_setup()
            count = min(SETUP_MAX, max(SETUP_MIN, math.ceil(
                SETUP_MIN_TOTAL_S / max(setups[0], 1e-3))))
            while len(setups) < count // 2:
                sample_setup()
        res = run_process(binary, workload, seed, seconds, 0, out_dir,
                          shared_cache, extra, deadline)
        setups += res["metrics"]["setup_s"]["values"]
        while len(setups) < count:
            sample_setup()
        res["metrics"]["setup_s"]["values"] = setups
    else:
        res = run_process(binary, workload, seed, seconds, 1, out_dir,
                          shared_cache, extra, deadline)
    for name, m in res["metrics"].items():
        if m["unit"] != units.get(name):
            raise RuntimeError(f"{workload}: metric {name} [{m['unit']}] is "
                               "not in BENCHMARK.json")
    missing = [n for n in names if n not in res["metrics"]]
    if missing:
        raise RuntimeError(f"{workload}: missing metrics {missing}")
    metrics = {}
    for n in names:
        m = res["metrics"][n]
        metrics[n] = dict(summarize(m["values"], m.get("value"), better[n]),
                          unit=units[n], kind=kind)
    return {"correct": correct and res["correct"],
            "attempted": res["attempted"],
            "digest": res["info"].get("output_digest"),
            "unsafe_episodes": int(res["info"].get("unsafe_episodes", 0)),
            "metrics": metrics}


def print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:24s} {name:44s} {m['value']:14.6g} "
              f"{m['unit']:8s} [median {m['median']:.6g}, q1 {m['q1']:.6g}, "
              f"q3 {m['q3']:.6g}, n={m['n']}]")


# --- compare ---------------------------------------------------------------

def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float]:
    """Change of B against A as a share of A (positive = worse)."""
    base = a["value"]
    change = (b["value"] - base) / base if base else 0.0
    if better == "higher":
        change = -change
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flagged = 0
    print(f"{'workload':24s} {'metric':40s} {'A value (median [q1, q3])':>44s} "
          f"{'B value (median [q1, q3])':>44s} {'change':>8s} {'bound':>6s} "
          "verdict")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None:
                continue
            cell = [f"{m['value']:.6g} ({m['median']:.6g} [{m['q1']:.6g}, "
                    f"{m['q3']:.6g}])" for m in (ma, mb)]
            if name in bounds:
                bound = bounds[name]["bound"]
                v, change = verdict(ma, mb, bound, bounds[name]["better"])
                flagged += v in ("worse", "unresolved")
                print(f"{workload:24s} {name:40s} {cell[0]:>44s} "
                      f"{cell[1]:>44s} {change:+8.2%} {bound:6.0%} {v}")
            else:
                ratio = mb["value"] / ma["value"] if ma["value"] else 0.0
                print(f"{workload:24s} {name:40s} {cell[0]:>44s} "
                      f"{cell[1]:>44s} {ratio:7.3f}x {'-':>6s} -")
    return 1 if flagged else 0


# --- main ----------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--build-dir", default=str(ROOT / "build" / "e2e"))
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in workloads:
        log(f"unknown workload {args.workload} (known: {', '.join(workloads)})")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build_dir = Path(args.build_dir).resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1
    shared_cache = None
    if args.quick:
        # Quick runs check, they do not time set-up: train kappa_n once.
        shared_cache = build_dir / "runs" / "models-quick"
        shutil.rmtree(shared_cache, ignore_errors=True)
        shared_cache.mkdir(parents=True)

    selected = [args.workload] if args.workload else workloads
    traces = [args.trace] if args.trace is not None else [0, 1]
    report = {"seed": args.seed, "seconds": seconds, "quick": args.quick,
              "nproc": os.cpu_count(), "threads_nt": threads_nt(),
              "compiler": compiler(build_dir), "workloads": {}}
    ok = True
    try:
        for workload in selected:
            merged = {"correct": True, "attempted": 0, "metrics": {}}
            digests = set()
            for trace in traces:
                t0 = time.monotonic()
                res = run_workload(binary, spec, workload, args.seed, seconds,
                                   trace, args.quick, shared_cache)
                log(f"{workload} --trace {trace}: "
                    f"{time.monotonic() - t0:.1f} s")
                merged["correct"] &= res["correct"]
                merged["attempted"] += res["attempted"]
                merged["unsafe_episodes"] = res["unsafe_episodes"]
                merged["metrics"].update(res["metrics"])
                digests.add(res["digest"])
            if len(digests) > 1:
                # Both modes ran production at 1 thread on the same input.
                log(f"{workload}: output differs between processes")
                merged["correct"] = False
            ok &= merged["correct"]
            report["workloads"][workload] = merged
            print_metrics(workload, merged["metrics"])
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        if shared_cache:
            shutil.rmtree(shared_cache, ignore_errors=True)

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        log(f"wrote {args.out}")
    if args.workload and len(traces) == 1:
        res = report["workloads"][args.workload]
        print(json.dumps({
            "correct": res["correct"], "attempted": res["attempted"],
            "failed": 0,
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in res["metrics"].items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
