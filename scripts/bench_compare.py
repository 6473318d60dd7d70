#!/usr/bin/env python3
"""Compare cvsafe_bench JSON files and gate perf regressions.

Two-file mode diffs a committed baseline against a fresh run and fails on
any shared benchmark that regressed by more than --max-regression:

    bench_compare.py BENCH_baseline.json BENCH_micro.json

Speedup/allocation gates work in both modes. With two files the left name
of a --require-speedup pair is looked up in the baseline and the right
name in the new file; with a single file both names come from it, which
makes the gate machine-independent (same binary, same host) and therefore
usable in CI where absolute ns/op are not comparable to the committed
baseline's hardware:

    bench_compare.py BENCH_micro.json \
        --require-speedup compound_step:compound_step_traced_off:0.95 \
        --require-zero-alloc mlp_forward_workspace

--require-max-ratio is the inverse gate: it bounds how much slower NUM may
be than DEN (fail if ns/op(NUM) / ns/op(DEN) > LIMIT). Used to pin the
sound interval forward pass to a sane multiple of the concrete forward
pass — an accidental per-call allocation or complexity blowup in the
interval kernels trips it long before wall-clock times look suspicious:

    bench_compare.py BENCH_micro.json \
        --require-max-ratio nn_interval_forward:mlp_forward_workspace:30

--require-parallel-speedup is --require-speedup that consults the
recording host's `config.hardware_threads` (written by cvsafe_bench) and
skips itself — with a note, never a failure — on single-thread runners,
where a parallel implementation cannot be expected to beat the serial one:

    bench_compare.py BENCH_micro.json \
        --require-parallel-speedup run_batch_episodes8:fleet_pool8k_episodes8:1.0

Exit status is non-zero if any gate or regression check fails.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> tuple[dict[str, dict], dict]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "cvsafe-bench-v1":
        sys.exit(f"{path}: unsupported schema {doc.get('schema')!r}")
    return {b["name"]: b for b in doc["benchmarks"]}, doc.get("config", {})


def lookup(table: dict[str, dict], name: str, path: str) -> dict:
    if name not in table:
        sys.exit(f"benchmark {name!r} not found in {path}")
    return table[name]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline JSON (or the only file)")
    ap.add_argument("new", nargs="?", help="new JSON to compare against")
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        help="fail if a shared benchmark slows down by more than this "
        "fraction (default 0.10 = 10%%)",
    )
    ap.add_argument(
        "--require-speedup",
        action="append",
        default=[],
        metavar="OLD:NEW:FACTOR",
        help="fail unless ns/op(OLD) / ns/op(NEW) >= FACTOR",
    )
    ap.add_argument(
        "--require-max-ratio",
        action="append",
        default=[],
        metavar="NUM:DEN:LIMIT",
        help="fail if ns/op(NUM) / ns/op(DEN) > LIMIT (both from the new "
        "file; bounds an acceptable overhead multiple)",
    )
    ap.add_argument(
        "--require-zero-alloc",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless NAME has allocs_per_op == 0 in the new file",
    )
    ap.add_argument(
        "--require-parallel-speedup",
        action="append",
        default=[],
        metavar="OLD:NEW:FACTOR",
        help="like --require-speedup, but a parallel-vs-serial gate: "
        "skipped (with a note, never a failure) when the recording host "
        "had fewer than 2 hardware threads, where a parallel "
        "implementation cannot be expected to win",
    )
    args = ap.parse_args()

    old, old_config = load(args.baseline)
    if args.new:
        new, new_config = load(args.new)
    else:
        new, new_config = old, old_config
    new_path = args.new if args.new else args.baseline
    failed = False

    if args.new:
        shared = [n for n in old if n in new]
        if not shared:
            sys.exit("no shared benchmark names between the two files")
        print(f"{'benchmark':<32} {'old ns/op':>12} {'new ns/op':>12} {'delta':>8}")
        for name in shared:
            o, n = old[name]["ns_per_op"], new[name]["ns_per_op"]
            delta = (n - o) / o if o > 0 else 0.0
            flag = ""
            if delta > args.max_regression:
                flag = "  REGRESSION"
                failed = True
            print(f"{name:<32} {o:>12.1f} {n:>12.1f} {delta:>+7.1%}{flag}")
        only_new = [n for n in new if n not in old]
        if only_new:
            print(f"(new-only benchmarks, not diffed: {', '.join(only_new)})")

    for spec in args.require_speedup:
        try:
            old_name, new_name, factor_s = spec.split(":")
            factor = float(factor_s)
        except ValueError:
            sys.exit(f"bad --require-speedup spec {spec!r}, want OLD:NEW:FACTOR")
        o = lookup(old, old_name, args.baseline)["ns_per_op"]
        n = lookup(new, new_name, new_path)["ns_per_op"]
        ratio = o / n if n > 0 else float("inf")
        ok = ratio >= factor
        print(
            f"speedup {old_name} -> {new_name}: {ratio:.2f}x "
            f"(required {factor:.2f}x) {'ok' if ok else 'FAIL'}"
        )
        failed |= not ok

    for spec in args.require_max_ratio:
        try:
            num_name, den_name, limit_s = spec.split(":")
            limit = float(limit_s)
        except ValueError:
            sys.exit(f"bad --require-max-ratio spec {spec!r}, want NUM:DEN:LIMIT")
        num = lookup(new, num_name, new_path)["ns_per_op"]
        den = lookup(new, den_name, new_path)["ns_per_op"]
        ratio = num / den if den > 0 else float("inf")
        ok = ratio <= limit
        print(
            f"max-ratio {num_name} / {den_name}: {ratio:.2f}x "
            f"(limit {limit:.2f}x) {'ok' if ok else 'FAIL'}"
        )
        failed |= not ok

    hardware_threads = new_config.get("hardware_threads", 0)
    for spec in args.require_parallel_speedup:
        try:
            old_name, new_name, factor_s = spec.split(":")
            factor = float(factor_s)
        except ValueError:
            sys.exit(
                f"bad --require-parallel-speedup spec {spec!r}, "
                "want OLD:NEW:FACTOR"
            )
        if hardware_threads < 2:
            print(
                f"parallel-speedup {old_name} -> {new_name}: skipped "
                f"(recording host reported {hardware_threads} hardware "
                "thread(s); parallel cannot be expected to beat serial)"
            )
            continue
        o = lookup(old, old_name, args.baseline)["ns_per_op"]
        n = lookup(new, new_name, new_path)["ns_per_op"]
        ratio = o / n if n > 0 else float("inf")
        ok = ratio >= factor
        print(
            f"parallel-speedup {old_name} -> {new_name}: {ratio:.2f}x "
            f"(required {factor:.2f}x on {hardware_threads} hardware "
            f"threads) {'ok' if ok else 'FAIL'}"
        )
        failed |= not ok

    for name in args.require_zero_alloc:
        allocs = lookup(new, name, new_path)["allocs_per_op"]
        ok = allocs == 0
        print(f"zero-alloc {name}: {allocs} allocs/op {'ok' if ok else 'FAIL'}")
        failed |= not ok

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
