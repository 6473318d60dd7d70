#!/usr/bin/env python3
"""Render one markdown report from the cvsafe observability artifacts.

Combines the artifact families that `cvsafe_cli` can emit:

  * the campaign CSV (`campaign --out camp.csv`) — per-cell aggregates,
  * episode event dumps in the one JSONL schema (docs/OBSERVABILITY.md):
    triggered flight-recorder dumps (`--flight-recorder flight.jsonl`,
    the causal event tail of every episode that tripped a trigger) and
    traced episodes (`run --trace x.jsonl`, `campaign --trace x.jsonl`,
    `attack --out DIR`'s offender_k.jsonl, every event of every
    episode) — both one header line per episode, one line per event,
  * the deterministic telemetry registry (`--telemetry tel.prom`) plus
    its wall-clock sibling `tel.prom.spans` — min-eta histogram,
    rejection reasons, ladder occupancy, per-phase time accounting.

into one human-readable markdown report: invariant verdict, worst cells,
eta distribution, rejection/ladder breakdowns, per-phase time split, the
recorded episodes' kappa_e entries, ladder timeline, gate rejections,
fault actions, Kalman rollbacks and outcomes, and the worst triggered
episodes with their events inlined. Every input is optional — sections
without data are skipped.

    python3 scripts/campaign_report.py --csv camp.csv \
        --flights flight.jsonl --telemetry tel.prom --out report.md
    python3 scripts/campaign_report.py --flights campaign_trace.jsonl

Exit status: 0 on success; 1 on malformed inputs or when a traced
episode (one that carries step/episode_end events) lost events to
overwriting — a truncated trace must never pass silently; 2 on usage
errors (including no inputs at all).
"""

from __future__ import annotations

import argparse
import collections
import csv
import json
import os
import re
import sys

BAR_WIDTH = 40
EPISODE_ROWS = 20  # per-episode summary rows shown
PROM_LINE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def read_prom(path: str) -> dict[str, float]:
    """Parses Prometheus text into {'name{labels}': value}."""
    series: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = PROM_LINE.match(line)
            if m is None:
                raise ValueError(f"malformed prometheus line: {line}")
            name, labels, value = m.groups()
            series[name + (labels or "")] = float(value)
    return series


def series_with_prefix(series: dict[str, float], prefix: str):
    """(label-or-suffix, value) pairs of every series named prefix{...}."""
    out = []
    for key, value in series.items():
        if key == prefix:
            out.append(("", value))
        elif key.startswith(prefix + "{"):
            out.append((key[len(prefix) + 1:-1], value))
    return out


def bar(fraction: float) -> str:
    n = int(round(fraction * BAR_WIDTH))
    return "#" * n + "." * (BAR_WIDTH - n)


def fmt_eta(x: float) -> str:
    return f"{x:.4f}"


HEADER_KEYS = ("episode", "seed", "triggers", "eta", "collided",
               "rejections", "events", "overwritten")
EVENT_KEYS = ("episode", "step", "kind", "value")


def load_flights(path: str):
    """Groups the event JSONL into [(header, [event, ...]), ...]."""
    flights = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            if "flight" in rec:
                header = rec["flight"]
                missing = [k for k in HEADER_KEYS if k not in header]
                if missing:
                    raise ValueError(
                        f"{path}:{lineno}: header lacks {', '.join(missing)}")
                flights.append((header, []))
                continue
            missing = [k for k in EVENT_KEYS if k not in rec]
            if missing:
                raise ValueError(
                    f"{path}:{lineno}: event lacks {', '.join(missing)}")
            if not flights:
                raise ValueError(
                    f"{path}:{lineno}: event line before any header")
            if rec["episode"] != flights[-1][0]["episode"]:
                raise ValueError(f"{path}:{lineno}: event of episode "
                                 f"{rec['episode']} under another header")
            flights[-1][1].append(rec)
    for header, events in flights:
        if header["events"] != len(events):
            raise ValueError(f"{path}: episode {header['episode']} header "
                             f"counts {header['events']} events, "
                             f"file holds {len(events)}")
    return flights


def is_traced(events) -> bool:
    """Traced episodes carry the per-step context flight rings omit."""
    return any(ev["kind"] in ("step", "episode_end") for ev in events)


def where(header: dict) -> str:
    return " / ".join(
        str(header[k]) for k in ("scenario", "fault") if k in header)


def describe_event(ev: dict) -> str:
    kind = ev.get("kind", "?")
    step = ev.get("step", "?")
    if kind == "message_reject":
        detail = f"sender={ev.get('sender')} reason={ev.get('reason')}"
    elif kind == "message_accept":
        detail = f"sender={ev.get('sender')}"
    elif kind == "ladder_transition":
        detail = f"level {ev.get('from')} -> {ev.get('to')}"
    elif kind == "gate_verdict":
        detail = "EMERGENCY" if ev.get("code") == 1 else "nominal"
    elif kind == "plan_clamp":
        detail = "below a_min" if ev.get("code") == 0 else "above a_max"
    elif kind == "fault":
        detail = str(ev.get("action"))
    elif kind == "kalman_rollback":
        detail = f"replayed={ev.get('replayed')}"
    elif kind == "step":
        detail = (("EMERGENCY" if ev.get("emergency") else "nominal") +
                  f" level={ev.get('ladder_level')}")
    elif kind == "episode_end":
        detail = (f"collided={ev.get('collided')} "
                  f"reached={ev.get('reached')}")
    else:
        detail = ""
    value = ev.get("value")
    tail = f" value={value:.6g}" if isinstance(value, (int, float)) else ""
    return f"step {step:>5}  {kind:<17} {detail}{tail}".rstrip()


def section_cells(lines: list[str], csv_path: str, worst: int) -> None:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{csv_path}: empty campaign CSV")
    collisions = sum(int(r["collisions"]) for r in rows)
    episodes = sum(int(r["episodes"]) for r in rows)
    lines.append("## Campaign cells")
    lines.append("")
    verdict = ("**HELD**" if collisions == 0 else
               f"**VIOLATED** ({collisions} unsafe-set entries)")
    lines.append(f"Safety invariant eta(kappa_c) >= 0: {verdict} over "
                 f"{episodes} episodes in {len(rows)} cells.")
    lines.append("")
    rows.sort(key=lambda r: float(r["min_eta"]))
    lines.append(f"Worst {min(worst, len(rows))} cells by min eta:")
    lines.append("")
    lines.append("| fault | scenario | min eta | mean eta | collisions "
                 "| emergency steps | rejected |")
    lines.append("|---|---|---|---|---|---|---|")
    for r in rows[:worst]:
        lines.append(
            f"| {r['fault']} | {r['scenario']} "
            f"| {fmt_eta(float(r['min_eta']))} "
            f"| {fmt_eta(float(r['mean_eta']))} | {r['collisions']} "
            f"| {r['emergency_steps']} | {r['messages_rejected']} |")
    lines.append("")


def section_histogram(lines: list[str], series: dict[str, float],
                      name: str, title: str) -> None:
    buckets = []
    for label, value in series_with_prefix(series, name + "_bucket"):
        m = re.match(r'le="([^"]*)"', label)
        if m is None:
            continue
        le = float("inf") if m.group(1) == "+Inf" else float(m.group(1))
        buckets.append((le, value))
    if not buckets:
        return
    buckets.sort(key=lambda b: b[0])
    total = buckets[-1][1]
    lines.append(f"## {title}")
    lines.append("")
    lines.append("```")
    prev = 0.0
    lo = "-inf"
    for le, cum in buckets:
        count = cum - prev
        prev = cum
        hi = "+inf" if le == float("inf") else f"{le:g}"
        frac = count / total if total else 0.0
        lines.append(f"({lo:>6}, {hi:>6}]  {int(count):>6}  {bar(frac)}")
        lo = hi
    lines.append("```")
    lines.append("")


def section_counters(lines: list[str], series: dict[str, float],
                     name: str, label_key: str, title: str) -> None:
    rows = []
    for label, value in series_with_prefix(series, name):
        m = re.match(label_key + r'="([^"]*)"', label)
        if m is not None:
            rows.append((m.group(1), value))
    if not rows:
        return
    total = sum(v for _, v in rows)
    rows.sort(key=lambda r: -r[1])
    lines.append(f"## {title}")
    lines.append("")
    lines.append(f"| {label_key} | count | share |")
    lines.append("|---|---|---|")
    for key, value in rows:
        share = value / total if total else 0.0
        lines.append(f"| {key} | {int(value)} | {share:.1%} |")
    lines.append("")


def section_spans(lines: list[str], spans_path: str) -> None:
    series = read_prom(spans_path)
    rows = []
    for label, ns in series_with_prefix(series, "cvsafe_sweep_ns_total"):
        m = re.match(r'sweep="([^"]*)"', label)
        if m is None:
            continue
        sweep = m.group(1)
        steps = series.get(f'cvsafe_sweep_steps_total{{sweep="{sweep}"}}', 0)
        rows.append((sweep, ns, steps))
    if not rows:
        return
    total_ns = sum(ns for _, ns, _ in rows)
    rows.sort(key=lambda r: -r[1])
    lines.append("## Per-phase time breakdown (wall clock)")
    lines.append("")
    lines.append("Scheduling-dependent — never byte-compared across runs.")
    lines.append("")
    lines.append("| phase | total ms | share | steps | ns/step |")
    lines.append("|---|---|---|---|---|")
    for sweep, ns, steps in rows:
        share = ns / total_ns if total_ns else 0.0
        per = ns / steps if steps else 0.0
        lines.append(f"| {sweep} | {ns / 1e6:.2f} | {share:.1%} "
                     f"| {int(steps)} | {per:.0f} |")
    lines.append("")


def section_episodes(lines: list[str], flights) -> None:
    """Per-episode and total summaries of every recorded episode."""
    ladder_steps: collections.Counter = collections.Counter()
    ladder_edges: collections.Counter = collections.Counter()
    rejections: collections.Counter = collections.Counter()
    faults: collections.Counter = collections.Counter()
    rollbacks = replayed = entries = emergency_steps = 0
    outcomes = []
    rows = []
    for header, events in flights:
        ep_steps = ep_entries = ep_emergency = 0
        for ev in events:
            kind = ev["kind"]
            if kind == "gate_verdict":
                ep_entries += 1 if ev.get("code") == 1 else 0
            elif kind == "step":
                ep_steps += 1
                ep_emergency += 1 if ev.get("emergency") else 0
                if ev.get("ladder_level", -1) >= 0:
                    ladder_steps[ev["ladder_level"]] += 1
            elif kind == "ladder_transition":
                ladder_edges[(ev["from"], ev["to"])] += 1
            elif kind == "message_reject":
                rejections[ev["reason"]] += 1
            elif kind == "fault":
                faults[ev["action"]] += 1
            elif kind == "kalman_rollback":
                rollbacks += 1
                replayed += ev.get("replayed", 0)
            elif kind == "episode_end":
                outcomes.append((ev.get("collided"), ev.get("reached"),
                                 ev["value"]))
        entries += ep_entries
        emergency_steps += ep_emergency
        rows.append((header, ep_steps, ep_entries, ep_emergency))
    traced = sum(1 for _, events in flights if is_traced(events))
    lines.append("## Recorded episodes")
    lines.append("")
    lines.append(f"{len(flights)} episode(s), {traced} traced: "
                 f"{entries} kappa_e entries (gate verdicts into kappa_e), "
                 f"{emergency_steps} traced kappa_e step(s).")
    lines.append("")
    lines.append("| episode | seed | where | steps | kappa_e entries "
                 "| kappa_e steps | rejections | eta |")
    lines.append("|---|---|---|---|---|---|---|---|")
    for header, steps, ep_entries, ep_emergency in rows[:EPISODE_ROWS]:
        lines.append(f"| {header['episode']} | {header['seed']} "
                     f"| {where(header)} | {steps} | {ep_entries} "
                     f"| {ep_emergency} | {header['rejections']} "
                     f"| {fmt_eta(header['eta'])} |")
    if len(rows) > EPISODE_ROWS:
        lines.append(f"| ... {len(rows) - EPISODE_ROWS} more | | | | | | | |")
    lines.append("")
    if ladder_steps or ladder_edges:
        lines.append("Degradation ladder (level 0 = full): "
                     + ", ".join(f"level {lvl} {n} step(s)"
                                 for lvl, n in sorted(ladder_steps.items()))
                     + ("; " if ladder_steps and ladder_edges else "")
                     + ", ".join(f"{a} -> {b} x{n}"
                                 for (a, b), n in sorted(ladder_edges.items())))
        lines.append("")
    if rejections:
        lines.append("Gate rejections: " + ", ".join(
            f"{reason} {n}" for reason, n in sorted(rejections.items())))
        lines.append("")
    if faults:
        lines.append("Fault actions: " + ", ".join(
            f"{action} {n}" for action, n in sorted(faults.items())))
        lines.append("")
    if rollbacks:
        lines.append(f"Kalman rollbacks: {rollbacks} re-anchor(s), "
                     f"{replayed} sensor update(s) replayed")
        lines.append("")
    if outcomes:
        collided = sum(1 for c, _, _ in outcomes if c)
        reached = sum(1 for _, r, _ in outcomes if r)
        etas = [e for _, _, e in outcomes if e is not None]
        text = (f"Outcomes: {len(outcomes)} finished, {collided} collided, "
                f"{reached} reached")
        if etas:
            text += f", eta in [{min(etas):.4f}, {max(etas):.4f}]"
        lines.append(text)
        lines.append("")


def section_flights(lines: list[str], flights, worst: int,
                    max_events: int) -> None:
    flights = [f for f in flights if f[0]["triggers"]]
    if not flights:
        return
    lines.append("## Triggered flight recordings")
    lines.append("")
    lines.append(f"{len(flights)} episode(s) tripped a dump trigger.")
    lines.append("")
    flights.sort(key=lambda f: f[0].get("eta", 0.0))
    for header, events in flights[:worst]:
        title = (f"episode {header.get('episode')} "
                 f"(seed {header.get('seed')})")
        if where(header):
            title += f" under {where(header)}"
        lines.append(f"### {title}")
        lines.append("")
        lines.append(
            f"triggers: {', '.join(header.get('triggers', []))} — "
            f"eta {fmt_eta(header.get('eta', 0.0))}, "
            f"collided {header.get('collided')}, "
            f"{header.get('rejections')} rejection(s), "
            f"{header.get('events')} event(s) "
            f"({header.get('overwritten')} overwritten)")
        lines.append("")
        lines.append("```")
        shown = events if len(events) <= max_events else events[-max_events:]
        if len(events) > len(shown):
            lines.append(f"... {len(events) - len(shown)} earlier "
                         "event(s) elided ...")
        for ev in shown:
            lines.append(describe_event(ev))
        lines.append("```")
        lines.append("")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--csv", help="campaign CSV (cvsafe_cli campaign --out)")
    ap.add_argument("--flights",
                    help="event JSONL: flight dumps (--flight-recorder) or "
                         "traces (--trace, attack offender_k.jsonl)")
    ap.add_argument("--telemetry",
                    help="deterministic telemetry registry (--telemetry)")
    ap.add_argument("--spans",
                    help="sweep-span registry (default: TELEMETRY.spans "
                         "when present)")
    ap.add_argument("--worst", type=int, default=5,
                    help="cells / flight dumps to detail (default 5)")
    ap.add_argument("--max-events", type=int, default=40,
                    help="events inlined per dump (default 40)")
    ap.add_argument("--out", help="output markdown path (default stdout)")
    args = ap.parse_args()
    if not (args.csv or args.flights or args.telemetry):
        print("need at least one of --csv / --flights / --telemetry",
              file=sys.stderr)
        return 2

    lines: list[str] = ["# cvsafe campaign report", ""]
    try:
        if args.csv:
            section_cells(lines, args.csv, args.worst)
        if args.telemetry:
            series = read_prom(args.telemetry)
            section_histogram(lines, series, "cvsafe_fleet_eta",
                              "Safety-margin (eta) distribution")
            section_histogram(lines, series, "cvsafe_fleet_episode_steps",
                              "Episode length (pool residency) distribution")
            section_counters(lines, series, "cvsafe_fleet_rejections_total",
                             "reason", "Plausibility-gate rejections")
            section_counters(lines, series,
                             "cvsafe_fleet_ladder_steps_total", "level",
                             "Degradation-ladder occupancy")
            spans = args.spans or args.telemetry + ".spans"
            if os.path.exists(spans):
                section_spans(lines, spans)
        elif args.spans:
            section_spans(lines, args.spans)
        if args.flights:
            flights = load_flights(args.flights)
            if flights:
                section_episodes(lines, flights)
            section_flights(lines, flights, args.worst, args.max_events)
            truncated = [h for h, events in flights
                         if is_traced(events) and h["overwritten"]]
            for h in truncated:
                print(f"campaign_report: traced episode {h['episode']} "
                      f"({where(h) or 'unlabeled'}) lost "
                      f"{h['overwritten']} overwritten event(s)",
                      file=sys.stderr)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"campaign_report: {e}", file=sys.stderr)
        return 1

    text = "\n".join(lines).rstrip() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 1 if args.flights and truncated else 0


if __name__ == "__main__":
    sys.exit(main())
