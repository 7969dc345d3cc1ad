#!/usr/bin/env python3
"""Bench-trajectory gate: fresh BENCH_*.json snapshots vs committed baselines.

Every experiment binary writes an observability snapshot (BENCH_N.json) whose
"bench" source carries the headline performance numbers plus a provenance
stamp (git_sha, build_type, hardware_threads — analysis::stamp_bench). The
committed copies in the repo root are the trajectory baselines; CI copies
them aside, re-runs the benches (which overwrite the files in the working
directory), and then runs this gate.

Rules:
  * Every "*_checksum" field, at any depth of the bench section (E23 keeps
    one per tier), must equal its baseline exactly. Checksums are
    bit-identity contracts, not timings, so they are compared whatever host
    either side ran on; a checksum the fresh run did not produce (a smaller
    tier set) is SKIPPED.
  * Only throughput-shaped fields are gated — numeric keys containing
    "speedup", "per_second", or "throughput". Higher is better; a fresh
    value more than --threshold (default 25%) below baseline fails.
  * Same-host guard: throughput fields are compared only when baseline and
    fresh agree on hardware_threads and build_type. A mismatch means the
    numbers were measured on different host shapes and the comparison would
    be noise — the file's throughput rows are reported as SKIPPED, never
    failed. (Baselines from a 1-core container vs a multi-core runner land
    here by design.)
  * Throughput fields whose baseline is <= 0, or files whose bench section
    sets speedup_skipped, are skipped — the baseline recorded "not
    measured".
  * git_sha differences are expected (that is the point) and reported
    informationally.
  * A baseline skipped whole — no fresh run produced it, or its host/build
    stamp differs from the fresh run's — also prints a GitHub Actions
    "::warning::" line, so a stale baseline shows up in the CI summary
    instead of hiding as a SKIPPED row.

The human-readable diff lands in --report (markdown, uploaded as a CI
artifact) and on stdout. Exit status: 0 = no regression, 1 = a throughput
regression or a checksum mismatch, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GATED_SUBSTRINGS = ("speedup", "per_second", "throughput")
STAMP_KEYS = ("hardware_threads", "build_type")


def bench_section(path: Path) -> dict:
    """The "bench" source of a registry snapshot, {} when absent."""
    with path.open() as f:
        doc = json.load(f)
    section = doc.get("bench", {})
    return section if isinstance(section, dict) else {}


def gated_fields(section: dict) -> dict[str, float]:
    fields = {}
    for key, value in section.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if any(s in key for s in GATED_SUBSTRINGS) and "skipped" not in key:
            fields[key] = float(value)
    return fields


def checksum_fields(value, path: str = "") -> dict[str, object]:
    """Every "*_checksum" leaf under value, keyed by its path
    ("tiers[1].sinr_power_checksum")."""
    fields = {}
    if isinstance(value, dict):
        for key, child in value.items():
            child_path = f"{path}.{key}" if path else key
            if key.endswith("_checksum") and not isinstance(child, (dict, list)):
                fields[child_path] = child
            else:
                fields.update(checksum_fields(child, child_path))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            fields.update(checksum_fields(child, f"{path}[{i}]"))
    return fields


def compare_file(name: str, baseline: dict, fresh: dict, threshold: float):
    """Yield (field, baseline, fresh, delta_pct, status) rows for one file."""
    fresh_checksums = checksum_fields(fresh)
    for key, base_value in sorted(checksum_fields(baseline).items()):
        if key not in fresh_checksums:
            yield (key, base_value, None, None, "SKIPPED: not in fresh run")
        elif fresh_checksums[key] == base_value:
            yield (key, base_value, fresh_checksums[key], None, "OK")
        else:
            yield (key, base_value, fresh_checksums[key], None,
                   "FAIL: checksum differs")
    for key in STAMP_KEYS:
        if baseline.get(key) != fresh.get(key):
            yield (f"({key})", baseline.get(key), fresh.get(key), None,
                   "SKIPPED: host/build mismatch")
            return
    if baseline.get("speedup_skipped") or fresh.get("speedup_skipped"):
        yield ("(speedup_skipped)", baseline.get("speedup_skipped"),
               fresh.get("speedup_skipped"), None,
               "SKIPPED: baseline host could not measure speedup")
        return
    fields = gated_fields(baseline)
    if not fields:
        yield ("(no gated fields)", None, None, None, "SKIPPED: nothing to gate")
        return
    for key, base_value in sorted(fields.items()):
        if base_value <= 0.0:
            yield (key, base_value, fresh.get(key), None,
                   "SKIPPED: baseline unmeasured")
            continue
        fresh_value = fresh.get(key)
        if not isinstance(fresh_value, (int, float)):
            yield (key, base_value, fresh_value, None, "FAIL: missing in fresh run")
            continue
        delta = (float(fresh_value) - base_value) / base_value * 100.0
        status = "OK" if float(fresh_value) >= base_value * (1.0 - threshold) \
            else f"FAIL: > {threshold * 100.0:.0f}% regression"
        yield (key, base_value, float(fresh_value), delta, status)


def warn(name: str, reason: str) -> None:
    """Surface a skipped baseline as a GitHub Actions warning annotation."""
    print(f"::warning title=check_bench::{name}: {reason}")


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", required=True, type=Path,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--fresh-dir", required=True, type=Path,
                        help="directory the benches just wrote BENCH_*.json into")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional drop (default 0.25 = 25%%)")
    parser.add_argument("--report", type=Path, default=None,
                        help="write the markdown diff report here")
    args = parser.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    lines = ["# Bench trajectory report", ""]
    failed = False
    for baseline_path in baselines:
        name = baseline_path.name
        fresh_path = args.fresh_dir / name
        lines.append(f"## {name}")
        if not fresh_path.exists():
            lines.append("")
            lines.append("SKIPPED: no fresh run produced this snapshot")
            lines.append("")
            warn(name, "no fresh run produced this snapshot; "
                 "its baseline is not checked")
            continue
        try:
            baseline = bench_section(baseline_path)
            fresh = bench_section(fresh_path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 2
        base_sha = baseline.get("git_sha", "unknown")
        fresh_sha = fresh.get("git_sha", "unknown")
        lines.append(f"baseline {base_sha} -> fresh {fresh_sha}")
        lines.append("")
        lines.append("| field | baseline | fresh | delta | status |")
        lines.append("|-------|----------|-------|-------|--------|")
        for field, base_v, fresh_v, delta, status in compare_file(
                name, baseline, fresh, args.threshold):
            delta_s = "-" if delta is None else f"{delta:+.1f}%"
            lines.append(f"| {field} | {fmt(base_v)} | {fmt(fresh_v)} "
                         f"| {delta_s} | {status} |")
            if status.startswith("FAIL"):
                failed = True
            if status == "SKIPPED: host/build mismatch":
                warn(name, f"host/build mismatch on {field.strip('()')} "
                     f"(baseline {fmt(base_v)}, fresh {fmt(fresh_v)}); "
                     "throughput rows are not compared")
        lines.append("")

    verdict = ("REGRESSION: a checksum differs or a gated field dropped past "
               "the threshold" if failed else
               "checksums identical, no regressions past the threshold")
    lines.append(verdict)
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.report is not None:
        args.report.write_text(report)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
