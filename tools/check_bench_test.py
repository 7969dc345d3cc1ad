#!/usr/bin/env python3
"""Self-test of tools/check_bench.py's checksum rule.

Writes baseline/fresh BENCH_8.json fixtures into a temporary directory and
runs the gate on them as CI does. The hosts differ (hardware_threads 1 vs
4), so the same-host guard skips every throughput row and only the
checksum rule can decide the exit status:

  * a mismatched tier checksum must exit 1;
  * identical checksums must exit 0;
  * a fresh run with fewer tiers (the 100k smoke) must exit 0.

A fourth case checks that skipped baselines are visible: the host mismatch
and a baseline with no fresh run (BENCH_7.json here) must each print a
GitHub Actions "::warning::" line, without changing the exit status.

Run: python3 tools/check_bench_test.py (exit 0 = all cases behaved).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

GATE = Path(__file__).resolve().parent / "check_bench.py"
CHECKSUMS = ["0x8b811d174142f828", "0xc1d24e799a60c4c1", "0x135ec6500fa84070"]


def snapshot(hardware_threads: int, checksums: list[str]) -> dict:
    tiers = [{"nodes": 10 ** (4 + i), "sinr_power_checksum": c}
             for i, c in enumerate(checksums)]
    return {"bench": {"experiment": "E23", "build_type": "Release",
                      "hardware_threads": hardware_threads,
                      "nodes_per_second_all_models": 1000.0,
                      "tiers": tiers}}


def run_gate(root: Path, fresh_checksums: list[str],
             orphan_baseline: bool = False) -> subprocess.CompletedProcess:
    baseline = root / "baseline"
    fresh = root / "fresh"
    for d in (baseline, fresh):
        d.mkdir(exist_ok=True)
    (baseline / "BENCH_8.json").write_text(json.dumps(snapshot(1, CHECKSUMS)))
    (fresh / "BENCH_8.json").write_text(
        json.dumps(snapshot(4, fresh_checksums)))
    orphan = baseline / "BENCH_7.json"
    if orphan_baseline:
        orphan.write_text(json.dumps(snapshot(1, CHECKSUMS)))
    elif orphan.exists():
        orphan.unlink()
    return subprocess.run(
        [sys.executable, str(GATE), "--baseline-dir", str(baseline),
         "--fresh-dir", str(fresh)],
        capture_output=True, text=True, check=False)


def main() -> int:
    cases = [
        ("mismatched tier checksum", CHECKSUMS[:1] + ["0x0"] + CHECKSUMS[2:], 1),
        ("identical checksums", CHECKSUMS, 0),
        ("fresh run with fewer tiers", CHECKSUMS[:2], 0),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, fresh_checksums, expected in cases:
            code = run_gate(Path(tmp), fresh_checksums).returncode
            if code != expected:
                failures.append(f"{name}: exit {code}, expected {expected}")
        run = run_gate(Path(tmp), CHECKSUMS, orphan_baseline=True)
        warnings = [line for line in run.stdout.splitlines()
                    if line.startswith("::warning")]
        if run.returncode != 0:
            failures.append(f"skipped baselines: exit {run.returncode}, "
                            "expected 0")
        for needle in ("BENCH_8.json: host/build mismatch",
                       "BENCH_7.json: no fresh run"):
            if not any(needle in line for line in warnings):
                failures.append(f"skipped baselines: no ::warning:: line "
                                f"containing {needle!r}")
    for f in failures:
        print(f"check_bench self-test: {f}", file=sys.stderr)
    print("check_bench self-test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
