"""Smoke test of the benchmark: each workload at its smallest run (one
pass, untraced and traced) must finish, pass its correctness checks and
print every metric of BENCHMARK.json with its unit.

The workloads have no smaller size than a full pass, so this takes about
three minutes on a 2-core x86-64 VM; the fit pass alone is 30-50 s.

Run from the repository root: python -m pytest perfbench/test_smoke.py
"""

import report


def test_every_workload_prints_every_metric_with_its_unit():
    assert report.main(["--seconds", "1"]) == 0
