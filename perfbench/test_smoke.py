"""Smoke test of the benchmark harness on the smallest instance, E0.

    python3 -m pytest perfbench/test_smoke.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, run.SRC)

COMMANDS = wl.chain("e0")
EXACT = ("_count", "_calls", "rref_nnz_in", "rref_nnz_out", "rref_rows_in")


def test_e0_chain_passes_the_gate_on_seeds_0_and_1(tmp_path):
    reference = run.load_reference()
    execute = run.child_executor(str(tmp_path / "commands.log"))
    for seed in (0, 1):
        in_dir, times = run.setup(COMMANDS, seed, str(tmp_path), 2, reference)
        assert len(times) == 2 and min(times) > 0
        records = run.run_pass(COMMANDS, in_dir, str(tmp_path / "pass"), seed,
                               reference, execute)
        assert [r["failed"] for r in records] == [None] * len(COMMANDS)
        assert all(r["wall"] > 0 and r["cpu"] > 0 and r["rss_kb"] > 0 for r in records)


def test_gate_flags_a_changed_output_and_a_failed_verify(tmp_path):
    reference = dict(run.load_reference(), **{"e0_twist.json": "0" * 64})
    in_dir, _ = run.setup(COMMANDS, 0, str(tmp_path), 1, run.load_reference())
    child = run.child_executor(str(tmp_path / "commands.log"))

    def execute(i, cmd, args, report):
        rc, wall, cpu, rss = child(i, cmd, args, report)
        return (1 if cmd.argv[:2] == ("verify", "twist") else rc), wall, cpu, rss
    records = run.run_pass(COMMANDS, in_dir, str(tmp_path / "pass"), 0, reference, execute)
    failed = {r["cmd"].label: r["failed"] for r in records if r["failed"]}
    assert set(failed) == {"compute-twist e0", "verify twist e0"}
    assert "sha256 of e0_twist.json" in failed["compute-twist e0"]


def test_measured_run_scales_its_times_to_the_reference_speed(tmp_path):
    records, samples, info = run.measure(COMMANDS, 0, 1, str(tmp_path), run.load_reference())
    assert not [r for r in records if r["failed"]]
    assert len(samples["setup_s"]) == run.SETUP_REPS and min(samples["setup_s"]) > 0
    for ref, wall, speed in zip(samples["pass_ref_s"], info["pass_wall_s"], info["speed"]):
        assert speed > 0 and abs(ref - wall * speed) < 1e-9


def test_traced_run_reports_layers_and_repeats_its_counts(tmp_path):
    reference = run.load_reference()
    runs = []
    for k in range(2):
        records, metrics = run.trace(COMMANDS, 0, str(tmp_path / str(k)), reference)
        assert not [r for r in records if r["failed"]]
        runs.append(metrics)
    metrics = runs[0]
    for name in ("datum.xi_inverse_calls", "linalg.sparse_solve_calls",
                 "scalar.mul_count", "cli.bytes_read", "cli.startup_s"):
        assert metrics[name][0] > 0, name
    exact = sorted(n for n in metrics if n.endswith(EXACT))
    assert exact and [runs[0][n] for n in exact] == [runs[1][n] for n in exact]
