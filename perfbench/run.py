#!/usr/bin/env python3
"""Benchmark of the dyntwist command line, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from its ``src/``.

--trace 0  Set up the seeded input files SETUP_REPS times, then run passes
           of the workload's command sequence until the next pass would end
           after S seconds (at least one pass).  Every command is a fresh
           ``python -m dyntwist.cli`` child, timed from outside; wall time,
           CPU time and peak RSS come from os.wait4.  This process and its
           children are pinned to one CPU, and a speed calibration runs
           after each command (see Calibrator).  Prints the end-to-end
           metrics (medians over passes), with times scaled to the
           reference speed.
--trace 1  Runs the same commands in this process through dyntwist.cli.main:
           one plain pass, one pass with layer spans, one pass with operation
           counters (see tracing.py).  Prints the per-layer metrics.

A command fails when it exits non-zero, when a check in its --report is not
PASS, when the `verify twist` of the twist it wrote fails, or when an output
file's sha256 differs from reference.json (example files on every seed,
twists on seed 0).  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 without a result when
the checkout holds no dyntwist sources; 1 when the harness itself fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(".bench_build", "perfbench")  # relative to ROOT, the cwd
SETUP_REPS = 3
STARTUP_REPS = 5
MIN_SAMPLE_PAIRS = 64

import workloads as wl  # noqa: E402  (sibling module; needs HERE on sys.path)
from inputs import EXAMPLE_PREFIX  # noqa: E402

# Gated end-to-end metrics.  The time summed by command kind, the unscaled
# pass wall time and the speed factor are printed too, but not gated: single
# short commands spread too much between runs.
E2E_UNITS = {"setup_s": "s", "pass_ref_s": "s", "pass_cpu_ref_s": "s", "peak_rss_mb": "MB"}
# Speed calibration (see Calibrator): a chunk of calibrate.py takes
# CHUNK_REF_S on the reference machine.
CHUNK_REF_S = 0.02
CALIB_SHARE = 0.3
CALIB_MIN_S = 0.05


class HarnessError(RuntimeError):
    pass


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


class Calibrator:
    """Measures the machine's speed between the commands of a run.

    The host's speed drifts by up to a factor of two within minutes, and the
    children slow down with it.  After each command the calibrator runs
    calibrate.py in a child for CALIB_SHARE of the command's wall time (at
    least CALIB_MIN_S).  Each gated time is then scaled by CHUNK_REF_S over
    the mean chunk time of the calibrations after the commands of its pass
    (or its set-up): the time on a machine that does a chunk in CHUNK_REF_S.
    """

    def __init__(self):
        self.chunks = []
        self.seconds = []

    def after(self, wall: float):
        """Calibrate for a share of the wall time just measured."""
        budget = max(CALIB_MIN_S, CALIB_SHARE * wall)
        out = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py"), repr(budget)],
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        try:
            chunks, seconds = out.stdout.split()
            self.chunks.append(int(chunks))
            self.seconds.append(float(seconds))
        except ValueError:
            raise HarnessError("calibrate.py exited %d without a result" % out.returncode)

    def mark(self) -> int:
        return len(self.chunks)

    def scale_since(self, mark: int) -> float:
        """Factor to the reference speed for what was measured after mark."""
        return CHUNK_REF_S * sum(self.chunks[mark:]) / sum(self.seconds[mark:])


def spawn(argv: list[str], log_path: str):
    """Run one child to completion: (exit code, wall s, cpu s, max rss KB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


# -- set-up -----------------------------------------------------------------


def _tree_bytes(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def setup(commands, seed: int, work: str, reps: int, reference: dict,
          calibrator: Calibrator | None = None):
    """Generate the seeded inputs reps times; returns (input dir, seconds).

    With a calibrator the seconds are scaled to the reference speed."""
    mark = calibrator.mark() if calibrator else 0
    insts = wl.instances(commands)
    os.makedirs(work, exist_ok=True)
    log = os.path.join(work, "setup.log")
    dirs, times = [], []
    for k in range(reps):
        out = os.path.join(work, "inputs-%d" % k)
        shutil.rmtree(out, ignore_errors=True)
        rc, wall, _, _ = spawn([sys.executable, os.path.join(HERE, "inputs.py"),
                                "--seed", str(seed), "--out", out, *insts], log)
        if rc != 0:
            raise HarnessError("input generation exited %d, see %s" % (rc, log))
        dirs.append(out)
        times.append(wall)
        if calibrator:
            calibrator.after(wall)
    if calibrator:
        scale = calibrator.scale_since(mark)
        times = [t * scale for t in times]
    first = _tree_bytes(dirs[0])
    if any(_tree_bytes(d) != first for d in dirs[1:]):
        raise HarnessError("input generation is not deterministic")
    if seed == 0:
        for inst in insts:
            for part in ("hopf", "comodule", "base", "datum"):
                name = "%s_%s.json" % (EXAMPLE_PREFIX[inst], part)
                if sha256(os.path.join(dirs[0], "%s_%s.json" % (inst, part))) != reference[name]:
                    raise HarnessError("seed-0 input %s_%s.json differs from `example` %s"
                                       % (inst, part, name))
    return dirs[0], times


# -- passes -----------------------------------------------------------------


def check(cmd, rc: int, report_path: str, out_dir: str, seed: int, reference: dict):
    """Why the command failed, or None when it passed the gate."""
    if rc != 0:
        return "exit code %s" % rc
    try:
        with open(report_path) as fh:
            checks = json.load(fh)["checks"]
    except (OSError, ValueError, KeyError):
        return "no readable --report"
    if not checks:
        return "report lists no checks"
    for c in checks:
        if c.get("status") != "PASS":
            return "check %r is %s" % (c.get("name"), c.get("status"))
    for rel, every_seed in cmd.outputs:
        if every_seed or seed == 0:
            name = os.path.basename(rel)
            path = os.path.join(out_dir, rel)
            if not os.path.exists(path) or sha256(path) != reference[name]:
                return "sha256 of %s differs from the reference" % name
    return None


def run_pass(commands, in_dir: str, out_dir: str, seed: int, reference: dict, execute):
    """Run the commands once, in order; one record per command."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    records = []
    for i, cmd in enumerate(commands):
        report = os.path.join(out_dir, "report-%02d.json" % i)
        rc, wall, cpu, rss_kb = execute(i, cmd, cmd.args(in_dir, out_dir), report)
        records.append({"cmd": cmd, "wall": wall, "cpu": cpu, "rss_kb": rss_kb,
                        "failed": check(cmd, rc, report, out_dir, seed, reference)})
    for r in records:
        cmd = r["cmd"]
        if r["failed"] and cmd.argv[:2] == ("verify", "twist"):
            for q in records:
                if (q["cmd"].kind == "compute_twist" and q["cmd"].inst == cmd.inst
                        and not q["failed"]):
                    q["failed"] = "its twist failed verify twist"
    return records


def child_executor(log: str, calibrator: Calibrator | None = None):
    """Runs each command in a child; with a calibrator, calibrates after each."""
    def execute(i, cmd, args, report):
        if cmd.program == "validate":
            prog = [os.path.join(HERE, "validate_datum.py")]
        else:
            prog = ["-m", "dyntwist.cli"]
        measured = spawn([sys.executable, *prog, "--report", report, *args], log)
        if calibrator:
            calibrator.after(measured[1])
        return measured
    return execute


def inprocess_executor(log: str, tracer=None):
    """Calls the program's entry points in this process; no CPU or RSS figures."""
    from dyntwist import cli
    import validate_datum

    def execute(i, cmd, args, report):
        main = validate_datum.main if cmd.program == "validate" else cli.main
        argv = ["--report", report, *args]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = main(argv)
                else:
                    rc = tracer.run_command(i, "command." + cmd.kind, lambda: main(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = -1
        wall = time.perf_counter() - start
        if err.getvalue():
            with open(log, "a") as fh:
                fh.write(err.getvalue())
        return rc, wall, 0.0, 0
    return execute


# -- the two modes ------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(commands, seed: int, seconds: float, work: str, reference: dict):
    """End-to-end mode: (records of every pass, {metric: [value per sample]},
    {printed, ungated metric: [value per sample]})."""
    calibrator = Calibrator()
    in_dir, setup_times = setup(commands, seed, work, SETUP_REPS, reference, calibrator)
    execute = child_executor(os.path.join(work, "commands.log"), calibrator)
    samples = {name: [] for name in E2E_UNITS}
    samples["setup_s"] = setup_times
    kinds = [k for k in wl.KINDS if any(c.kind == k for c in commands)]
    info = {name: [] for name in ["pass_wall_s", "speed"] + [k + "_ref_s" for k in kinds]}
    all_records = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        mark = calibrator.mark()
        records = run_pass(commands, in_dir, os.path.join(work, "pass"), seed,
                           reference, execute)
        pass_wall = time.perf_counter() - t0
        scale = calibrator.scale_since(mark)
        wall = sum(r["wall"] for r in records)
        samples["pass_ref_s"].append(wall * scale)
        samples["pass_cpu_ref_s"].append(sum(r["cpu"] for r in records) * scale)
        samples["peak_rss_mb"].append(max(r["rss_kb"] for r in records) / 1024)
        info["pass_wall_s"].append(wall)
        info["speed"].append(scale)
        for kind in kinds:
            info[kind + "_ref_s"].append(scale * sum(r["wall"] for r in records
                                                     if r["cmd"].kind == kind))
        all_records += records
        elapsed = time.perf_counter() - start
        if elapsed + pass_wall > seconds:
            break
    return all_records, samples, info


def _fallback_pairs(degree: int, seed: int):
    """Operands for a field the workload never multiplies in."""
    from dyntwist.scalar import Cyclo
    rng = random.Random(seed)
    order = {1: 2, 2: 3}[degree]

    def value():
        return Cyclo(order, [Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                             for _ in range(degree)])
    return [(value(), value()) for _ in range(1024)]


def trace(commands, seed: int, work: str, reference: dict):
    """Per-layer mode: (records of every pass, {metric: (value, unit)})."""
    from tracing import SPAN_NAMES, OpCounter, SpanTracer, mul_ns
    in_dir, _ = setup(commands, seed, work, 1, reference)
    log = os.path.join(work, "commands.log")
    out_dir = os.path.join(work, "pass")

    def timed_pass(tracer=None):
        t0 = time.perf_counter()
        records = run_pass(commands, in_dir, out_dir, seed, reference,
                           inprocess_executor(log, tracer))
        return records, time.perf_counter() - t0

    plain, plain_s = timed_pass()
    tracer = SpanTracer()
    tracer.install()
    try:
        spanned, spanned_s = timed_pass(tracer)
    finally:
        tracer.uninstall()
    counter = OpCounter()
    counter.install()
    try:
        counted, _ = timed_pass()
    finally:
        counter.uninstall()
    tracer.dump(os.path.join(work, "spans.jsonl"))

    m = {}
    totals = tracer.totals()
    for name in SPAN_NAMES:
        t = totals[name]
        m[name + "_s"] = (t["s"], "s")
        m[name + "_self_s"] = (t["self_s"], "s")
        m[name + "_calls"] = (t["calls"], "count")
    for kind in wl.KINDS:
        m["command.%s_s" % kind] = (totals["command." + kind]["s"], "s")
    c = counter.counts

    def frac(num, den):
        return c[num] / c[den] if c[den] else 0.0
    m["scalar.mul_count"] = (c["mul"], "count")
    m["scalar.add_count"] = (c["add"], "count")
    m["scalar.inverse_count"] = (c["inverse"], "count")
    m["scalar.is_zero_count"] = (c["is_zero"], "count")
    m["scalar.is_zero_hit_frac"] = (frac("is_zero_hit", "is_zero"), "ratio")
    for degree in (1, 2):
        pairs = counter.samples.get(degree, [])
        if len(pairs) < MIN_SAMPLE_PAIRS:
            pairs = _fallback_pairs(degree, seed)
        m["scalar.mul_ns_phi%d" % degree] = (mul_ns(pairs), "ns")
    for key in ("rref_rows_in", "rref_nnz_in", "rref_nnz_out", "matmul_entries"):
        m["linalg." + key] = (c[key], "count")
    m["linalg.matmul_nnz_frac"] = (frac("matmul_nnz", "matmul_entries"), "ratio")
    m["datum.t_cache_hit_frac"] = (frac("t_hits", "t_calls"), "ratio")
    m["cli.bytes_read"] = (c["bytes_read"], "B")
    m["cli.bytes_written"] = (c["bytes_written"], "B")
    startup = [spawn([sys.executable, "-c", "import dyntwist.cli"], log)[1]
               for _ in range(STARTUP_REPS)]
    m["cli.startup_s"] = (statistics.median(startup), "s")
    m["trace_overhead_frac"] = ((spanned_s - plain_s) / plain_s, "ratio")
    return plain + spanned + counted, m


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dyntwist", "cli.py")):
        sys.stderr.write("no dyntwist sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    # relative paths keep the report documents, and so cli.bytes_written,
    # independent of where the checkout lives
    os.chdir(ROOT)
    # SIGTERM raises SystemExit, so spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    commands = wl.WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    reference = load_reference()
    try:
        if args.trace:
            records, metrics = trace(commands, args.seed, work, reference)
        else:
            # one CPU for this process and the children it starts, so the
            # calibration measures the CPU the commands run on
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            records, samples, info = measure(commands, args.seed, args.seconds, work,
                                             reference)
            metrics = {k: (statistics.median(v), E2E_UNITS[k]) for k, v in samples.items()}
    except HarnessError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1

    failed = [r for r in records if r["failed"]]
    for r in failed:
        print("FAILED %s: %s" % (r["cmd"].label, r["failed"]))
    if args.trace:
        for name, (value, unit) in sorted(metrics.items()):
            print("%-36s %16s %s" % (name, value if unit == "count" else "%.6g" % value, unit))
    else:
        print("%-20s %12s %12s %12s %4s" % ("metric", "median", "q1", "q3", "n"))
        for name, values in list(samples.items()) + list(info.items()):
            q1, q3 = quartiles(values)
            unit = E2E_UNITS.get(name) or ("x (not gated)" if name == "speed"
                                           else "s (not gated)")
            print("%-20s %12.4f %12.4f %12.4f %4d %s" % (
                name, statistics.median(values), q1, q3, len(values), unit))
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "src_lines": src_lines(), "commands_per_pass": len(commands),
            "failed_frac": len(failed) / len(records)}
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
