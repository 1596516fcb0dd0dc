"""Benchmark runner for repgame.

    python3 bench/run.py --workload {table2,scaling,protocols,paths}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The program under test is imported from
``src/``; the inputs are built from the seed.

The host this benchmark was written on runs the same code up to 1.7 times
slower from one minute to the next, so raw times of two runs are not
comparable.  Every timed operation is therefore paired with the same
operation on a frozen copy of the program (``bench/reference``, the
program as of the benchmark's definition), run back to back in alternating
order.  The program under test runs in a worker process, the reference in
this one, never both at once, and both on the same CPU.  A round is the workload's list of
operations; whole rounds run while another one is expected, from the mean
round so far, to end within ``S`` seconds (at least one round).  Each
output of the program under test is checked by the worker after the
operation returns, outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  Times are in reference seconds: a statistic of the
measured times, divided by the same statistic of the reference's times in
the same round, times that statistic's ``NOMINAL`` value (the reference's
on the 2-core host the benchmark was defined on).  A change that makes the
program k times faster divides them by k, whatever the host's speed.

* ``wall_s``: median over rounds of one round's operation time;
* ``op_p50_s``: median time of one operation (median over rounds);
* ``setup_s``: median over three fresh processes of the time from process
  start through ``import repgame`` and building the workload's inputs,
  scaled like ``wall_s``;
* ``peak_rss_mb``: peak resident set of the worker, in MB (not scaled).

The measured, unscaled times are printed on standard error.

With ``--trace 1`` the program runs in this process with no reference: one
untraced round, then traced rounds under the same rule (at least one).  The
JSON holds the per-layer metrics of a round (medians over traced rounds),
in measured seconds, and the spans go to
``bench/out/trace-<workload>-<seed>.json``.

An operation fails when it raises (a non-zero exit code of the command line
raises too) or when its output fails its check; a failed check also makes
``correct`` false.  Exit code 2 means the program could not be imported.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3

WORKLOAD_NAMES = ("table2", "scaling", "protocols", "paths")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s"}

# (round time, median operation time) of each workload on the reference
# copy, 2-core host; they only set the scale of the reported times
NOMINAL = {"table2": (8.0, 8.0), "scaling": (12.8, 1.07), "protocols": (13.0, 0.059),
           "paths": (7.6, 0.088)}


def _import_program():
    """Import repgame from this checkout's ``src/``; None when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repgame
        import repgame.cli  # noqa: F401  (the table2 and scaling workloads call it)
    except ImportError as exc:
        print(f"cannot import repgame from {SRC}: {exc}", file=sys.stderr)
        return None
    if SRC not in Path(repgame.__file__).resolve().parents:
        print(f"repgame was imported from {repgame.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return repgame


def _build(pkg, name: str, seed: int, side: str):
    from workloads import WORKLOADS
    return WORKLOADS[name](pkg, ROOT, seed, OUT / name / side)


def _rusage():
    return resource.getrusage(resource.RUSAGE_SELF)


def _run_checked(op) -> dict:
    """Run one operation, then check its output; the time excludes the check."""
    from checks import CheckFailed
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:
        return {"seconds": time.perf_counter() - start, "failed": True, "correct": True,
                "why": f"operation {op.label} failed:\n{traceback.format_exc()}"}
    seconds = time.perf_counter() - start
    try:
        op.check(result)
    except CheckFailed as exc:
        return {"seconds": seconds, "failed": True, "correct": False,
                "why": f"operation {op.label} failed its check: {exc}"}
    return {"seconds": seconds, "failed": False, "correct": True}


# ---------------------------------------------------------------------------
# worker: the program under test
# ---------------------------------------------------------------------------

def _worker(name: str, seed: int) -> int:
    """Build the inputs, say ``ready``, then serve commands from stdin:
    ``prepare`` (compute the references), an operation index, ``end``
    (report peak memory and exit) or ``quit``."""
    repgame = _import_program()
    if repgame is None:
        return 2
    workload = _build(repgame, name, seed, "current")
    print("ready", flush=True)
    ops = None
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "quit":
            return 0
        if cmd == "prepare":
            workload.references()
            ops = workload.operations()
            reply = {"ops": len(ops)}
        elif cmd == "end":
            print(json.dumps({"peak_rss_mb": _rusage().ru_maxrss / 1024.0}), flush=True)
            return 0
        else:
            reply = _run_checked(ops[int(cmd)])
        print(json.dumps(reply), flush=True)
    return 1


class Worker:
    """A worker process started as a set-up probe and kept for the run."""

    def __init__(self, name: str, seed: int):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--worker"]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"worker failed to start (exit code {self.proc.returncode})")

    def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited on {cmd!r} (exit code {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        """Ask a live worker to quit, then wait for it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            except BrokenPipeError:
                pass
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# paired measurement
# ---------------------------------------------------------------------------

def _time_reference(op) -> float:
    start = time.perf_counter()
    op.run()
    return time.perf_counter() - start


def _measure(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from workloads import reference_package
    reference = _build(reference_package(), name, seed, "reference")
    ref_ops = reference.operations()
    probes = []
    for _ in range(SETUP_PROBES - 1):
        probe = Worker(name, seed)
        probes.append(probe.setup_s)
        probe.close()
    worker = Worker(name, seed)
    probes.append(worker.setup_s)
    tally = {"attempted": 0, "failed": 0, "correct": True}
    try:
        if worker.ask("prepare")["ops"] != len(ref_ops):
            raise RuntimeError("the worker and the reference disagree on the operations")
        rounds = []   # (measured times, reference times)
        begin = time.perf_counter()
        while True:
            mine, ref = [], []
            for k, op in enumerate(ref_ops):
                mine_first = (k + len(rounds)) % 2 == 0
                if not mine_first:
                    ref.append(_time_reference(op))
                reply = worker.ask(str(k))
                if mine_first:
                    ref.append(_time_reference(op))
                mine.append(reply["seconds"])
                tally["attempted"] += 1
                if reply["failed"]:
                    tally["failed"] += 1
                    tally["correct"] &= reply["correct"]
                    print(reply["why"], file=sys.stderr)
            rounds.append((mine, ref))
            elapsed = time.perf_counter() - begin
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        peak = worker.ask("end")["peak_rss_mb"]
    finally:
        worker.close()
    wall, p50 = NOMINAL[name]
    scale = [wall / sum(ref) for _, ref in rounds]
    metrics = {
        "wall_s": statistics.median(sum(mine) * f for (mine, _), f in zip(rounds, scale)),
        "op_p50_s": statistics.median(statistics.median(mine) / statistics.median(ref) * p50
                                      for mine, ref in rounds),
        "setup_s": statistics.median(probes) * statistics.median(scale),
        "peak_rss_mb": peak,
    }
    print(json.dumps({"measured_round_s": [sum(m) for m, _ in rounds],
                      "reference_round_s": [sum(r) for _, r in rounds],
                      "measured_setup_s": probes}), file=sys.stderr)
    return metrics, tally


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _measure_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics
    start = time.perf_counter()
    repgame = _import_program()
    if repgame is None:
        raise SystemExit(2)
    import_s = time.perf_counter() - start
    workload = _build(repgame, name, seed, "current")
    workload.references()
    ops = workload.operations()
    tally = {"attempted": 0, "failed": 0, "correct": True}

    def run_round():
        total = 0.0
        for op in ops:
            reply = _run_checked(op)
            total += reply["seconds"]
            tally["attempted"] += 1
            if reply["failed"]:
                tally["failed"] += 1
                tally["correct"] &= reply["correct"]
                print(reply["why"], file=sys.stderr)
        return total

    begin = time.perf_counter()
    before = _rusage()
    plain = run_round()
    after = _rusage()
    tracer = Tracer(repgame)
    tracer.install()
    per_round, traced, spans = [], [], []
    try:
        while True:
            tracer.reset()
            traced.append(run_round())
            per_round.append(layer_metrics(tracer.spans, tracer.counts))
            spans.append([list(s) for s in tracer.spans])
            elapsed = time.perf_counter() - begin
            if elapsed * (len(traced) + 2) / (len(traced) + 1) > seconds:
                break
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    metrics.update({
        "process.import_s": import_s,
        "process.minor_faults": float(after.ru_minflt - before.ru_minflt),
        "process.sys_s": after.ru_stime - before.ru_stime,
        "trace.overhead_s": statistics.median(traced) - plain,
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "untraced_round_s": plain, "traced_round_s": traced,
         "rounds": [{"spans": s, "metrics": m} for s, m in zip(spans, per_round)]}))
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help="serve operations of the program under test over stdin")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.worker:
        return _worker(args.workload, args.seed)
    if not (SRC / "repgame" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repgame'} is missing", file=sys.stderr)
        return 2

    # one CPU for this process and the worker, which inherits it: the two
    # CPUs of a shared host can run at different speeds for minutes
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        from tracing import LAYER_METRICS as units
        metrics, tally = _measure_traced(args.workload, args.seed, args.seconds)
    else:
        units = END_TO_END
        metrics, tally = _measure(args.workload, args.seed, args.seconds)
    print(json.dumps({**tally, "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                           for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
