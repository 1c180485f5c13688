"""Cold-cache benchmark of tlbases over three workloads: tables, suites, diagrams.

Run from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 24 --trace 0

The package is imported from ``src`` next to this directory.  Every operation
runs cold in a forked child (see ``coldrun.py``), one at a time, in whole
rounds of the workload's operation list until ``--seconds`` have passed.
Outputs are checked after the timing against references computed outside the
program (``checks.py``).  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics ``wall_s``, ``peak_rss_mb`` and
``setup_s``; with ``--trace 1`` the per-layer metrics of ``layers.py``, and
the spans are written to ``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from coldrun import REF_NOMINAL_S, load_output, ref_loop, run_cold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5


def import_program():
    """Import tlbases from this checkout's ``src``; exit non-zero if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tlbases
    except ImportError as exc:
        sys.exit(f"bench: cannot import tlbases from {src}: {exc}")
    if not Path(tlbases.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: tlbases imported from {tlbases.__file__}, not from {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("tables", "suites", "diagrams"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit; used to time set-up")
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Median host-normalized time from process start to 'ready' in fresh processes.

    Each set-up process times the reference loop right after it is ready, so
    its set-up time can be scaled to the host's nominal speed like the
    operations' times.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read().split()
            if proc.wait() != 0 or line.strip() != "ready" or len(rest) != 1:
                raise RuntimeError(f"set-up process failed with status {proc.returncode}")
        times.append(elapsed * REF_NOMINAL_S / float(rest[0]))
    return statistics.median(times)


def run_round(ops, scratch: str, k: int, traced: bool) -> dict:
    """One pass over the operations.

    Outputs of round 0 stay in ``<scratch>/r0`` for the checks; later rounds
    are compared with it by digest and their files removed.
    """
    rdir = os.path.join(scratch, f"r{k}")
    os.mkdir(rdir)
    out = {op.id: run_cold(op.id, op.compute, op.summarize, rdir, traced) for op in ops}
    if k:
        shutil.rmtree(rdir)
    return out


def _read_json(path: str):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def judge(workload: str, ops, rounds: list, r0dir: str):
    """Count failed operations and check outputs; returns (attempted, failed, problems)."""
    from checks import CHECKS, failure

    failed, problems, good, outputs, reports = 0, [], [], {}, {}
    for op in ops:
        first = rounds[0][op.id]
        why = None
        if "error" not in first:
            outputs[op.id] = load_output(r0dir, op.id)
            reports[op.id] = _read_json(os.path.join(r0dir, op.id + ".json"))
            why = failure(op, outputs[op.id], reports[op.id])
        reasons = []
        for rnd in rounds:
            rec = rnd[op.id]
            if "error" in rec:
                reasons.append(rec["error"].strip().splitlines()[-1])
                continue
            if rec["digest"] != first.get("digest"):
                problems.append(f"{op.id}: output differs between rounds")
            reasons.append(why)
        failed += sum(1 for r in reasons if r)
        for r in sorted({r for r in reasons if r}):
            print(f"bench: {op.id} failed: {r}", file=sys.stderr)
        if not any(reasons):
            good.append(op)
    problems += CHECKS[workload](good, reports, outputs)
    return len(ops) * len(rounds), failed, problems


def normalized(rec: dict) -> float:
    """An operation's time scaled to the host's nominal speed around it."""
    return rec["elapsed"] * REF_NOMINAL_S / rec["ref"]


def op_wall(ops, rounds) -> float:
    """Sum over operations of each one's median host-scaled cold time.

    The host's speed swings by up to 2x, within seconds and across minutes,
    as neighbours come and go.  Dividing by the reference loop's time right
    around the operation, on the same CPU, removes most of that.  What is
    left errs either way, so the median of the rounds is steadier than their
    minimum.
    """
    return sum(statistics.median(normalized(r) for r in done)
               for done in (_done(op, rounds) for op in ops) if done)


def raw_wall(ops, rounds) -> float:
    """op_wall without the host-speed scaling."""
    return sum(statistics.median(r["elapsed"] for r in done)
               for done in (_done(op, rounds) for op in ops) if done)


def _done(op, rounds) -> list:
    """The records of the rounds in which the operation ran to its end."""
    return [rnd[op.id] for rnd in rounds if "error" not in rnd[op.id]]


def untraced(args, ops, scratch: str) -> tuple:
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rounds.append(run_round(ops, scratch, len(rounds), traced=False))
    for op in ops:
        recs = _done(op, rounds)
        if not recs:
            continue
        times = " ".join(f"{r['elapsed']:.3f}" for r in recs)
        norm = " ".join(f"{normalized(r):.3f}" for r in recs)
        rss = max(r["peak_rss_mb"] for r in recs)
        print(f"bench: {op.id:32s} raw {times}  normalized {norm} s  peak {rss:.1f} MB",
              file=sys.stderr)
    print(f"bench: raw wall {raw_wall(ops, rounds):.3f} s over {len(rounds)} rounds",
          file=sys.stderr)
    with open(OUT_DIR / f"records-{args.workload}-{args.seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump([{i: {k: r.get(k) for k in ("elapsed", "refs", "peak_rss_mb")}
                    for i, r in rnd.items()} for rnd in rounds], fh)
    peak = max((statistics.median(r["peak_rss_mb"] for r in recs)
                for recs in (_done(op, rounds) for op in ops) if recs), default=0.0)
    return rounds, {"wall_s": (op_wall(ops, rounds), "s"), "peak_rss_mb": (peak, "MB")}


def traced(args, ops, scratch: str) -> tuple:
    from layers import run_probes, self_times

    plain = run_round(ops, scratch, 0, traced=False)
    spanned = run_round(ops, scratch, 1, traced=True)
    rounds = [plain, spanned]
    metrics, spans, refs = run_probes(args.seed, scratch)
    for rnd in rounds:
        for rec in rnd.values():
            spans += rec.get("spans", [])
            refs += rec.get("refs", [])
    for layer, t in self_times(spans).items():
        metrics[f"{layer}.self_s"] = (t, "s")
    metrics["trace.overhead_s"] = (op_wall(ops, [spanned]) - op_wall(ops, [plain]), "s")
    metrics["trace.spans"] = (len(spans), "count")
    metrics["host.raw_wall_s"] = (raw_wall(ops, [plain]), "s")
    ref_ms = sorted(t * 1e3 for t in refs)
    metrics["host.ref_loop_ms"] = (statistics.median(ref_ms), "ms")
    metrics["host.ref_loop_spread"] = ((ref_ms[-1] - ref_ms[0]) / statistics.median(ref_ms),
                                       "ratio")
    trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                   "spans": spans, "metrics": metrics}, fh)
    return rounds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU for this process and every child it forks, so the reference
    # loop timed here measures the speed the children's work runs at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    from workloads import make_inputs, make_ops

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    try:
        inputs = make_inputs(args.workload, args.seed, scratch)
        if args.setup_only:
            print("ready", flush=True)
            print(statistics.mean(ref_loop() for _ in range(3)))
            return 0
        ops = make_ops(args.workload, inputs)
        if args.trace:
            rounds, metrics = traced(args, ops, scratch)
        else:
            setup_s = measure_setup(args)
            rounds, metrics = untraced(args, ops, scratch)
            metrics["setup_s"] = (setup_s, "s")
        attempted, failed, problems = judge(args.workload, ops, rounds,
                                            os.path.join(scratch, "r0"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
