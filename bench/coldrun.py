"""Cold execution of one operation, and the spans recorded around it.

Every operation runs in a child forked from a set-up process that has imported
``tlbases`` but computed nothing, so each one starts with the module-level
state a fresh ``tlbases`` process has, without paying interpreter start-up.
The child times only the operation itself; turning its result into JSON for
the output checks happens after the clock stops.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

# Time of ref_loop() when no neighbour slows the host (2-vCPU KVM guest on a Xeon).
REF_NOMINAL_S = 0.012


def ref_loop() -> float:
    """A fixed pure-Python loop of tuple, dict and sort work; returns its duration.

    Its working set, a few megabytes of small objects, is like the program's,
    so neighbours that slow the program slow it too.  It is timed on the CPU
    the measured work runs on, right before and after it, so that a slow
    period of the host can be told apart from a slow change.
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection would also walk whatever else is alive
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(50_000):
            table[(i, i % 97)] = i
        sorted(table, key=lambda k: k[1])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Tracer:
    """Spans kept in memory: name, layer, start, end, parent index, operation id."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list = []
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = [name, layer, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            rec[3] = time.perf_counter()


class NullTracer:
    """The untraced run: spans cost one call and record nothing."""

    spans: list = []
    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._null


NULL_TRACER = NullTracer()


def load_output(outdir: str, name: str):
    """The summarized result that run_cold's child wrote for ``name``."""
    with open(os.path.join(outdir, name + ".out.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_cold(name: str, compute, summarize, outdir: str, traced: bool = False) -> dict:
    """Run ``compute(tracer, outdir)`` in a forked child and return its record.

    The child writes ``summarize(result)`` to ``<outdir>/<name>.out.json``
    (read it back with ``load_output``).  The record holds ``elapsed``
    (seconds in ``compute``), ``peak_rss_mb`` (the child's peak resident set
    when ``compute`` returned), ``digest`` (of that output and of the report
    ``<outdir>/<name>.json``, if the operation wrote one), ``spans``, and
    ``refs``, the reference loop timed here right before the fork and right
    after the child ended, with their mean ``ref``.  The caller pins the
    process to one CPU, so the child runs where the loop was timed.  Outputs
    stay on disk so that the parent's heap, which every child starts from,
    does not grow.  A child that raises returns ``error`` with the traceback
    instead.
    """
    before = ref_loop()
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            os.close(r)
            os.dup2(2, 1)  # the parent's last stdout line is the result
            tracer = Tracer(name) if traced else NULL_TRACER
            t0 = time.perf_counter()
            result = compute(tracer, outdir)
            elapsed = time.perf_counter() - t0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out_path = os.path.join(outdir, name + ".out.json")
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(summarize(result), fh)
            digest = hashlib.sha256()
            for path in (out_path, os.path.join(outdir, name + ".json")):
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
            msg = {"elapsed": elapsed, "peak_rss_mb": peak_rss_mb,
                   "digest": digest.hexdigest(), "spans": tracer.spans}
            status = 0
        except BaseException:
            msg = {"error": traceback.format_exc()}
        try:
            with os.fdopen(w, "w") as fh:
                json.dump(msg, fh)
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        rec = json.loads(data)
    except ValueError:
        rec = {"error": f"child exited with status {status} and no readable result"}
    rec["refs"] = (before, ref_loop())
    rec["ref"] = sum(rec["refs"]) / 2
    return rec
