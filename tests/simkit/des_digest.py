"""Digest of the DES event stream of four small DRS scenarios.

Run as a script in a *fresh* interpreter (``python tests/simkit/des_digest.py``
with ``PYTHONPATH=src``): frame, packet and echo ids are process-global
``itertools.count``\\ s that leak into ``str(frame)`` in trace entries, so the
digest is only reproducible when nothing has allocated an id before it.
``test_des_pin.py`` does exactly that and compares the printed JSON with
``data/des_events.json``, which was recorded at the commit *before* the event
core was rebuilt — never re-record it to make a change pass.

Hashed per scenario: every ``EventQueue.push`` as ``(time, priority, seq,
callback kind)`` where the kind is the callback's defining module, every
``EventQueue.cancel`` as ``(seq, already cancelled)``, every ``TraceEntry``
(trace on), the routed ping's result, ``sim.now``, ``sim.pending``, the
profile's per-category event counts and each hub's counters.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from repro.drs import install_drs
from repro.experiments.desvalidation import VALIDATION_CONFIG
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import install_stacks
from repro.simkit import EventQueue, Simulator

#: (n, f, seed)
SCENARIOS = ((8, 2, 11), (8, 4, 12), (12, 3, 13), (4, 3, 14))


def _kind(callback) -> str:
    module = getattr(callback, "__module__", None) or getattr(
        getattr(callback, "func", None), "__module__", "?"
    )
    return module.rsplit(".", 1)[-1]


def scenario_digest(n: int, f: int, seed: int) -> dict:
    """Run one scenario with the queue instrumented; return its digest row."""
    sha = hashlib.sha256()
    tally = {"pushes": 0, "cancels": 0}
    real_push, real_cancel = EventQueue.push, EventQueue.cancel

    def push(self, time, callback, priority=0):
        event = real_push(self, time, callback, priority)
        sha.update(repr(("push", event.time, event.priority, event.seq, _kind(callback))).encode())
        tally["pushes"] += 1
        return event

    def cancel(self, event):
        sha.update(repr(("cancel", event.seq, event.cancelled)).encode())
        tally["cancels"] += 1
        real_cancel(self, event)

    EventQueue.push, EventQueue.cancel = push, cancel
    try:
        sim = Simulator()
        sim.enable_profiling()
        cluster = build_dual_backplane_cluster(sim, n)
        cluster.trace.add_hook(
            lambda e: sha.update(repr(("trace", e.time, e.category, sorted(e.fields.items()))).encode())
        )
        stacks = install_stacks(cluster)
        install_drs(cluster, stacks, VALIDATION_CONFIG)
        sim.run(until=1.0)
        cluster.faults.apply_exact_failures(f, np.random.default_rng(seed))
        sim.run(until=2.0)
        results = []
        stacks[0].icmp.ping(1, timeout_s=0.05, callback=results.append)
        sim.run(max_events=100)
    finally:
        EventQueue.push, EventQueue.cancel = real_push, real_cancel
    row = {
        "n": n,
        "f": f,
        "seed": seed,
        **tally,
        "trace_entries": len(cluster.trace),
        "ping": [(r.status.value, r.rtt_s) for r in results],
        "now": sim.now,
        "pending": sim.pending,
        "events_by_category": {c: v[0] for c, v in sorted(sim.profile.by_category.items())},
        "hubs": [
            [hub.bits_carried.value, hub.frames_carried.value, hub.frames_dropped.value]
            for hub in cluster.backplanes
        ],
    }
    assert not cluster.trace.hook_errors, cluster.trace.hook_errors
    sha.update(json.dumps(row, sort_keys=True).encode())
    row["sha256"] = sha.hexdigest()
    return row


def main() -> int:
    json.dump([scenario_digest(*s) for s in SCENARIOS], sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
