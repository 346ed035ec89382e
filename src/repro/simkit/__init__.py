"""Discrete-event simulation kernel.

``simkit`` is a small, deterministic discrete-event simulation (DES) core in
the style of SimPy, purpose-built for the DRS reproduction:

* :class:`~repro.simkit.simulator.Simulator` — the event loop: a priority
  queue of timestamped callbacks with stable FIFO tie-breaking, so two runs
  with the same seed produce byte-identical traces.
* :class:`~repro.simkit.process.Process` — generator-based cooperative
  processes that ``yield`` delays or :class:`~repro.simkit.process.Signal`
  objects (used for protocol daemons such as the DRS monitor loop).
* :func:`~repro.simkit.rng.spawn_seedseq` — independent random streams
  keyed by name from one root seed, so adding a new consumer never perturbs
  existing ones.
* :mod:`~repro.simkit.trace` — counters and event traces used by the
  measurement harness.

The kernel is intentionally pure Python.  For the Monte Carlo experiments the
vectorized estimator in :mod:`repro.analysis` is the hot path; for the
protocol experiments this loop is, so its per-event path is one queue call
(:meth:`~repro.simkit.events.EventQueue.pop_due`), one clock store and the
callback, with heap ordering left to C tuple comparison.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "simulator": ["Simulator", "SimProfile", "set_auto_profile"],
        "events": ["Event", "EventQueue"],
        "process": ["Process", "Signal", "Timeout"],
        "rng": ["spawn_seedseq", "spawned_rng", "seed_fingerprint"],
        "trace": ["Counter", "TraceRecorder", "TraceEntry"],
        "errors": ["SimulationError", "ScheduleInPastError"],
    },
)
