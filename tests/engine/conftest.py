"""Fixtures shared by the engine tests."""

import threading

import pytest


@pytest.fixture
def serving():
    """Serve a ``Coordinator`` from a loop thread of its own until teardown.

    ``serving(server)`` starts it and returns ``(address, done)``: ``done`` is
    set once the loop — the only reader of the core — sees the plan done.
    """
    started = []

    def serve(server):
        address, done = server.start(), threading.Event()

        def loop():
            while server.step():
                if server.core.done:
                    done.set()

        thread = threading.Thread(target=loop, name="test-coordinator-loop", daemon=True)
        thread.start()
        started.append((server, thread))
        return address, done

    yield serve
    for server, thread in started:
        server.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "the coordinator loop never stopped"
        server.close()
