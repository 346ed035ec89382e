"""The DES event stream is pinned: same events, same order, same numbers.

``data/des_events.json`` was recorded by ``des_digest.py`` at the commit
before the event core was rebuilt (heap entries, ``pop_due``) and the frame
path flattened (one size read per frame, when it is built, on either fabric:
``tests/netsim/test_fabric_parity.py`` counts it on hub and switch; the
scenarios here run on hubs).  Any change that schedules, cancels, orders or
traces one event differently — or hands out one sequence number differently
— moves a digest.  The readable fields beside each digest say which
quantity moved.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
SRC = HERE.parents[1] / "src"


def test_event_stream_digest_matches_the_recording():
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
    # fresh interpreter: frame/packet/echo ids are process-global counters
    proc = subprocess.run(
        [sys.executable, str(HERE / "des_digest.py")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    recorded = json.loads((HERE / "data" / "des_events.json").read_text())
    assert json.loads(proc.stdout) == recorded
