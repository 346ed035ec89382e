"""Cluster application layer: workloads that ride on the protocol stack.

The paper motivates DRS with distributed server applications (NOW/PVM/MPI
clusters, and the deployed MCI WorldCom voice-mail clusters).  This package
provides the application-level pieces the experiments drive:

* :mod:`~repro.cluster.messaging` — an MPI-flavoured reliable message layer
  (send/receive/broadcast with delivery-latency tracking) built on TCP-lite,
* :mod:`~repro.cluster.voicemail` — a voice-mail server workload: subscriber
  mailboxes sharded across the cluster, deposits/retrievals that require
  server-to-server transfers,
* :mod:`~repro.cluster.failurelog` — a synthetic fleet failure log
  calibrated to the paper's one-year field study (13% of hardware failures
  network-related).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "messaging": ["Endpoint", "ClusterComm", "install_messaging"],
        "voicemail": ["VoicemailCluster", "VoicemailConfig", "VoicemailStats"],
        "mpijob": ["MpiRingJob", "MpiJobConfig", "MpiJobStats"],
        "failurelog": [
            "FailureEvent",
            "FailureLogConfig",
            "generate_failure_log",
            "category_breakdown",
            "network_fraction",
            "to_fault_scenario",
        ],
    },
)
