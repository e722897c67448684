#!/usr/bin/env python
"""Serving: drive the persistent simulation service from a client.

Starts a ``repro.cli serve`` daemon on a private Unix socket, then uses
:class:`repro.serve.ServeClient` to demonstrate the service's three
economies:

1. a ``simulate`` request answered by a warm worker;
2. repeated identical ``sweep`` requests — the first executes, the repeats
   are answered from the shared on-disk result cache without touching the
   worker pool; and
3. the ``status``/``cache_stats`` verbs for observing coalescing,
   backpressure, and cache behaviour.

Run with::

    PYTHONPATH=src python examples/serving_client.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile

from repro.serve import ServeClient


def main() -> None:
    # The socket and the cache live in a private directory, removed on exit.
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as workdir:
        socket_path = os.path.join(workdir, "repro.sock")
        cache_dir = os.path.join(workdir, "cache")

        # 1. Start the service as a daemon would run it.  In production this is
        #    `python -m repro.cli serve --socket ... --workers N` under a
        #    process supervisor; SIGTERM shuts it down gracefully.
        src_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        python_path = os.pathsep.join(
            part for part in (src_dir, os.environ.get("PYTHONPATH")) if part
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", socket_path,
                "--workers", "2",
                "--cache-dir", cache_dir,
            ],
            env={**os.environ, "PYTHONPATH": python_path},
        )
        try:
            # connect(retry_for=...) covers the race of a client starting
            # alongside the server.
            with ServeClient(socket_path=socket_path).connect(retry_for=15.0) as client:
                # 2. One simulation on a warm worker.
                result = client.call(
                    "simulate", workload="oltp-db2", cpus=2, accesses_per_cpu=5000
                )
                print("simulate oltp-db2:")
                print(f"  L1 coverage        {result['l1_coverage']:.1%}")
                print(f"  off-chip coverage  {result['offchip_coverage']:.1%}")
                print(f"  estimated speedup  {result['speedup']:.2f}x\n")

                # 3. The same sweep item three times: one execution, two cache
                #    answers.  Concurrent identical requests coalesce the same
                #    way (N clients, one execution).
                request = dict(verb="sweep", figure="fig10", item="OLTP", scale=0.1, num_cpus=2)
                for attempt in range(3):
                    reply = client.request_raw(dict(request))
                    source = "cache" if reply["cached"] else "executed"
                    print(f"sweep fig10/OLTP request {attempt + 1}: answered from {source}")

                status = client.call("status")
                print(f"\nserver counters: {json.dumps(status['counters'], sort_keys=True)}")
                stats = client.call("cache_stats")
                print(
                    f"result cache: {stats['sweep']['entries']} entr(ies), "
                    f"{stats['sweep']['bytes']} byte(s) in {stats['directory']}"
                )
        finally:
            # 4. Graceful shutdown: workers drain, temp files are swept, the
            #    socket file is removed.
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=15)
    print("\nserver shut down cleanly")


if __name__ == "__main__":
    main()
