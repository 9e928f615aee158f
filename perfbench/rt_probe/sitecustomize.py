"""Start-up hook for TCP replica processes launched by the benchmark.

The benchmark puts this directory on the replicas' ``PYTHONPATH``;
Python imports ``sitecustomize`` at start-up, so each replica process
records what the benchmark needs without any change to its code.
"""

import os

from perfbench.replica_probe import start

if os.environ.get("PERFBENCH_PROBE_OUT"):
    start(os.environ["PERFBENCH_PROBE_OUT"],
          traced=os.environ.get("PERFBENCH_TRACE") == "1")
