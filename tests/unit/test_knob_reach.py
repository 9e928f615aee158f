"""Every protocol knob declared on ``ProtocolParams`` reaches every replica.

A knob is declared once, on :class:`~repro.protocols.base.ProtocolParams`;
this test is what keeps a new one from being silently dropped between
the scenario file and the replica: each knob, set to a non-default
value on a :class:`~repro.experiments.spec.ScenarioSpec`, must survive
the JSON mapping round trip and arrive on every built replica's config.
"""

from dataclasses import fields

import pytest

from repro.experiments.spec import ScenarioSpec, spec_from_mapping, spec_to_mapping
from repro.protocols.base import ProtocolParams

#: A valid non-default value for every knob; a new knob needs an entry.
NON_DEFAULT = {
    "round_timeout": 0.75,
    "timeout_multiplier": 2.0,
    "max_timeout": 4.0,
    "qc_extra_wait": 0.01,
    "generalized_intervals": True,
    "interval_window": 3,
    "naive_accounting": True,
    "verify_signatures": False,
    "drop_stale_messages": False,
    "block_batch_count": 7,
    "block_batch_bytes": 700,
    "sync_enabled": False,
    "batch_size": 32,
    "max_batch_bytes": 4096,
    "pipelined_proposals": True,
    "linear_votes": True,
    "checkpoint_interval": 5,
    "trace_level": "spans",
    "flight_recorder": False,
}


@pytest.mark.parametrize("protocol", ["sft-diembft", "sft-streamlet"])
@pytest.mark.parametrize("knob", [param.name for param in fields(ProtocolParams)])
def test_knob_reaches_every_replica(knob, protocol):
    value = NON_DEFAULT[knob]
    assert value != getattr(ScenarioSpec(), knob)
    spec = ScenarioSpec(name="reach", protocol=protocol, n=4, **{knob: value})
    loaded = spec_from_mapping(spec_to_mapping(spec))
    assert loaded == spec
    config = loaded.to_experiment_config()
    assert getattr(config, knob) == value
    assert getattr(config.replica_config(0), knob) == value
    cluster = loaded.build()
    cluster.build()
    for replica in cluster.replicas:
        assert getattr(replica.config, knob) == value
