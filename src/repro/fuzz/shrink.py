"""Schedule shrinking: bisect a failing spec to a minimal one.

Given a :class:`~repro.experiments.spec.ScenarioSpec` whose run
violates an invariant, the shrinker greedily applies simplification
passes — drop or shorten partition windows, remove faults one kind at
a time, disable GST and jitter, reduce ``n`` (in ``3f + 1`` steps so
quorum shapes survive), shorten the run — keeping each candidate only
if it *still fails*.  The fixpoint is a minimal failing schedule,
written to disk as a replayable JSON scenario.

Everything is deterministic: passes run in a fixed order and the
failure predicate re-runs the same seeded simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.campaign import Job
from repro.experiments.runner import run_job
from repro.experiments.spec import ScenarioSpec

#: Fault-mix fields the shrinker tries to remove, in order.
_FAULT_FIELDS = (
    "crash", "silent", "equivocate", "withhold", "lazy", "marker_lie",
    "sync_withhold", "recover", "amnesia",
)
#: Values a knob resets to once the feature it tunes is shed.
_DEFAULTS = ScenarioSpec()


@dataclass(frozen=True, slots=True)
class ShrinkResult:
    """Outcome of a shrink run."""

    spec: ScenarioSpec
    attempts: int
    shrunk: bool

    def renamed(self, name: str) -> "ShrinkResult":
        return replace(self, spec=self.spec.with_overrides(name=name))


def _case_violations(spec: ScenarioSpec, seed: int | None = None) -> list:
    run_seed = spec.seeds[0] if seed is None else seed
    entry = run_job(Job(job_id=f"shrink/{spec.name}", spec=spec, seed=run_seed))
    return entry["metrics"]["invariants"]["violations"]


def spec_fails(spec: ScenarioSpec, seed: int | None = None) -> bool:
    """Whether any invariant (expected or not) is violated."""
    return bool(_case_violations(spec, seed))


def _matching_predicate(invariants: frozenset, unexpected_only: bool):
    """A predicate pinned to the *original* failure class.

    Without pinning, a greedy pass could strip the schedule piece
    behind a real (unexpected) find while a co-occurring expected
    naive-accounting counterexample keeps the candidate "failing" —
    the minimized spec would then no longer reproduce the find.
    """

    def fails(spec: ScenarioSpec, seed: int | None = None) -> bool:
        for violation in _case_violations(spec, seed):
            if violation["invariant"] not in invariants:
                continue
            if unexpected_only and violation["expected"]:
                continue
            return True
        return False

    return fails


def _candidate_overrides(spec: ScenarioSpec):
    """Yield ``with_overrides`` kwargs for simplified variants, most
    aggressive first.  Candidates that fail spec validation are
    discarded by the shrink loop."""
    if spec.partitions:
        yield {"partitions": ()}
        if len(spec.partitions) > 1:
            for index in range(len(spec.partitions)):
                yield {
                    "partitions": tuple(
                        window
                        for position, window in enumerate(spec.partitions)
                        if position != index
                    )
                }
        for index, window in enumerate(spec.partitions):
            length = window.end - window.start
            if length > 0.4:
                shortened = replace(
                    window, end=round(window.start + length / 2, 3)
                )
                yield {
                    "partitions": spec.partitions[:index]
                    + (shortened,)
                    + spec.partitions[index + 1:]
                }
    # Zeroing a fault kind also resets its knobs, so minimized specs do
    # not carry dangling parameters (a crash_at with no crashes).
    knob_resets = {
        "crash": {"faults.crash_at": 0.0},
        "withhold": {"faults.withhold_reach": 0.5},
        "lazy": {"faults.lazy_delay": 0.5},
    }
    # recover and amnesia share the restart knobs; only reset those
    # once the *other* kind is gone too.
    if not spec.faults.amnesia:
        knob_resets["recover"] = {
            "faults.recover_at": 0.0, "faults.downtime": 1.0,
        }
    if not spec.faults.recover:
        knob_resets["amnesia"] = {
            "faults.recover_at": 0.0, "faults.downtime": 1.0,
        }
    for field_name in _FAULT_FIELDS:
        count = getattr(spec.faults, field_name)
        if count:
            yield {f"faults.{field_name}": 0, **knob_resets.get(field_name, {})}
            if count > 1:
                yield {f"faults.{field_name}": count - 1}
    # Throughput axes: turning the workload off also resets its batch
    # knobs so minimized specs carry no dangling parameters; linear
    # vote collection and pipelining shed independently.
    if spec.workload_rate:
        yield {
            "workload_rate": 0.0,
            "batch_size": _DEFAULTS.batch_size,
            "max_batch_bytes": _DEFAULTS.max_batch_bytes,
            "pipelined_proposals": _DEFAULTS.pipelined_proposals,
        }
    if spec.pipelined_proposals:
        yield {"pipelined_proposals": False}
    if spec.linear_votes:
        yield {"linear_votes": False}
    if spec.checkpoint_interval:
        yield {"checkpoint_interval": 0}
    # At-least-once delivery faults shed independently: dropping the
    # reorder window first (it is the gentler fault), then duplication.
    if spec.reorder_window:
        yield {"reorder_window": 0.0}
    if spec.duplicate_rate:
        yield {"duplicate_rate": 0.0}
    if spec.gst or spec.pre_gst_delay:
        yield {"gst": 0.0, "pre_gst_delay": 0.0}
    if spec.jitter:
        yield {"jitter": 0.0}
    if spec.naive_accounting and not spec.script:
        # The naive flag is usually the trigger, but try without it: a
        # schedule that fails under *sound* accounting is the bigger
        # find, and the predicate keeps it only if it still fails.
        yield {"naive_accounting": False}
    if spec.n > 4:
        smaller = spec.n - 3 if spec.n % 3 == 1 else spec.n - 1
        overrides = {"n": max(smaller, 4)}
        if spec.topology == "regions":
            overrides["topology"] = "uniform"
            overrides["region_sizes"] = ()
        yield overrides
    if not spec.script and spec.duration > 4.0:
        yield {"duration": round(spec.duration * 0.6, 3)}


def shrink_spec(
    spec: ScenarioSpec,
    fails=None,
    seed: int | None = None,
    max_attempts: int = 120,
    violations: list | None = None,
) -> ShrinkResult:
    """Greedy fixpoint shrink of a failing spec.

    ``fails(spec, seed)`` must return True while the schedule still
    reproduces the violation; when omitted, a predicate pinned to the
    input spec's own failure class is derived (unexpected violations
    take priority — see :func:`_matching_predicate`).  ``violations``
    optionally supplies the spec's already-computed violation dicts so
    the derivation skips one redundant simulation.  Raises
    ``ValueError`` if the input spec does not fail to begin with.
    """
    if fails is None:
        baseline = (
            violations if violations is not None else _case_violations(spec, seed)
        )
        if not baseline:
            raise ValueError(
                f"spec {spec.name!r} does not fail; nothing to shrink"
            )
        unexpected = frozenset(
            violation["invariant"]
            for violation in baseline
            if not violation["expected"]
        )
        target = unexpected or frozenset(
            violation["invariant"] for violation in baseline
        )
        fails = _matching_predicate(target, unexpected_only=bool(unexpected))
    elif not fails(spec, seed):
        raise ValueError(f"spec {spec.name!r} does not fail; nothing to shrink")
    current = spec
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for overrides in _candidate_overrides(current):
            if attempts >= max_attempts:
                break
            try:
                candidate = current.with_overrides(**overrides)
            except ValueError:
                continue  # simplification invalid against its own constraints
            attempts += 1
            if fails(candidate, seed):
                current = candidate
                progress = True
                break
    return ShrinkResult(spec=current, attempts=attempts, shrunk=current != spec)
