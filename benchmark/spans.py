"""Per-layer tracing from outside the program.

The tracer wraps calls into each metafog module with spans. Engine handlers
(registered through ``Engine.on``) and ``TaskPipeline`` methods are wrapped
at class level; the world, topology and chain of each ``ScenarioRunner`` are
wrapped per instance right after the runner is built; module functions that
the harness calls by name (``place``, ``build_user_topology``,
``resolve_config``) are replaced in the module that calls them.

Spans are aggregated in memory by name: calls, inclusive time, and the time
and number of child spans. Self time is inclusive time minus child time,
minus the wrapper's own cost that each child charges to its parent, which
``calibrate`` measures on a no-op function. A scenario dispatches hundreds of
thousands of events, so individual spans are not kept; the aggregate is
written out when the run ends. ``uninstall`` restores every class and module
attribute the tracer replaced.
"""

from __future__ import annotations

import time

import metafog.harness as harness_module
import metafog.infrastructure as infrastructure_module
from metafog import Engine, ScenarioRunner, TaskPipeline, World

# Engine handler name -> span name. A handler not listed is traced under its
# own name, so a renamed handler shows up instead of vanishing.
HANDLER_SPANS = {
    "_on_movement_tick": "harness.movement",
    "_on_message_send": "harness.message",
    "_on_tx_submit": "harness.tx",
    "_on_task_arrival": "harness.universe",
    "_on_block_formed": "harness.block_event",
    "_on_transfer_complete": "harness.task_stage",
    "_on_service_complete": "harness.task_stage",
}

_ABSENT = object()


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, child_s, child_calls]
        self.counts: dict[str, int] = {}
        self.peak_queue = 0
        self._stack: list[list] = []
        self.per_child_s = 0.0  # wrapper cost charged to the parent per child span
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result) runs outside the span's own time."""
        span = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0]  # time and number of child spans
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span[0] += 1
                span[1] += dt
                span[2] += frame[0]
                span[3] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += 1
            if after is not None:
                after(out)
            return out

        return traced

    def calibrate(self, calls: int = 20_000) -> None:
        """Measure the wrapper's cost outside its own clock reads.

        That cost lands in the parent span's self time once per child call;
        self_s subtracts it.
        """
        def noop(*_args):
            return None

        inner = self.wrap("calibration.inner", noop, noop)

        def traced_calls():
            for _ in range(calls):
                inner()

        def plain_calls():
            for _ in range(calls):
                noop()

        best = float("inf")
        for _ in range(5):
            self.wrap("calibration.outer", traced_calls)()
            t0 = time.perf_counter()
            plain_calls()
            plain = time.perf_counter() - t0
            outer = self.spans.pop("calibration.outer")
            best = min(best, (outer[1] - outer[2] - plain) / calls)
        self.spans.pop("calibration.inner")
        self.per_child_s = max(0.0, best)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0, 0))[1]

    def self_s(self, name: str) -> float:
        """Inclusive time minus child spans and the wrapper cost they charged here."""
        _calls, total, child, child_calls = self.spans.get(name, (0, 0.0, 0.0, 0))
        return max(0.0, total - child - child_calls * self.per_child_s)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def _wrap_attr(self, owner, attr: str, name: str, after=None) -> None:
        if hasattr(owner, attr):
            self._replace(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def install(self) -> None:
        tracer = self
        self.calibrate()
        original_on = Engine.on

        def on(engine, kind, handler):
            span = HANDLER_SPANS.get(getattr(handler, "__name__", ""),
                                     f"harness.{getattr(handler, '__name__', 'handler')}")

            def note_queue(_out):
                queued = engine.queued_count
                if queued > tracer.peak_queue:
                    tracer.peak_queue = queued

            original_on(engine, kind, tracer.wrap(span, handler, note_queue))

        self._replace(Engine, "on", on)
        self._wrap_attr(Engine, "run_until", "engine.run_until")
        self._wrap_attr(TaskPipeline, "submit", "harness.submit")

        original_init = ScenarioRunner.__init__
        timed_init = self.wrap("harness.setup", original_init)

        def init(runner, *args, **kwargs):
            timed_init(runner, *args, **kwargs)
            tracer.instrument(runner)

        self._replace(ScenarioRunner, "__init__", init)
        self._wrap_attr(ScenarioRunner, "run", "harness.run")
        self._wrap_attr(ScenarioRunner, "collect", "harness.collect", self._note_result)
        self._wrap_attr(World, "__init__", "world.build")
        self._wrap_attr(harness_module, "place", "workload.place")
        self._wrap_attr(harness_module, "resolve_config", "config.resolve")
        self._wrap_attr(infrastructure_module, "build_user_topology",
                        "infrastructure.topology_build")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def instrument(self, runner) -> None:
        """Per-instance wrappers on one runner's world, topology and chain."""

        def note_neighbors(found):
            self.count("world.neighbors_found", len(found))

        wrappers = (
            ("world", "tick_avatar", "world.tick", None),
            ("world", "nearby_users", "world.proximity", note_neighbors),
            ("world", "collision_candidates", "world.collision", None),
            ("topo", "transfer_us", "infrastructure.transfer", None),
            ("chain", "add_validated", "ledger.validated", None),
            ("chain", "form_block", "ledger.block", None),
            ("chain", "flush", "ledger.block", None),
            ("chain", "verify", "ledger.verify", None),
        )
        for owner_attr, method, span, after in wrappers:
            owner = getattr(runner, owner_attr, None)
            if owner is not None and hasattr(owner, method):
                setattr(owner, method, self.wrap(span, getattr(owner, method), after))

    def _note_result(self, result) -> None:
        extras = result.extras
        self.count("engine.events", extras.get("events_dispatched", 0))
        self.count("harness.tasks", extras.get("tasks_generated", 0))
        self.count("ledger.blocks", extras.get("blocks_formed", 0))

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics named as in BENCHMARK.json, as (value, unit)."""
        events = self.counts.get("engine.events", 0)
        engine_self = self.self_s("engine.run_until")
        return {
            "engine.events": (events, "count"),
            "engine.peak_queue": (self.peak_queue, "count"),
            "engine.self_s": (engine_self, "s"),
            "engine.ns_per_event": (engine_self / events * 1e9 if events else 0.0, "ns"),
            "harness.tasks": (self.counts.get("harness.tasks", 0), "count"),
            "harness.task_stage_s": (self.self_s("harness.task_stage"), "s"),
            "harness.submit_calls": (self.calls("harness.submit"), "count"),
            "harness.submit_s": (self.self_s("harness.submit"), "s"),
            "harness.movement_s": (self.self_s("harness.movement"), "s"),
            "harness.message_s": (self.self_s("harness.message"), "s"),
            "harness.tx_s": (self.self_s("harness.tx"), "s"),
            "harness.universe_s": (self.self_s("harness.universe"), "s"),
            "harness.block_event_s": (self.self_s("harness.block_event"), "s"),
            "harness.collect_s": (self.self_s("harness.collect"), "s"),
            "world.ticks": (self.calls("world.tick"), "count"),
            "world.tick_s": (self.self_s("world.tick"), "s"),
            "world.proximity_queries": (self.calls("world.proximity"), "count"),
            "world.proximity_s": (self.self_s("world.proximity"), "s"),
            "world.neighbors_found": (self.counts.get("world.neighbors_found", 0), "count"),
            "world.collision_queries": (self.calls("world.collision"), "count"),
            "world.collision_s": (self.self_s("world.collision"), "s"),
            "world.build_s": (self.total_s("world.build"), "s"),
            "workload.place_calls": (self.calls("workload.place"), "count"),
            "workload.place_s": (self.self_s("workload.place"), "s"),
            "infrastructure.transfer_calls": (self.calls("infrastructure.transfer"), "count"),
            "infrastructure.transfer_s": (self.self_s("infrastructure.transfer"), "s"),
            "infrastructure.topology_build_s": (self.total_s("infrastructure.topology_build"), "s"),
            "ledger.validated": (self.calls("ledger.validated"), "count"),
            "ledger.blocks": (self.counts.get("ledger.blocks", 0), "count"),
            "ledger.block_s": (self.self_s("ledger.block"), "s"),
            "ledger.verify_s": (self.self_s("ledger.verify"), "s"),
            "config.resolve_s": (self.total_s("config.resolve"), "s"),
            "reporting.emit_s": (self.total_s("reporting.emit"), "s"),
            "reporting.bytes": (self.counts.get("reporting.bytes", 0), "B"),
        }

    def dump(self) -> dict:
        """Every span aggregate, for the run's output file."""
        return {
            "per_child_s": self.per_child_s,
            "spans": {name: {"calls": c, "total_s": t, "self_s": self.self_s(name),
                             "child_calls": cc}
                      for name, (c, t, _ch, cc) in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
            "peak_queue": self.peak_queue,
        }
