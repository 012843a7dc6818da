"""Outside-in wall-clock spans around the program's public entry points.

The ledger measures every layer *from outside*: :func:`install` wraps the
public functions and methods listed in its body with timing
wrappers owned by the benchmark; the program itself is not edited.  A
wrapped module-level function is rebound in every ``repro`` module whose
namespace holds it, because ``repro.core.client`` and ``repro.core.server``
bind the snapshot functions with ``from ... import`` and would otherwise
keep calling the originals.

Spans nest on one stack (the program is single-threaded).  A generator
such as ``ClientAgent.offload`` gets one span per resumption, so the
virtual time it spends suspended is never billed as wall time.  A layer's
self time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span record layout
NAME, START, END, PARENT, IDENT = range(5)


class Tracer:
    """In-memory span store plus the few counts only a wrapper can see."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: wrapper-side counts (events dispatched, offload calls, batch items)
        self.counts: Dict[str, float] = defaultdict(float)
        #: wrapper-side samples (snapshot sizes)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: id(plan) -> (plan, flops of its layer range); keeps the plan alive
        self.plans: Dict[int, Tuple[Any, float]] = {}
        #: id(sim) -> simulator, for ``len(sim.spans)`` after the run
        self.simulators: Dict[int, Any] = {}
        #: ``ExecutionEngine.last_run`` of every engine run
        self.engine_runs: List[Any] = []

    def start_run(self) -> None:
        """Forget what the warm-up counted; compiled plans stay known."""
        self.counts.clear()
        self.samples.clear()
        self.simulators.clear()
        self.engine_runs.clear()

    def begin(self, name: str, ident: Any = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        record = [name, 0.0, 0.0, parent, ident]
        self.spans.append(record)
        record[START] = perf_counter()
        return index

    def end(self, index: int) -> None:
        now = perf_counter()
        self.spans[index][END] = now
        if self._stack.pop() != index:
            raise RuntimeError("ledger spans closed out of order")

    def summarize(self, root: int) -> Dict[str, List[float]]:
        """``name -> [calls, self seconds]`` over ``root`` and its descendants.

        Every span begun while ``root`` was open is a descendant, so they
        are the contiguous run of records up to the next top-level span.
        """
        stop = root + 1
        while stop < len(self.spans) and self.spans[stop][PARENT] != -1:
            stop += 1
        covered = defaultdict(float)
        for record in self.spans[root + 1:stop]:
            covered[record[PARENT]] += record[END] - record[START]
        summary: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for index in range(root, stop):
            record = self.spans[index]
            entry = summary[record[NAME]]
            entry[0] += 1
            entry[1] += record[END] - record[START] - covered.get(index, 0.0)
        return summary

    def write_chrome_trace(self, path: str) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        events = []
        for index, (name, start, end, parent, ident) in enumerate(self.spans):
            args = {"span": index, "parent": parent}
            if ident is not None:
                args["id"] = ident
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class span:
    """``with span(tracer, name):`` — a no-op when ``tracer`` is None."""

    def __init__(self, tracer: Optional[Tracer], name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "span":
        if self.tracer is not None:
            self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.tracer is not None:
            self.tracer.end(self.index)


# -- wrappers --------------------------------------------------------------------


def _timed(
    tracer: Tracer,
    name: str,
    fn: Callable,
    ident: Optional[Callable[..., Any]] = None,
    observe: Optional[Callable[..., None]] = None,
) -> Callable:
    """``fn`` inside a span; ``observe(result, *args, **kwargs)`` runs after
    the span closed, so what it costs is billed to the caller."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(name, ident(*args, **kwargs) if ident else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if observe is not None:
            observe(result, *args, **kwargs)
        return result

    return wrapper


def _timed_generator(
    tracer: Tracer, name: str, fn: Callable, ident: Callable[..., Any]
) -> Callable:
    """A generator function with one span per resumption."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any):
        tracer.counts[name + "_calls"] += 1
        who = ident(*args, **kwargs)
        inner = fn(*args, **kwargs)
        sent: Any = None
        thrown: Optional[BaseException] = None
        while True:
            index = tracer.begin(name, who)
            try:
                if thrown is not None:
                    yielded = inner.throw(thrown)
                else:
                    yielded = inner.send(sent)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.end(index)
            try:
                sent = yield yielded
                thrown = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the program, not handled
                thrown = exc

    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Replace ``original`` wherever a loaded ``repro`` module names it."""
    hits = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"no repro module names {original!r}")


def _wrap_function(tracer: Tracer, name: str, fn: Callable, **hooks: Any) -> None:
    _rebind(fn, _timed(tracer, name, fn, **hooks))


def _wrap_method(tracer: Tracer, name: str, cls: type, attr: str, **hooks: Any) -> None:
    setattr(cls, attr, _timed(tracer, name, getattr(cls, attr), **hooks))


def install(tracer: Tracer) -> None:
    """Wrap every public entry point the ledger attributes time to."""
    import repro.cli
    import repro.core.client
    import repro.core.partition
    import repro.core.server
    import repro.core.snapshot.capture as capture
    import repro.core.snapshot.codegen as codegen
    import repro.core.snapshot.optimize as optimize
    import repro.core.snapshot.restore as restore
    import repro.exec.engine
    import repro.fleet.scheduler
    import repro.netsim.channel
    import repro.netsim.link
    import repro.nn.cost
    import repro.nn.plan as plan
    import repro.nn.zoo as zoo
    import repro.serve.loop
    import repro.sim.kernel
    import repro.web.runtime
    import repro.web.scripts as scripts

    # sim: events dispatched are counted here, from ``Simulator.dispatched``
    def wrap_sim(attr: str) -> None:
        inner = getattr(repro.sim.kernel.Simulator, attr)

        @functools.wraps(inner)
        def wrapper(sim: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.simulators[id(sim)] = sim
            before = sim.dispatched
            index = tracer.begin("sim.run")
            try:
                return inner(sim, *args, **kwargs)
            finally:
                tracer.end(index)
                tracer.counts["sim.events"] += sim.dispatched - before

        setattr(repro.sim.kernel.Simulator, attr, wrapper)

    wrap_sim("run")
    wrap_sim("run_until")

    # netsim
    _wrap_method(tracer, "netsim.send", repro.netsim.channel.ChannelEnd, "send")
    _wrap_method(tracer, "netsim.send", repro.netsim.channel.ChannelEnd, "send_message")
    _wrap_method(tracer, "netsim.transmit", repro.netsim.link.Link, "transmit")

    # web
    for fn in (scripts.split_functions, scripts.referenced_names, scripts.compile_functions):
        _wrap_function(tracer, "web.scripts", fn)
    _wrap_method(tracer, "web.run_event", repro.web.runtime.WebRuntime, "run_event")
    _wrap_method(tracer, "web.run_handler", repro.web.runtime.WebRuntime, "run_handler")

    # core.snapshot
    def sized(key: str) -> Callable[..., None]:
        def observe(snapshot: Any, *args: Any, **kwargs: Any) -> None:
            tracer.samples[key].append(snapshot.size_bytes)

        return observe

    _wrap_function(
        tracer, "snapshot.capture_full", capture.capture_snapshot,
        observe=sized("snapshot.full_bytes"),
    )
    _wrap_function(
        tracer, "snapshot.capture_delta", capture.capture_delta,
        observe=sized("snapshot.delta_bytes"),
    )
    _wrap_function(tracer, "snapshot.select_globals", optimize.select_globals)
    _wrap_function(tracer, "snapshot.restore", restore.restore_snapshot)
    _wrap_function(tracer, "snapshot.tensor_text", codegen.render_tensor_text)
    _wrap_function(tracer, "snapshot.tensor_text", codegen.parse_tensor_text)

    # core
    client = repro.core.client.ClientAgent
    client.offload = _timed_generator(
        tracer, "core.offload", client.offload,
        ident=lambda agent, *args, **kwargs: agent.endpoint.name,
    )
    _wrap_method(
        tracer, "core.server_batch_infer", repro.core.server.EdgeServer,
        "batch_partial_inference",
    )
    for attr in ("choose", "estimate"):
        _wrap_method(
            tracer, "core.partition", repro.core.partition.PartitionOptimizer, attr
        )

    # nn
    def plan_compiled(compiled: Any, network: Any, start: int = 0,
                      end: Optional[int] = None, **kwargs: Any) -> None:
        last = len(network.layers) - 1 if end is None else end
        costs = repro.nn.cost.costs_for_range(network, start, last)
        tracer.plans[id(compiled)] = (compiled, float(sum(c.flops for c in costs)))

    def forwarded(result: Any, compiled: Any, *args: Any, **kwargs: Any) -> None:
        tracer.counts["nn.forward_flops"] += tracer.plans[id(compiled)][1]

    def batch_forwarded(result: Any, compiled: Any, xs: Any, *args: Any, **kwargs: Any) -> None:
        tracer.counts["nn.forward_batch_items"] += len(xs)

    _wrap_function(tracer, "nn.build_model", zoo.build_model)
    _wrap_function(tracer, "nn.plan_compile", plan.compile_plan, observe=plan_compiled)
    _wrap_method(tracer, "nn.forward", plan.ExecutionPlan, "forward", observe=forwarded)
    _wrap_method(
        tracer, "nn.forward_batch", plan.ExecutionPlan, "forward_batch",
        observe=batch_forwarded,
    )

    # serve / fleet / exec / cli
    _wrap_method(
        tracer, "serve.submit", repro.serve.loop.ServingLoop, "submit",
        ident=lambda loop, **kwargs: f"{kwargs.get('sender')}#{kwargs.get('request_id')}",
    )
    _wrap_method(tracer, "fleet.pick", repro.fleet.scheduler.FleetScheduler, "try_pick")
    _wrap_method(
        tracer, "exec.run", repro.exec.engine.ExecutionEngine, "run",
        observe=lambda outcomes, engine, tasks: tracer.engine_runs.append(engine.last_run),
    )
    _wrap_function(tracer, "cli.main", repro.cli.main)
