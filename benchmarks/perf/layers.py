"""Per-layer tracing of a campaign from outside the ``repro`` package.

:func:`traced` wraps public methods of each simulator and injector module
for the duration of a ``with`` block and restores the originals on exit;
nothing under ``src/`` carries a timer. Each wrapped call becomes a span
on a :class:`SpanRecorder`, which keeps a stack of open spans and
aggregates, per span name, the number of calls, the total time and the
self time (duration minus the time of child spans).

Spans are recorded only inside a trial. The benchmark opens trial ``i``
when trial ``i - 1`` reports progress (trial 0 when ``run_campaign`` is
called) and closes it at trial ``i``'s own progress callback, so the
trial span is exactly the per-trial latency the end-to-end metrics use,
and its self time (``fi.runner``) is the part no wrapped layer covers.
Raw spans of one trial are kept for a Chrome/Perfetto trace.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

#: Span name of the trial itself (the runner's own, uncovered time).
TRIAL = "fi.runner"

#: Span of the tracer's own work inside a traced call (wrapping compiled
#: instruction closures); excluded from every layer.
BOOKKEEPING = "trace.bookkeeping"

#: ``(span name, layer, module, attribute)`` for every wrapped boundary.
#: ``attribute`` is ``Class.method`` or a module-level name; module-level
#: names are wrapped where the caller looks them up (``repro.fi.campaign``
#: binds the planners and ``outputs_equal`` at import).
BOUNDARIES: tuple[tuple[str, str, str, str], ...] = (
    ("fi.journal.append", "fi.journal", "repro.fi.journal",
     "CampaignJournal.append"),
    ("fi.journal.load", "fi.journal", "repro.fi.journal",
     "CampaignJournal.load"),
    ("fi.journal.discard", "fi.journal", "repro.fi.journal",
     "CampaignJournal.discard"),
    ("fi.campaign.plan_microarch_fault", "fi.campaign.plan",
     "repro.fi.campaign", "plan_microarch_fault"),
    ("fi.campaign.plan_software_fault", "fi.campaign.plan",
     "repro.fi.campaign", "plan_software_fault"),
    ("fi.campaign.outputs_equal", "fi.campaign.classify",
     "repro.fi.campaign", "outputs_equal"),
    ("fi.gpufi.arm", "fi.injector", "repro.fi.gpufi", "MicroarchInjector.arm"),
    ("fi.gpufi.fire", "fi.injector", "repro.fi.gpufi",
     "MicroarchFaultPlan.fire"),
    ("fi.gpufi.enforce", "fi.injector", "repro.fi.gpufi",
     "MicroarchFaultPlan.enforce"),
    ("fi.gpufi.rebind", "fi.injector", "repro.fi.gpufi",
     "MicroarchFaultPlan.rebind"),
    ("fi.nvbitfi.begin_launch", "fi.injector", "repro.fi.nvbitfi",
     "SoftwareInjector.begin_launch"),
    ("fi.nvbitfi.after_write", "fi.injector", "repro.fi.nvbitfi",
     "SoftwareInjector.after_write"),
    ("sim.gpu.launch", "sim.gpu.launch", "repro.sim.gpu", "GPU.launch"),
    ("sim.gpu.reset", "sim.gpu.reset", "repro.sim.gpu", "GPU.reset"),
    ("sim.gpu.memcpy_htod", "sim.gpu.memcpy", "repro.sim.gpu",
     "GPU.memcpy_htod"),
    ("sim.gpu.memcpy_dtoh", "sim.gpu.memcpy", "repro.sim.gpu",
     "GPU.memcpy_dtoh"),
    ("sim.sm.pick_ready", "sim.sm.pick_ready", "repro.sim.sm",
     "SM.pick_ready"),
    ("sim.sm.next_event", "sim.sm.next_event", "repro.sim.sm",
     "SM.next_event"),
    ("sim.sm.execute", "sim.sm.execute", "repro.sim.sm", "SM.execute"),
    ("sim.executor.compile", "sim.executor.compile", "repro.sim.executor",
     "CompiledKernel.__init__"),
    ("sim.cache.read_line", "sim.cache.read", "repro.sim.cache",
     "Cache.read_line"),
    ("sim.cache.write_word", "sim.cache.write", "repro.sim.cache",
     "Cache.write_word"),
    ("sim.cache.write_words_line", "sim.cache.write", "repro.sim.cache",
     "Cache.write_words_line"),
    ("sim.cache.update_words_if_present", "sim.cache.write",
     "repro.sim.cache", "Cache.update_words_if_present"),
    ("sim.cache.flush", "sim.cache.maint", "repro.sim.cache", "Cache.flush"),
    ("sim.cache.invalidate_all", "sim.cache.maint", "repro.sim.cache",
     "Cache.invalidate_all"),
    ("sim.cache.new_clock_epoch", "sim.cache.maint", "repro.sim.cache",
     "Cache.new_clock_epoch"),
    ("sim.cache.reset_stats", "sim.cache.maint", "repro.sim.cache",
     "Cache.reset_stats"),
    ("sim.memory.check_word_addresses", "sim.memory", "repro.sim.memory",
     "GlobalMemory.check_word_addresses"),
    ("sim.memory.read_line", "sim.memory", "repro.sim.memory",
     "GlobalMemory.read_line"),
    ("sim.memory.write_line", "sim.memory", "repro.sim.memory",
     "GlobalMemory.write_line"),
    ("sim.memory.read_bytes", "sim.memory", "repro.sim.memory",
     "GlobalMemory.read_bytes"),
    ("sim.memory.write_bytes", "sim.memory", "repro.sim.memory",
     "GlobalMemory.write_bytes"),
    ("sim.memory.alloc", "sim.memory", "repro.sim.memory",
     "GlobalMemory.alloc"),
    ("sim.memory.reset", "sim.memory.reset", "repro.sim.memory",
     "GlobalMemory.reset"),
    # SMEM storage counts as memory: bfs makes no SMEM calls, so a layer
    # of its own would read exactly 0 there.
    ("sim.shared_memory.read_words", "sim.memory",
     "repro.sim.shared_memory", "SharedWindow.read_words"),
    ("sim.shared_memory.write_words", "sim.memory",
     "repro.sim.shared_memory", "SharedWindow.write_words"),
)

#: Spans created at run time rather than from :data:`BOUNDARIES` (each
#: its own layer): the application's host code and the compiled ALU /
#: memory closures.
DYNAMIC = ("kernels.run", "sim.executor.alu", "sim.executor.mem")

#: Span name -> layer, for every span the tracer can record.
LAYER_OF: dict[str, str] = {
    TRIAL: TRIAL, **{span: span for span in DYNAMIC},
    **{span: layer for span, layer, _, _ in BOUNDARIES}}

#: The trial whose raw spans are kept for the trace file, and how many.
RAW_TRIAL = 0
RAW_SPAN_CAP = 200_000


class SpanRecorder:
    """A stack of open spans with per-name aggregates.

    ``agg[name]`` is ``[calls, total seconds, self seconds]``. A span's
    self time is its duration minus the summed durations of its direct
    children. The individual spans of trial :data:`RAW_TRIAL` are kept
    in ``raw`` as ``(name, start, duration)``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child seconds]
        self.agg: dict[str, list] = {}
        self.raw: list[tuple[str, float, float]] = []
        self.raw_dropped = 0
        self.trial: int | None = None
        self.trials = 0
        self.distinct_kernels: set[tuple[int, bytes]] = set()
        self.cycles = 0
        self.warp_instructions = 0

    def begin(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def end(self) -> None:
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if self.trial == RAW_TRIAL:
            if len(self.raw) < RAW_SPAN_CAP:
                self.raw.append((name, start, dur))
            else:
                self.raw_dropped += 1

    def begin_trial(self, index: int) -> None:
        """Open the root span of trial ``index`` (the request id)."""
        if self.stack:
            raise RuntimeError(f"trial {index} opened inside span "
                               f"{self.stack[-1][0]!r}")
        self.trial = index
        self.begin(TRIAL)

    def end_trial(self) -> None:
        if len(self.stack) != 1 or self.stack[0][0] != TRIAL:
            raise RuntimeError("trial closed with open child spans: "
                               f"{[s[0] for s in self.stack]}")
        self.end()
        self.trials += 1
        self.trial = None

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0])[0]

    def self_seconds(self, layer: str) -> float:
        return sum(entry[2] for name, entry in self.agg.items()
                   if LAYER_OF.get(name) == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(entry[0] for name, entry in self.agg.items()
                   if LAYER_OF.get(name) == layer)

    def trace_events(self) -> list[dict]:
        """Raw spans of the kept trial as telemetry-style span events
        (seconds from the trial's start), for
        :func:`repro.telemetry.trace.write_trace`."""
        if not self.raw:
            return []
        t0 = min(start for _, start, _ in self.raw)
        return [{"kind": "span", "name": name, "ts": start - t0, "dur": dur,
                 "trial": RAW_TRIAL, "layer": LAYER_OF.get(name, name)}
                for name, start, dur in sorted(self.raw, key=lambda s: s[1])]


def _span_wrapper(rec: SpanRecorder, name: str, fn):
    """``fn`` recorded as span ``name`` while a trial is open."""

    def traced_call(*args, **kwargs):
        if not rec.stack:
            return fn(*args, **kwargs)
        rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end()

    traced_call.__wrapped__ = fn
    return traced_call


def _launch_wrapper(rec: SpanRecorder, fn):
    """``GPU.launch`` as a span, also summing the simulated cycles and
    warp instructions of the launch (aborted launches included)."""

    def launch(gpu, *args, **kwargs):
        if not rec.stack:
            return fn(gpu, *args, **kwargs)
        before = gpu.stats
        rec.begin("sim.gpu.launch")
        try:
            return fn(gpu, *args, **kwargs)
        finally:
            rec.end()
            stats = gpu.stats
            if stats is not None and stats is not before:
                rec.cycles += stats.cycles
                rec.warp_instructions += stats.warp_instructions

    launch.__wrapped__ = fn
    return launch


def _compile_wrapper(rec: SpanRecorder, fn):
    """``CompiledKernel.__init__`` as a span; afterwards its ALU and
    memory closures are wrapped in place (as tracer bookkeeping)."""
    from repro.sim.executor import K_ALU, K_MEM

    kinds = {K_ALU: "sim.executor.alu", K_MEM: "sim.executor.mem"}

    def compile_init(kernel, program, const_bank, config):
        if not rec.stack:
            return fn(kernel, program, const_bank, config)
        rec.begin("sim.executor.compile")
        try:
            fn(kernel, program, const_bank, config)
        finally:
            rec.end()
        rec.begin(BOOKKEEPING)
        rec.distinct_kernels.add((id(program), const_bank.tobytes()))
        kernel.entries = [
            entry if entry[1] not in kinds else
            entry[:2] + (_span_wrapper(rec, kinds[entry[1]], entry[2]),)
            + entry[3:]
            for entry in kernel.entries]
        rec.end()

    compile_init.__wrapped__ = fn
    return compile_init


def _resolve(module: str, attribute: str):
    """``(owner, attribute name)`` of a ``Class.method`` or module name."""
    owner = importlib.import_module(module)
    *path, attr = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def boundary_owners(app_class: type | None = None
                    ) -> list[tuple[object, str, str]]:
    """Every ``(owner, attribute, span name)`` :func:`traced` patches."""
    targets = []
    for span, _, module, attribute in BOUNDARIES:
        owner, attr = _resolve(module, attribute)
        targets.append((owner, attr, span))
    if app_class is not None:
        owner = next(k for k in app_class.__mro__ if "run" in vars(k))
        targets.append((owner, "run", "kernels.run"))
    return targets


@contextmanager
def traced(app_class: type):
    """Install span wrappers on every boundary (and ``app_class.run``);
    yields the :class:`SpanRecorder`. Originals are restored on exit."""
    rec = SpanRecorder()
    installed: list[tuple[object, str, object]] = []
    try:
        for owner, attr, span in boundary_owners(app_class):
            original = vars(owner)[attr]
            if span == "sim.gpu.launch":
                wrapper = _launch_wrapper(rec, original)
            elif span == "sim.executor.compile":
                wrapper = _compile_wrapper(rec, original)
            else:
                wrapper = _span_wrapper(rec, span, original)
            setattr(owner, attr, wrapper)
            installed.append((owner, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def layer_metrics(rec: SpanRecorder, untraced_wall_s: float,
                  traced_wall_s: float, scale: float = 1.0
                  ) -> dict[str, float]:
    """Per-trial layer metrics of one traced campaign.

    Times are self time in ms per trial; counts are per trial.
    ``untraced_wall_s`` is the median wall time of the same campaign
    (same seed, so the same simulated work) run without wrappers.
    ``scale`` normalises host times to the reference host speed (see
    ``calibrate.py``); the overhead ratio needs no normalising.
    """
    n = rec.trials
    if n == 0:
        raise ValueError("no traced trials")

    def ms(*layers: str) -> float:
        return 1e3 * scale * sum(rec.self_seconds(layer)
                                 for layer in layers) / n

    def per_trial(count: int) -> float:
        return count / n

    pick = rec.layer_calls("sim.sm.pick_ready")
    execute = rec.layer_calls("sim.sm.execute")
    return {
        "fi.runner.self_ms": ms(TRIAL),
        "fi.journal.self_ms": ms("fi.journal"),
        "fi.journal.append.calls": per_trial(rec.calls("fi.journal.append")),
        "fi.campaign.plan.self_ms": ms("fi.campaign.plan"),
        "fi.campaign.classify.self_ms": ms("fi.campaign.classify"),
        "fi.injector.self_ms": ms("fi.injector"),
        "fi.injector.calls": per_trial(rec.layer_calls("fi.injector")),
        "kernels.run.self_ms": ms("kernels.run"),
        "sim.gpu.launch.self_ms": ms("sim.gpu.launch"),
        "sim.gpu.launch.calls": per_trial(rec.layer_calls("sim.gpu.launch")),
        "sim.gpu.reset.self_ms": ms("sim.gpu.reset"),
        "sim.gpu.memcpy.self_ms": ms("sim.gpu.memcpy"),
        "sim.sm.pick_ready.self_ms": ms("sim.sm.pick_ready"),
        "sim.sm.pick_ready.calls": per_trial(pick),
        "sim.sm.next_event.self_ms": ms("sim.sm.next_event"),
        "sim.sm.next_event.calls": per_trial(
            rec.layer_calls("sim.sm.next_event")),
        "sim.sm.execute.self_ms": ms("sim.sm.execute"),
        "sim.sm.execute.calls": per_trial(execute),
        "sim.sm.issue_hit_ratio": execute / pick if pick else 0.0,
        "sim.executor.compile.self_ms": ms("sim.executor.compile"),
        "sim.executor.compile.calls": per_trial(
            rec.layer_calls("sim.executor.compile")),
        "sim.executor.compile.distinct": per_trial(len(rec.distinct_kernels)),
        "sim.executor.alu.self_ms": ms("sim.executor.alu"),
        "sim.executor.alu.calls": per_trial(rec.layer_calls("sim.executor.alu")),
        "sim.executor.mem.self_ms": ms("sim.executor.mem"),
        "sim.executor.mem.calls": per_trial(rec.layer_calls("sim.executor.mem")),
        "sim.cache.read.self_ms": ms("sim.cache.read"),
        "sim.cache.read.calls": per_trial(rec.layer_calls("sim.cache.read")),
        "sim.cache.write.self_ms": ms("sim.cache.write"),
        "sim.cache.write.calls": per_trial(rec.layer_calls("sim.cache.write")),
        "sim.cache.maint.self_ms": ms("sim.cache.maint"),
        "sim.memory.self_ms": ms("sim.memory"),
        "sim.memory.calls": per_trial(rec.layer_calls("sim.memory")),
        "sim.memory.reset.self_ms": ms("sim.memory.reset"),
        "sim.model.cycles": per_trial(rec.cycles),
        "sim.model.warp_instructions": per_trial(rec.warp_instructions),
        "sim.model.host_ns_per_warp_instr": (
            1e9 * scale * untraced_wall_s / rec.warp_instructions
            if rec.warp_instructions else 0.0),
        "trace.trial_ms": 1e3 * scale * rec.agg[TRIAL][1] / n,
        "trace.overhead": traced_wall_s / untraced_wall_s,
    }
