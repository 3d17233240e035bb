"""The profiling session: one composable entry point for the whole toolchain.

A :class:`Session` binds a platform model; ``session.run(workload, spec)``
profiles any :class:`~repro.api.workload.Workload` (synthetic trace replay
or compiled kernel) according to a declarative
:class:`~repro.api.spec.ProfileSpec` and returns a uniform
:class:`~repro.api.run.Run`.  :meth:`Session.compare` runs the same workload
and spec across several platforms and returns a :class:`Comparison` with
side-by-side summaries and quantitative flame-graph diffs.

Machine construction is lazy and cached per vendor-driver setting, so a
session is cheap to create and repeated runs on the same platform share one
machine model (and therefore one identified CPU), like the real tool.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Union


def _wall_seconds() -> float:
    """Host wall-clock, for the diagnostic phase timings only.

    ``run.timings`` reports compile/execute/analyses wall time to stderr on
    ``--timings``; it never feeds modelled time, samples or golden output
    (the golden suite strips it).  Every timing read funnels through here so
    the wall-clock exposure stays a single audited site.
    """
    return perf_counter()  # repro-lint: allow[wall-clock] -- diagnostic phase timings; stripped from goldens, never modelled time

from repro import telemetry as _telemetry
from repro.api.run import Comparison, Run
from repro.api.spec import ProfileSpec
from repro.api.workload import Workload
from repro.flamegraph import build_flame_graph
from repro.kernel.perf_event import PerfEventOpenError
from repro.miniperf import Miniperf
from repro.miniperf.groups import SamplingNotSupportedError
from repro.platforms.descriptors import PlatformDescriptor
from repro.platforms.machine import Machine
from repro.platforms import all_platforms, platform_by_name

PlatformLike = Union[str, PlatformDescriptor]


def _resolve_platform(platform: PlatformLike) -> PlatformDescriptor:
    if isinstance(platform, PlatformDescriptor):
        return platform
    return platform_by_name(platform)


def _validate_platforms(platforms: Sequence[PlatformLike]) -> List[PlatformDescriptor]:
    """Resolve a compare() platform list up front, with clean errors.

    An unknown name raises a ValueError listing the valid platform names; a
    platform appearing twice raises as well -- both instead of failing deep
    inside machine construction (or silently diffing a platform against
    itself)."""
    if not platforms:
        raise ValueError("compare needs at least one platform")
    descriptors: List[PlatformDescriptor] = []
    seen = set()
    for platform in platforms:
        if isinstance(platform, PlatformDescriptor):
            descriptor = platform
        else:
            try:
                descriptor = platform_by_name(platform)
            except (KeyError, ValueError):
                valid = ", ".join(d.name for d in all_platforms())
                raise ValueError(
                    f"unknown platform {platform!r}; valid platforms: {valid}"
                ) from None
        if descriptor.name in seen:
            raise ValueError(
                f"duplicate platform {descriptor.name!r} in compare(); "
                "each platform may appear at most once"
            )
        seen.add(descriptor.name)
        descriptors.append(descriptor)
    return descriptors


def _resolve_workload(workload: Union[str, Workload]) -> Workload:
    if isinstance(workload, str):
        from repro.workloads import registry
        return registry[workload]
    return workload


class Session:
    """Profiling session bound to one platform model.

    Parameters
    ----------
    platform:
        A :class:`PlatformDescriptor` or a platform name (resolved through
        :func:`repro.platforms.platform_by_name`).
    vendor_driver:
        Session-wide default for specs that leave ``vendor_driver`` unset;
        defaults to the paper's measured configuration (patches installed).
    """

    def __init__(self, platform: PlatformLike, vendor_driver: bool = True):
        self.descriptor = _resolve_platform(platform)
        self.default_vendor_driver = vendor_driver
        self._machines: Dict[bool, Machine] = {}
        self._tools: Dict[bool, Miniperf] = {}
        self._smp_machines: Dict[tuple, "object"] = {}

    # -- lazy machine ownership ---------------------------------------------------------

    def _effective_vendor_driver(self, spec: ProfileSpec) -> bool:
        if spec.vendor_driver is None:
            return self.default_vendor_driver
        return spec.vendor_driver

    def machine(self, vendor_driver: Optional[bool] = None) -> Machine:
        """The (lazily built, cached) machine for a vendor-driver setting."""
        key = self.default_vendor_driver if vendor_driver is None else vendor_driver
        machine = self._machines.get(key)
        if machine is None:
            machine = Machine(self.descriptor, vendor_driver=key)
            self._machines[key] = machine
        return machine

    def miniperf(self, vendor_driver: Optional[bool] = None) -> Miniperf:
        key = self.default_vendor_driver if vendor_driver is None else vendor_driver
        tool = self._tools.get(key)
        if tool is None:
            tool = Miniperf(self.machine(key))
            self._tools[key] = tool
        return tool

    def smp_machine(self, cpus: int, vendor_driver: Optional[bool] = None):
        """The (lazily built, cached) multi-hart machine for an SMP run."""
        from repro.smp import MultiHartMachine
        key = (self.default_vendor_driver if vendor_driver is None
               else vendor_driver, cpus)
        machine = self._smp_machines.get(key)
        if machine is None:
            machine = MultiHartMachine(self.descriptor, cpus,
                                       vendor_driver=key[0])
            self._smp_machines[key] = machine
        return machine

    def adopt_machine(self, machine: Machine,
                      vendor_driver: Optional[bool] = None) -> None:
        """Install a pre-built machine as this session's cached machine.

        The warm pools in :mod:`repro.service` construct machines ahead of
        demand and hand each one to exactly one request; adopting makes the
        session use the pre-built machine instead of building its own.  The
        machine must model this session's platform, and it must not have run
        anything yet: a machine's *first* run is bit-identical to a fresh
        machine's, but PMU/cache state persists across runs, so a reused
        machine would break the byte-reproducibility the result cache
        depends on.
        """
        if machine.name != self.descriptor.name:
            raise ValueError(
                f"machine models {machine.name!r}, session is bound to "
                f"{self.descriptor.name!r}"
            )
        key = (self.default_vendor_driver if vendor_driver is None
               else vendor_driver)
        self._machines[key] = machine

    def adopt_smp_machine(self, machine, cpus: int,
                          vendor_driver: Optional[bool] = None) -> None:
        """Install a pre-built multi-hart machine (see :meth:`adopt_machine`)."""
        if machine.name != self.descriptor.name:
            raise ValueError(
                f"machine models {machine.name!r}, session is bound to "
                f"{self.descriptor.name!r}"
            )
        if getattr(machine, "cpus", cpus) != cpus:
            raise ValueError(
                f"machine has {machine.cpus} harts, adopted under cpus={cpus}"
            )
        key = (self.default_vendor_driver if vendor_driver is None
               else vendor_driver, cpus)
        self._smp_machines[key] = machine

    @property
    def platform(self) -> str:
        return self.descriptor.name

    def describe(self) -> str:
        return self.miniperf().describe()

    # -- running ------------------------------------------------------------------------

    def run(self, workload: Union[str, Workload],
            spec: Optional[ProfileSpec] = None,
            cpus: Optional[int] = None,
            fast_dispatch: Optional[bool] = None) -> Run:
        """Profile *workload* according to *spec* and return a uniform Run.

        ``cpus`` (or ``spec.cpus``) selects the machine: 1 keeps the
        single-hart fast path exactly as before; more harts route through the
        SMP subsystem (:mod:`repro.smp`) for system-wide counting, per-hart
        sample streams and merged, hart-labelled flame graphs.

        ``fast_dispatch`` (or ``spec.fast_dispatch``, default on) selects the
        execution engine compiled-kernel workloads run on -- the generated
        batch-retiring executor or the reference interpreter.  Both the
        single-hart and the SMP path honour it; results are bit-identical
        either way, only wall-clock time differs.

        Analyses that the platform cannot deliver (e.g. sampling on a part
        whose counters cannot raise overflow interrupts, or a roofline for a
        workload with no compiled kernel) are recorded in ``run.errors``
        instead of aborting the whole run, so multi-platform comparisons
        degrade per-platform exactly the way the paper's Table 1 predicts.
        """
        spec = spec or ProfileSpec()
        if cpus is not None and cpus != spec.cpus:
            spec = spec.replace(cpus=cpus)
        if fast_dispatch is not None and fast_dispatch != spec.fast_dispatch:
            spec = spec.replace(fast_dispatch=fast_dispatch)
        workload = _resolve_workload(workload)
        if spec.cpus > 1:
            return self._run_smp(workload, spec)
        vendor_driver = self._effective_vendor_driver(spec)
        machine = self.machine(vendor_driver)
        machine.set_cache_fast_path(spec.fast_cache)
        tool = self.miniperf(vendor_driver)
        run = Run(
            platform=machine.name,
            workload=workload.name,
            spec=spec,
            cpu_description=tool.describe(),
        )
        compile_seconds = 0.0
        execute_seconds = 0.0
        analyses_seconds = 0.0
        collector = _telemetry.RunCollector(platform=machine.name,
                                            workload=workload.name)
        collector.start(machine)

        with _telemetry.span("run", cat="run", platform=machine.name,
                             workload=workload.name, cpus=1):
            if spec.wants_stat:
                task = machine.create_task(workload.name)
                start = _wall_seconds()
                try:
                    with _telemetry.span("compile", analysis="stat"):
                        executable = workload.executable(machine, task, spec)
                    compile_seconds += _wall_seconds() - start
                    start = _wall_seconds()
                    with _telemetry.span("execute", analysis="stat"):
                        run.stat = tool.stat(executable, task=task,
                                             events=spec.events)
                    execute_seconds += _wall_seconds() - start
                except PerfEventOpenError as error:
                    run.errors["stat"] = str(error)
                    run.failures["stat"] = error

            if spec.wants_sampling:
                task = machine.create_task(workload.name)
                start = _wall_seconds()
                try:
                    with _telemetry.span("compile", analysis="sampling"):
                        executable = workload.executable(machine, task, spec)
                    compile_seconds += _wall_seconds() - start
                    start = _wall_seconds()
                    with _telemetry.span("execute", analysis="sampling"):
                        run.recording = tool.record(
                            executable,
                            task=task, events=spec.events,
                            sample_period=spec.sample_period,
                        )
                    execute_seconds += _wall_seconds() - start
                except (SamplingNotSupportedError, PerfEventOpenError) as error:
                    run.errors["sampling"] = str(error)
                    run.failures["sampling"] = error
                if run.recording is not None:
                    start = _wall_seconds()
                    with _telemetry.span("analyses", analysis="sampling"):
                        if "hotspots" in spec.analyses:
                            run.hotspots = tool.hotspots(run.recording)
                        if "flamegraph" in spec.analyses:
                            run.flame_cycles = build_flame_graph(
                                run.recording.samples, weight="samples")
                            run.flame_instructions = build_flame_graph(
                                run.recording.samples, weight="instructions")
                    analyses_seconds += _wall_seconds() - start

            if spec.wants_roofline:
                if not workload.supports_roofline:
                    run.errors["roofline"] = (
                        f"workload {workload.name!r} ({workload.kind}) has no "
                        "compiled kernel to run the two-phase roofline flow on"
                    )
                else:
                    # Resolve the session-level vendor-driver default before the
                    # workload builds its own (fresh) roofline machines.
                    start = _wall_seconds()
                    with _telemetry.span("analyses", analysis="roofline"):
                        run.roofline = workload.roofline(
                            self.descriptor,
                            spec.replace(vendor_driver=vendor_driver))
                    analyses_seconds += _wall_seconds() - start

        run.timings = {"compile": compile_seconds, "execute": execute_seconds,
                       "analyses": analyses_seconds}
        collector.finish(timings=run.timings)
        return run

    # -- SMP runs ------------------------------------------------------------------------

    def _threads_for(self, workload: Workload, spec: ProfileSpec):
        """Shard *workload* for an SMP run.

        Workloads implementing the :class:`~repro.workloads.parallel.
        ParallelWorkload` protocol shard themselves; any other workload runs
        as one software thread (on hart 0), which is what an unthreaded
        program does on an SMP box.
        """
        threads = getattr(workload, "threads", None)
        if callable(threads):
            return threads(spec.cpus, spec)

        def body(machine, task):
            workload.executable(machine, task, spec)()
            yield

        return [(workload.name, body)]

    def _run_smp(self, workload: Workload, spec: ProfileSpec) -> Run:
        """System-wide profiling on a multi-hart machine."""
        from repro.flamegraph import merge_flame_graphs
        from repro.miniperf.groups import SamplingNotSupportedError as _SNS
        from repro.smp import aggregate_roofline, smp_record, smp_stat

        vendor_driver = self._effective_vendor_driver(spec)
        tool = self.miniperf(vendor_driver)
        run = Run(
            platform=self.descriptor.name,
            workload=workload.name,
            spec=spec,
            cpus=spec.cpus,
            cpu_description=tool.describe(),
        )
        compile_seconds = 0.0
        execute_seconds = 0.0
        analyses_seconds = 0.0
        try:
            machine = self.smp_machine(spec.cpus, vendor_driver)
        except ValueError as error:
            # A hart count the board cannot provide degrades per-run (and
            # therefore per-platform in Session.compare), like any other
            # undeliverable analysis.  Error keys mirror the ones the
            # analyses below use: stat / sampling / roofline.
            failed = set()
            if spec.wants_stat:
                failed.add("stat")
            if spec.wants_sampling:
                failed.add("sampling")
            if spec.wants_roofline:
                failed.add("roofline")
            for key in sorted(failed):
                run.errors[key] = str(error)
                run.failures[key] = error
            return run
        machine.set_cache_fast_path(spec.fast_cache)
        collector = _telemetry.RunCollector(platform=self.descriptor.name,
                                            workload=workload.name)
        collector.start(machine)

        with _telemetry.span("run", cat="run", platform=self.descriptor.name,
                             workload=workload.name, cpus=spec.cpus):
            if spec.wants_stat:
                start = _wall_seconds()
                try:
                    with _telemetry.span("compile", analysis="stat"):
                        threads = self._threads_for(workload, spec)
                    compile_seconds += _wall_seconds() - start
                    start = _wall_seconds()
                    with _telemetry.span("execute", analysis="stat"):
                        run.stat = smp_stat(machine, threads,
                                            events=spec.events)
                    run.schedule = run.stat.schedule
                    execute_seconds += _wall_seconds() - start
                except PerfEventOpenError as error:
                    run.errors["stat"] = str(error)
                    run.failures["stat"] = error

            if spec.wants_sampling:
                start = _wall_seconds()
                try:
                    with _telemetry.span("compile", analysis="sampling"):
                        threads = self._threads_for(workload, spec)
                    compile_seconds += _wall_seconds() - start
                    start = _wall_seconds()
                    with _telemetry.span("execute", analysis="sampling"):
                        run.recording = smp_record(
                            machine, threads,
                            events=spec.events,
                            sample_period=spec.sample_period,
                        )
                    run.schedule = run.recording.schedule
                    execute_seconds += _wall_seconds() - start
                except (_SNS, PerfEventOpenError) as error:
                    run.errors["sampling"] = str(error)
                    run.failures["sampling"] = error
                if run.recording is not None:
                    start = _wall_seconds()
                    with _telemetry.span("analyses", analysis="sampling"):
                        if "hotspots" in spec.analyses:
                            run.hotspots = run.recording.hotspots()
                        if "flamegraph" in spec.analyses:
                            run.flame_cycles = run.recording.flame_graph(
                                weight="samples")
                            run.flame_instructions = run.recording.flame_graph(
                                weight="instructions")
                    analyses_seconds += _wall_seconds() - start

            if spec.wants_roofline:
                if not workload.supports_roofline:
                    run.errors["roofline"] = (
                        f"workload {workload.name!r} ({workload.kind}) has no "
                        "compiled kernel to run the two-phase roofline flow on"
                    )
                else:
                    # The kernel point is measured on one hart; the roofs are
                    # aggregated over all harts.  The shared levels (DRAM and
                    # the platform's LLC, which SharedMemorySystem shares across
                    # harts) keep their single-instance bandwidth.
                    start = _wall_seconds()
                    with _telemetry.span("analyses", analysis="roofline"):
                        single = workload.roofline(
                            self.descriptor,
                            spec.replace(vendor_driver=vendor_driver))
                        run.roofline = aggregate_roofline(
                            single, spec.cpus,
                            shared_levels=("DRAM",
                                           self.descriptor.caches[-1].name))
                    analyses_seconds += _wall_seconds() - start

        run.timings = {"compile": compile_seconds, "execute": execute_seconds,
                       "analyses": analyses_seconds}
        collector.finish(schedule=run.schedule, timings=run.timings)
        return run

    # -- multi-platform comparison ------------------------------------------------------

    @classmethod
    def compare(cls, platforms: Sequence[PlatformLike],
                workload: Union[str, Workload],
                spec: Optional[ProfileSpec] = None,
                workers: int = 1,
                workload_params: Optional[Dict[str, object]] = None) -> Comparison:
        """Run *workload*/*spec* on every platform and compare the results.

        The first platform is the baseline; flame-graph diffs of every other
        platform against it are computed when both sides produced a cycles
        flame graph.

        Platforms are validated up front: an unknown name raises a
        ``ValueError`` listing the valid platform names, and a platform
        appearing twice raises as well (a platform diffed against itself is
        always a mistake).

        ``workers`` > 1 fans the per-platform runs out over a process pool
        (:func:`repro.api.executor.run_many`): every run is deterministic
        and isolated, so the Comparison is bit-identical to the serial one,
        in platform order, only faster.  Prefer naming the workload by its
        registry string (with ``workload_params`` for factory parameters)
        when parallelising -- names always pickle; concrete workload
        objects must be picklable to cross the process boundary.
        """
        descriptors = _validate_platforms(platforms)
        spec = spec or ProfileSpec()
        if isinstance(workload, str):
            name: Optional[str] = workload
            params = dict(workload_params or {})
            from repro.workloads import registry
            workload = registry.create(name, **params)
        else:
            if workload_params:
                raise ValueError(
                    "workload_params apply only when the workload is given "
                    "by registry name")
            name, params = None, {}
            workload = _resolve_workload(workload)
        if workers > 1:
            from repro.api.executor import RunRequest, run_many
            requests = [
                # A caller-supplied descriptor object travels whole, so a
                # customized platform is profiled as given; plain names stay
                # names (resolved registry-side in the worker).
                RunRequest(platform=(original if isinstance(original,
                                                            PlatformDescriptor)
                                     else descriptor.name),
                           workload=name if name is not None else workload,
                           params=params, spec=spec)
                for original, descriptor in zip(platforms, descriptors)
            ]
            runs = run_many(requests, workers=workers)
        else:
            runs: List[Run] = [
                cls(descriptor).run(workload, spec) for descriptor in descriptors
            ]
        return Comparison.build(workload.name, spec, runs)
