//! The simulation engine: programs × caches × PMU × detector × controller.
//!
//! [`Simulation`] executes a [`Program`] under one [`AnalysisMode`] and
//! returns a [`RunResult`]. The event flow per memory access is the
//! paper's architecture end to end:
//!
//! ```text
//!   scheduler ──op──▶ cache hierarchy ──AccessResult──▶
//!       analysis ON?  ──yes──▶ race detector (cost: instrumentation)
//!                     ──no───▶ sharing indicator (PMU) ──PMI──▶ enable
//! ```
//!
//! Synchronization operations always reach the detector (cheap, keeps
//! clocks correct) and, fork/join aside, touch their backing memory word
//! ([`Op::memory_word`]) in the cache (lock words ping-pong between cores
//! and genuinely produce HITM events — a conservative but realistic
//! trigger source the paper also sees).
//!
//! Because the scheduler's interleaving depends only on the seed and the
//! program — never on costs or the listener — runs of the same program
//! under different modes see **identical schedules**, making slowdown
//! ratios apples-to-apples.

use crate::controller::{ControllerStats, DemandController};
use crate::cost::CostModel;
use crate::mode::{AnalysisMode, DetectorKind, EnableScope, SimConfig};
use crate::result::{RaceSummary, RunResult};
use crate::timeline::{ToggleEvent, ToggleKind};
use ddrace_cache::{AccessResult, CacheHierarchy, CoreId};
use ddrace_detector::{Djit, FastTrack, LockSet, RaceDetector};
use ddrace_pmu::SharingIndicator;
use ddrace_program::{
    AccessKind, ExecutionListener, Op, OpCounts, Program, ScheduleError, Scheduler, ThreadId,
    TraceEvent,
};
use ddrace_trace::TraceWriter;
use std::io::Write;

/// Runs programs under a fixed configuration.
///
/// # Examples
///
/// ```
/// use ddrace_core::{AnalysisMode, SimConfig, Simulation};
/// use ddrace_program::{ProgramBuilder, ThreadId};
///
/// let mut b = ProgramBuilder::new();
/// let x = b.alloc_shared(8).base();
/// let t1 = b.add_thread();
/// b.on(ThreadId::MAIN).fork(t1).write(x).join(t1);
/// b.on(t1).write(x);
///
/// let sim = Simulation::new(SimConfig::new(2, AnalysisMode::Continuous));
/// let result = sim.run(b.build())?;
/// assert_eq!(result.races.distinct, 1); // the unordered write pair
/// # Ok::<(), ddrace_program::ScheduleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`SimConfig::validate`]).
    pub fn new(config: SimConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
        Simulation { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Executes `program` to completion.
    ///
    /// # Errors
    ///
    /// Propagates scheduler errors (deadlock, sync misuse).
    pub fn run(&self, program: Program) -> Result<RunResult, ScheduleError> {
        let _span = ddrace_telemetry::span("sim.run");
        let mut state = SimState::new(&self.config);
        let schedule = Scheduler::new(program, self.config.scheduler).run(&mut state)?;
        Ok(state.into_result(schedule, self.config.mode.label()))
    }

    /// Like [`Simulation::run`], but also records every scheduler event
    /// into `writer`, in global order, before the simulator sees it. The
    /// recorded trace replays to the identical racy-key set under
    /// `ddrace_harness::replay`.
    ///
    /// # Errors
    ///
    /// Propagates scheduler errors (deadlock, sync misuse).
    pub fn run_recorded<W: Write>(
        &self,
        program: Program,
        writer: &mut TraceWriter<W>,
    ) -> Result<RunResult, ScheduleError> {
        let _span = ddrace_telemetry::span("sim.run");
        let mut state = SimState::new(&self.config);
        let schedule =
            Scheduler::new(program, self.config.scheduler).run(&mut |event: &TraceEvent| {
                writer.record_event(event);
                state.on_event(event);
            })?;
        Ok(state.into_result(schedule, self.config.mode.label()))
    }

    /// Starts a push-style trace replay: feed decoded events one at a
    /// time with [`TraceReplay::push`] and collect the [`RunResult`] with
    /// [`TraceReplay::finish`]. Events arrive by reference, so the
    /// streaming decoder can hand them out of reused buffers. The one
    /// caller is `ddrace_harness::replay`, the single entry point that
    /// turns a DDRT trace into a [`RunResult`].
    pub fn trace_replay(&self) -> TraceReplay<'static> {
        TraceReplay::new(SimState::new(&self.config), self.config.mode.label())
    }

    /// Like [`Simulation::trace_replay`], but the analysis runs through
    /// `detector` instead of the detector [`SimConfig::detector_kind`]
    /// names — the injection point for the parallel offline replay
    /// engine, which is a [`RaceDetector`] whose `on_access` enqueues
    /// work for a worker pool.
    ///
    /// Everything *outside* the detector — cache simulation, cost model,
    /// access counters — is computed by exactly the code the serial path
    /// runs, so two replays of one trace differ only in what the two
    /// detectors report. Only meaningful for tool-attached modes whose
    /// controllers ignore the per-access verdict (continuous analysis);
    /// demand modes read `AccessReport::shared`, which an asynchronous
    /// detector cannot answer inline.
    pub fn trace_replay_with_detector<'d>(
        &self,
        detector: &'d mut dyn RaceDetector,
    ) -> TraceReplay<'d> {
        let mut state = SimState::new(&self.config);
        state.detector = Some(Box::new(detector));
        TraceReplay::new(state, self.config.mode.label())
    }
}

/// An in-progress push-style trace replay; see
/// [`Simulation::trace_replay`]. Accepts events by reference so a
/// streaming decoder can reuse its buffers between pushes.
pub struct TraceReplay<'d> {
    state: SimState<'d>,
    mode_label: &'static str,
    replayed: u64,
    ops_executed: u64,
    per_thread_ops: Vec<u64>,
}

impl<'d> TraceReplay<'d> {
    fn new(state: SimState<'d>, mode_label: &'static str) -> TraceReplay<'d> {
        TraceReplay {
            state,
            mode_label,
            replayed: 0,
            ops_executed: 0,
            per_thread_ops: Vec::new(),
        }
    }

    /// Replays one recorded event.
    pub fn push(&mut self, event: &TraceEvent) {
        self.replayed += 1;
        if let TraceEvent::Op { tid, .. } = event {
            self.ops_executed += 1;
            if self.per_thread_ops.len() <= tid.index() {
                self.per_thread_ops.resize(tid.index() + 1, 0);
            }
            self.per_thread_ops[tid.index()] += 1;
        }
        self.state.on_event(event);
    }

    /// Seals the replay into a [`RunResult`] and emits the
    /// `ingest.events_replayed` telemetry counter.
    ///
    /// Scheduler-internal statistics that are not part of the event
    /// stream (blocks, context switches, handoffs) are reported as zero.
    pub fn finish(self) -> RunResult {
        ddrace_telemetry::counter("ingest.events_replayed", self.replayed);
        let schedule = ddrace_program::RunStats {
            ops_executed: self.ops_executed,
            per_thread_ops: self.per_thread_ops,
            ..ddrace_program::RunStats::default()
        };
        self.state.into_result(schedule, self.mode_label)
    }
}

impl std::fmt::Debug for TraceReplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReplay")
            .field("replayed", &self.replayed)
            .finish_non_exhaustive()
    }
}

/// Runs one program under `mode` with otherwise-default configuration —
/// the quickest way to try the system.
///
/// # Errors
///
/// Propagates scheduler errors.
pub fn run_program(
    program: Program,
    cores: usize,
    mode: AnalysisMode,
) -> Result<RunResult, ScheduleError> {
    Simulation::new(SimConfig::new(cores, mode)).run(program)
}

struct SimState<'s> {
    cores: usize,
    cost: CostModel,
    cache: CacheHierarchy,
    detector: Option<Box<dyn RaceDetector + 's>>,
    indicator: Option<SharingIndicator>,
    /// Demand mode only. One controller under [`EnableScope::Global`];
    /// one per core under [`EnableScope::PerCore`].
    controllers: Vec<DemandController>,
    scope: EnableScope,
    core_cycles: Vec<u64>,
    ops: OpCounts,
    accesses_total: u64,
    accesses_analyzed: u64,
    pmis: u64,
    enabled_cycles: u64,
    total_cycles: u64,
    timeline: Vec<ToggleEvent>,
}

impl<'s> SimState<'s> {
    fn new(config: &SimConfig) -> Self {
        let detector: Option<Box<dyn RaceDetector>> = if config.mode.tool_attached() {
            Some(match config.detector_kind {
                DetectorKind::FastTrack => Box::new(FastTrack::new(config.detector)),
                DetectorKind::Djit => Box::new(Djit::new(config.detector)),
                DetectorKind::LockSet => Box::new(LockSet::new(config.detector)),
            })
        } else {
            None
        };
        let (indicator, controllers, scope) = match config.mode {
            AnalysisMode::Demand {
                indicator,
                controller,
            } => {
                let n = match controller.scope {
                    EnableScope::Global => 1,
                    EnableScope::PerCore => config.cores,
                };
                (
                    Some(SharingIndicator::new(indicator, config.cores)),
                    (0..n).map(|_| DemandController::new(controller)).collect(),
                    controller.scope,
                )
            }
            _ => (None, Vec::new(), EnableScope::Global),
        };
        SimState {
            cores: config.cores,
            cost: config.cost,
            cache: CacheHierarchy::new(config.cache),
            detector,
            indicator,
            controllers,
            scope,
            core_cycles: vec![0; config.cores],
            ops: OpCounts::default(),
            accesses_total: 0,
            accesses_analyzed: 0,
            pmis: 0,
            enabled_cycles: 0,
            total_cycles: 0,
            timeline: Vec::new(),
        }
    }

    fn core_of(&self, tid: ThreadId) -> CoreId {
        CoreId((tid.index() % self.cores) as u32)
    }

    fn controller_index(&self, core: CoreId) -> usize {
        match self.scope {
            EnableScope::Global => 0,
            EnableScope::PerCore => core.index(),
        }
    }

    /// Continuous analysis is a detector without controllers; native
    /// execution has neither.
    fn analysis_on(&self, core: CoreId) -> bool {
        if self.controllers.is_empty() {
            return self.detector.is_some();
        }
        self.controllers[self.controller_index(core)].is_on()
    }

    /// Charges an analysis toggle (stop-the-world under global scope, one
    /// core under per-core scope) and records it on the timeline.
    fn toggle(&mut self, core: CoreId, kind: ToggleKind) {
        match self.scope {
            EnableScope::Global => {
                for c in &mut self.core_cycles {
                    *c += self.cost.toggle_cost;
                }
                self.total_cycles += self.cost.toggle_cost * self.cores as u64;
            }
            EnableScope::PerCore => {
                self.core_cycles[core.index()] += self.cost.toggle_cost;
                self.total_cycles += self.cost.toggle_cost;
            }
        }
        self.timeline.push(ToggleEvent {
            at_total_cycles: self.total_cycles,
            kind,
        });
    }

    fn charge(&mut self, core: CoreId, cycles: u64, analysis_was_on: bool) {
        self.core_cycles[core.index()] += cycles;
        self.total_cycles += cycles;
        if analysis_was_on {
            self.enabled_cycles += cycles;
        }
    }

    /// Feeds the hardware indicator with an access performed while
    /// analysis is off; handles a resulting PMI + enable. Returns the PMI
    /// cost to add to the op.
    fn feed_indicator(&mut self, core: CoreId, result: &AccessResult, kind: AccessKind) -> u64 {
        let Some(ind) = &mut self.indicator else {
            return 0;
        };
        let Some(signal) = ind.observe(core, result, kind) else {
            return 0;
        };
        self.pmis += 1;
        let idx = self.controller_index(signal.core);
        if self.controllers[idx].on_sharing_signal() {
            self.toggle(signal.core, ToggleKind::Enable);
        }
        u64::from(self.cost.pmi_cost)
    }

    /// The program's own cycles, which run translated under a tool.
    fn program_cycles(&self, base: u32) -> u64 {
        u64::from(match self.detector {
            Some(_) => self.cost.translated(base),
            None => base,
        })
    }

    /// Executes one op. Its memory word ([`Op::memory_word`]) goes through
    /// the cache; then a synchronization op reaches the detector always,
    /// a checked access only while analysis is on, and any access made
    /// while analysis is off feeds the sharing indicator. Fork/join cost
    /// thread-management cycles, which the tool does not translate.
    ///
    /// Kept out of line: inlined into the scheduler's and the trace
    /// replay's per-event loops, it made native-mode simulation of kmeans
    /// and word_count 13–21% slower on a 2-vCPU x86-64 host.
    #[inline(never)]
    fn handle_op(&mut self, tid: ThreadId, op: Op) {
        self.ops.record(&op);
        let core = self.core_of(tid);
        let analysis_on = self.analysis_on(core);
        let access = op
            .memory_word()
            .map(|(addr, kind)| (addr, kind, self.cache.access(core, addr, kind)));
        let mut cycles = match (&access, op) {
            (Some((_, _, result)), _) => self.program_cycles(result.latency),
            (None, Op::Compute { cycles }) => self.program_cycles(cycles),
            (None, _) => u64::from(self.cost.thread_mgmt_cost),
        };
        self.accesses_total += u64::from(access.is_some());

        match (&mut self.detector, access) {
            (Some(d), _) if op.is_sync() => {
                d.on_sync(tid, &op);
                cycles += u64::from(self.cost.analysis_per_sync);
            }
            (Some(d), Some((addr, kind, _))) if analysis_on => {
                let report = d.on_access(tid, addr, kind);
                self.accesses_analyzed += 1;
                cycles += u64::from(self.cost.analysis_per_access);
                if !self.controllers.is_empty() {
                    let idx = self.controller_index(core);
                    if self.controllers[idx].on_analyzed_access(report.shared) {
                        self.toggle(core, ToggleKind::Disable);
                    }
                }
            }
            _ => {}
        }
        if let (false, Some((_, kind, result))) = (analysis_on, access) {
            cycles += self.feed_indicator(core, &result, kind);
        }
        self.charge(core, cycles, analysis_on);
    }

    /// Flushes the run's headline counters into the ambient telemetry
    /// sink. Every value is a simulated (deterministic) quantity, so the
    /// harness can put them in its byte-reproducible aggregate. A no-op
    /// when no sink is installed (any non-campaign use of the simulator).
    fn emit_telemetry(&self) {
        use ddrace_telemetry::counter;
        counter("sim.cycles", self.total_cycles);
        counter("sim.cycles_enabled", self.enabled_cycles);
        counter("sim.accesses", self.accesses_total);
        counter("sim.accesses_analyzed", self.accesses_analyzed);
        counter("sim.pmis", self.pmis);
        let enables = self
            .timeline
            .iter()
            .filter(|e| e.kind == ToggleKind::Enable)
            .count() as u64;
        counter("sim.enables", enables);
        counter("sim.disables", self.timeline.len() as u64 - enables);
        counter("cache.hitm_loads", self.cache.stats().total_hitm_loads());
        counter("cache.rfo_hitms", self.cache.stats().total_rfo_hitms());
        if let Some(d) = &self.detector {
            d.stats().emit_telemetry();
        }
    }

    fn into_result(self, schedule: ddrace_program::RunStats, mode: &str) -> RunResult {
        self.emit_telemetry();
        // Scheduler counters are deterministic too; emitted here because
        // the run stats only arrive when the schedule completes.
        {
            use ddrace_telemetry::counter;
            counter("sched.ops", schedule.ops_executed);
            counter("sched.context_switches", schedule.context_switches);
            counter("sched.blocks", schedule.blocks);
            counter("sched.lock_handoffs", schedule.lock_handoffs);
            counter("sched.barrier_episodes", schedule.barrier_episodes);
        }
        let races = match &self.detector {
            Some(d) => {
                let set = d.reports();
                RaceSummary {
                    distinct: set.distinct(),
                    distinct_addresses: set.distinct_addresses(),
                    occurrences: set.total_occurrences(),
                    reports: set.reports().to_vec(),
                    report_occurrences: set.occurrences().to_vec(),
                }
            }
            None => RaceSummary::default(),
        };
        RunResult {
            mode: mode.to_string(),
            makespan: self.core_cycles.iter().copied().max().unwrap_or(0),
            core_cycles: self.core_cycles,
            races,
            cache: self.cache.stats().clone(),
            detector: self.detector.as_ref().map(|d| d.stats()),
            controller: (!self.controllers.is_empty()).then(|| {
                self.controllers.iter().map(DemandController::stats).fold(
                    ControllerStats::default(),
                    |mut acc, s| {
                        acc.enables += s.enables;
                        acc.disables += s.disables;
                        acc.redundant_signals += s.redundant_signals;
                        acc
                    },
                )
            }),
            schedule,
            ops: self.ops,
            accesses_total: self.accesses_total,
            accesses_analyzed: self.accesses_analyzed,
            pmis: self.pmis,
            enabled_cycles: self.enabled_cycles,
            total_cycles: self.total_cycles,
            timeline: self.timeline,
        }
    }
}

impl ExecutionListener for SimState<'_> {
    fn on_event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::ThreadStarted { tid, parent } => {
                if let Some(d) = &mut self.detector {
                    d.on_thread_start(*tid, *parent);
                }
            }
            TraceEvent::ThreadFinished { tid } => {
                if let Some(d) = &mut self.detector {
                    d.on_thread_finish(*tid);
                }
            }
            TraceEvent::BarrierReleased {
                barrier,
                participants,
            } => {
                if let Some(d) = &mut self.detector {
                    d.on_barrier_release(*barrier, participants);
                }
            }
            TraceEvent::Op { tid, op } => self.handle_op(*tid, *op),
        }
    }
}

impl std::fmt::Debug for SimState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimState")
            .field("cores", &self.cores)
            .field("tool_attached", &self.detector.is_some())
            .field("accesses_total", &self.accesses_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::ControllerConfig;
    use ddrace_pmu::IndicatorMode;
    use ddrace_program::ProgramBuilder;

    /// A program where two unsynchronized threads share one word heavily
    /// after a long private phase.
    fn racy_program(private_ops: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let shared = b.alloc_shared(8).base();
        let t1 = b.add_thread();
        let priv0 = b.alloc_private(ThreadId::MAIN, 4096);
        let priv1 = b.alloc_private(t1, 4096);
        let mut main = b.on(ThreadId::MAIN).fork(t1);
        for i in 0..private_ops {
            main = main.write(priv0.index(i as u64 * 8));
        }
        // Write→read sharing: the pattern the HITM load event can see.
        // (Write-only W→W sharing is the indicator's documented blind
        // spot; see the pmu crate.)
        for _ in 0..50 {
            main = main.write(shared).read(shared);
        }
        let main = main.join(t1);
        let _ = main;
        let mut w = b.on(t1);
        for i in 0..private_ops {
            w = w.write(priv1.index(i as u64 * 8));
        }
        for _ in 0..50 {
            w = w.write(shared).read(shared);
        }
        let _ = w;
        b.build()
    }

    /// A fully private program: each thread only touches its own region.
    fn private_program(ops: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let t1 = b.add_thread();
        let priv0 = b.alloc_private(ThreadId::MAIN, 65536);
        let priv1 = b.alloc_private(t1, 65536);
        let mut main = b.on(ThreadId::MAIN).fork(t1);
        for i in 0..ops {
            main = main
                .write(priv0.index(i as u64 * 8))
                .read(priv0.index(i as u64 * 8));
        }
        let main = main.join(t1);
        let _ = main;
        let mut w = b.on(t1);
        for i in 0..ops {
            w = w
                .write(priv1.index(i as u64 * 8))
                .read(priv1.index(i as u64 * 8));
        }
        let _ = w;
        b.build()
    }

    #[test]
    fn native_mode_runs_without_detector() {
        let r = run_program(private_program(100), 2, AnalysisMode::Native).unwrap();
        assert_eq!(r.races.distinct, 0);
        assert!(r.detector.is_none());
        assert_eq!(r.accesses_analyzed, 0);
        assert!(r.makespan > 0);
        assert_eq!(r.mode, "native");
    }

    #[test]
    fn continuous_analyzes_every_data_access() {
        let r = run_program(private_program(100), 2, AnalysisMode::Continuous).unwrap();
        assert_eq!(r.accesses_analyzed, 400); // 2 threads × 100 × (w+r)
        assert!(r.detector.is_some());
        assert_eq!(r.races.distinct, 0);
    }

    #[test]
    fn continuous_is_much_slower_than_native() {
        let native = run_program(private_program(500), 2, AnalysisMode::Native).unwrap();
        let cont = run_program(private_program(500), 2, AnalysisMode::Continuous).unwrap();
        let slowdown = cont.slowdown_vs(&native);
        assert!(slowdown > 10.0, "continuous slowdown {slowdown} too small");
    }

    #[test]
    fn demand_on_private_program_stays_off_and_is_fast() {
        let native = run_program(private_program(500), 2, AnalysisMode::Native).unwrap();
        let demand = run_program(private_program(500), 2, AnalysisMode::demand_hitm()).unwrap();
        let cont = run_program(private_program(500), 2, AnalysisMode::Continuous).unwrap();
        assert_eq!(
            demand.accesses_analyzed, 0,
            "no sharing, analysis never enables"
        );
        assert!(demand.slowdown_vs(&native) < 2.0);
        assert!(demand.speedup_over(&cont) > 5.0);
        assert_eq!(demand.controller.unwrap().enables, 0);
    }

    #[test]
    fn demand_hitm_finds_the_race() {
        let r = run_program(racy_program(200), 2, AnalysisMode::demand_hitm()).unwrap();
        assert!(
            r.races.distinct >= 1,
            "demand-driven analysis must catch the hot race"
        );
        assert!(r.controller.unwrap().enables >= 1);
        assert!(r.pmis >= 1);
        assert!(r.accesses_analyzed > 0);
        assert!(r.accesses_analyzed < r.accesses_total);
    }

    #[test]
    fn demand_oracle_finds_the_race() {
        let r = run_program(racy_program(200), 2, AnalysisMode::demand_oracle()).unwrap();
        assert!(r.races.distinct >= 1);
    }

    #[test]
    fn continuous_finds_the_race() {
        let r = run_program(racy_program(200), 2, AnalysisMode::Continuous).unwrap();
        assert!(r.races.distinct >= 1);
    }

    #[test]
    fn demand_is_faster_than_continuous_on_racy_program_with_private_phase() {
        let cont = run_program(racy_program(2_000), 2, AnalysisMode::Continuous).unwrap();
        let demand = run_program(racy_program(2_000), 2, AnalysisMode::demand_hitm()).unwrap();
        assert!(
            demand.speedup_over(&cont) > 1.5,
            "long private phase must be skipped"
        );
    }

    #[test]
    fn schedules_are_identical_across_modes() {
        // The op counts and scheduler stats must match exactly between
        // modes; only costs differ.
        let a = run_program(racy_program(300), 2, AnalysisMode::Native).unwrap();
        let b = run_program(racy_program(300), 2, AnalysisMode::Continuous).unwrap();
        let c = run_program(racy_program(300), 2, AnalysisMode::demand_hitm()).unwrap();
        assert_eq!(a.ops, b.ops);
        assert_eq!(b.ops, c.ops);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(b.schedule, c.schedule);
    }

    #[test]
    fn demand_disabled_indicator_never_enables() {
        let mode = AnalysisMode::Demand {
            indicator: IndicatorMode::Disabled,
            controller: ControllerConfig::default(),
        };
        let r = run_program(racy_program(100), 2, mode).unwrap();
        assert_eq!(r.accesses_analyzed, 0);
        assert_eq!(r.races.distinct, 0);
        assert_eq!(r.pmis, 0);
    }

    #[test]
    fn enabled_fraction_between_zero_and_one() {
        let r = run_program(racy_program(500), 2, AnalysisMode::demand_hitm()).unwrap();
        let f = r.enabled_cycle_fraction();
        assert!(f > 0.0 && f < 1.0, "fraction {f} out of range");
        let cont = run_program(racy_program(500), 2, AnalysisMode::Continuous).unwrap();
        assert!(cont.enabled_cycle_fraction() > 0.99);
    }

    #[test]
    fn lockset_detector_kind_runs() {
        let mut cfg = SimConfig::new(2, AnalysisMode::Continuous);
        cfg.detector_kind = DetectorKind::LockSet;
        let r = Simulation::new(cfg).run(racy_program(50)).unwrap();
        assert!(r.races.distinct >= 1);
    }

    #[test]
    fn djit_detector_kind_runs() {
        let mut cfg = SimConfig::new(2, AnalysisMode::Continuous);
        cfg.detector_kind = DetectorKind::Djit;
        let r = Simulation::new(cfg).run(racy_program(50)).unwrap();
        assert!(r.races.distinct >= 1);
    }

    #[test]
    fn per_core_scope_runs_and_detects() {
        use crate::mode::EnableScope;
        let mode = AnalysisMode::Demand {
            indicator: IndicatorMode::hitm_default(),
            controller: ControllerConfig {
                scope: EnableScope::PerCore,
                ..ControllerConfig::default()
            },
        };
        let r = run_program(racy_program(200), 2, mode).unwrap();
        assert!(
            r.controller.unwrap().enables >= 1,
            "the HITM side must wake"
        );
        let global = run_program(racy_program(200), 2, AnalysisMode::demand_hitm()).unwrap();
        assert_eq!(r.ops, global.ops, "same schedule");
        // The documented coverage trade-off: per-core enabling only wakes
        // the interrupted (consumer) core, so it can observe strictly
        // fewer accesses — and therefore at most as many races — as
        // global enabling on the same schedule.
        assert!(r.accesses_analyzed <= global.accesses_analyzed);
        assert!(r.races.distinct <= global.races.distinct);
        assert!(
            global.races.distinct >= 1,
            "global scope catches the hot race"
        );
    }

    #[test]
    fn co_scheduled_threads_blind_the_indicator() {
        // All threads on one core: no coherence traffic, no HITM, no
        // demand-mode detection — while continuous still sees the race.
        let demand = run_program(racy_program(100), 1, AnalysisMode::demand_hitm()).unwrap();
        assert_eq!(demand.cache.total_hitm_loads(), 0);
        assert_eq!(demand.races.distinct, 0);
        assert_eq!(demand.pmis, 0);
        let cont = run_program(racy_program(100), 1, AnalysisMode::Continuous).unwrap();
        assert!(cont.races.distinct >= 1);
    }

    #[test]
    fn timeline_matches_controller_transitions() {
        let r = run_program(racy_program(500), 2, AnalysisMode::demand_hitm()).unwrap();
        let ctrl = r.controller.unwrap();
        let enables = r
            .timeline
            .iter()
            .filter(|e| e.kind == crate::timeline::ToggleKind::Enable)
            .count() as u64;
        let disables = r
            .timeline
            .iter()
            .filter(|e| e.kind == crate::timeline::ToggleKind::Disable)
            .count() as u64;
        assert_eq!(enables, ctrl.enables);
        assert_eq!(disables, ctrl.disables);
        // Timestamps are monotone.
        assert!(r
            .timeline
            .windows(2)
            .all(|w| w[0].at_total_cycles <= w[1].at_total_cycles));
        // And the rendered strip has the right width.
        assert_eq!(crate::timeline::result_timeline(&r, 40).len(), 40);
    }

    #[test]
    fn more_threads_than_cores_is_fine() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let shared = b.alloc_shared(64);
        let mut tids = vec![ThreadId::MAIN];
        for _ in 1..6 {
            tids.push(b.add_thread());
        }
        for (i, &t) in tids.iter().enumerate() {
            b.on(t)
                .write(shared.index(i as u64 * 8))
                .read(shared.index(0));
        }
        let r = run_program(b.build(), 2, AnalysisMode::Continuous).unwrap();
        assert_eq!(r.core_cycles.len(), 2);
        assert!(r.makespan > 0);
    }
}
