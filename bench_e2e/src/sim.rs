//! The simulator pipeline: `Simulation::run` timed from outside, and the
//! traced re-composition of its layers over the recorded event stream.

use crate::stats::{timed, Probe};
use crate::workload::Input;
use ddrace_cache::{CacheHierarchy, CoreId};
use ddrace_core::{AnalysisMode, DemandController, RunResult, Simulation};
use ddrace_detector::{FastTrack, RaceDetector};
use ddrace_pmu::SharingIndicator;
use ddrace_program::{
    AccessKind, Addr, AddressSpace, NullListener, Op, Scheduler, ThreadId, TraceEvent,
};
use ddrace_trace::decode_events_into;

/// The three modes of the paper's comparison, in run order.
pub fn modes() -> [(&'static str, AnalysisMode); 3] {
    [
        ("native", AnalysisMode::Native),
        ("continuous", AnalysisMode::Continuous),
        ("demand", AnalysisMode::demand_hitm()),
    ]
}

/// One untraced `Simulation::run`: wall nanoseconds and the result.
pub fn run(input: &Input, mode: AnalysisMode) -> (f64, RunResult) {
    let sim = Simulation::new(input.sim_config(mode));
    let (ns, result) = timed(|| sim.run(input.program()));
    (
        ns,
        result.expect("benchmark workloads schedule without error"),
    )
}

/// Wall nanoseconds of the scheduler alone: program generation plus
/// interleaving, with a listener that does nothing.
pub fn schedule_only(input: &Input) -> f64 {
    let cfg = input.sim_config(AnalysisMode::Native);
    let (ns, stats) = timed(|| {
        Scheduler::new(input.program(), cfg.scheduler)
            .with_pick_strategy(cfg.pick_strategy)
            .run(&mut NullListener)
    });
    stats.expect("benchmark workloads schedule without error");
    ns
}

/// Sampled spans around each layer of one re-composed run.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerProbes<const ON: bool> {
    pub cache: Probe<ON>,
    pub pmu: Probe<ON>,
    pub controller: Probe<ON>,
    pub check: Probe<ON>,
    pub sync: Probe<ON>,
}

/// The counters a re-composition must reproduce from `Simulation::run`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub accesses_total: u64,
    pub accesses_analyzed: u64,
    pub pmis: u64,
    pub enables: u64,
    pub distinct_races: usize,
}

impl Counters {
    pub fn of(result: &RunResult) -> Counters {
        Counters {
            accesses_total: result.accesses_total,
            accesses_analyzed: result.accesses_analyzed,
            pmis: result.pmis,
            enables: result.controller.map_or(0, |c| c.enables),
            distinct_races: result.races.distinct,
        }
    }
}

/// The simulator's layers wired the way `Simulation::run` wires them,
/// with a probe around each call into a layer.
struct Composer<const ON: bool> {
    cores: usize,
    continuous: bool,
    cache: CacheHierarchy,
    detector: Option<FastTrack>,
    indicator: Option<SharingIndicator>,
    controller: Option<DemandController>,
    n: Counters,
    p: LayerProbes<ON>,
}

impl<const ON: bool> Composer<ON> {
    fn analysis_on(&self) -> bool {
        self.continuous
            || self
                .controller
                .as_ref()
                .is_some_and(DemandController::is_on)
    }

    /// A memory access: a data access when `sync` is `None`, otherwise
    /// the backing-word access of that synchronization op.
    fn access(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind, sync: Option<&Op>) {
        let core = CoreId((tid.index() % self.cores) as u32);
        let on = self.analysis_on();
        let cache = &mut self.cache;
        let result = self.p.cache.time(|| cache.access(core, addr, kind));
        self.n.accesses_total += 1;
        match (sync, &mut self.detector) {
            (Some(op), Some(d)) => self.p.sync.time(|| d.on_sync(tid, op)),
            (None, Some(d)) if on => {
                let report = self.p.check.time(|| d.on_access(tid, addr, kind));
                self.n.accesses_analyzed += 1;
                if let Some(c) = &mut self.controller {
                    self.p
                        .controller
                        .time(|| c.on_analyzed_access(report.shared));
                }
                return;
            }
            _ => {}
        }
        if on {
            return;
        }
        if let (Some(ind), Some(c)) = (&mut self.indicator, &mut self.controller) {
            if self
                .p
                .pmu
                .time(|| ind.observe(core, &result, kind))
                .is_some()
            {
                self.n.pmis += 1;
                self.p.controller.time(|| c.on_sharing_signal());
            }
        }
    }

    /// A detector callback with no memory access (thread lifecycle,
    /// fork/join, barrier release).
    fn detector_sync(&mut self, f: impl FnOnce(&mut FastTrack)) {
        if let Some(d) = &mut self.detector {
            self.p.sync.time(|| f(d));
        }
    }

    fn event(&mut self, event: &TraceEvent) {
        let (tid, op) = match event {
            TraceEvent::ThreadStarted { tid, parent } => {
                return self.detector_sync(|d| d.on_thread_start(*tid, *parent))
            }
            TraceEvent::ThreadFinished { tid } => {
                return self.detector_sync(|d| d.on_thread_finish(*tid))
            }
            TraceEvent::BarrierReleased {
                barrier,
                participants,
            } => return self.detector_sync(|d| d.on_barrier_release(*barrier, participants)),
            TraceEvent::Op { tid, op } => (*tid, op),
        };
        // The op → (address, access kind) mapping of the simulator's
        // `SimState::handle_op`.
        let (addr, kind, sync) = match *op {
            Op::Compute { .. } => return,
            Op::Fork { .. } | Op::Join { .. } => return self.detector_sync(|d| d.on_sync(tid, op)),
            Op::Read { addr } => (addr, AccessKind::Read, None),
            Op::Write { addr } => (addr, AccessKind::Write, None),
            Op::RelaxedLoad { addr } => (addr, AccessKind::RelaxedLoad, None),
            Op::RelaxedStore { addr } => (addr, AccessKind::RelaxedStore, None),
            Op::RelaxedRmw { addr } => (addr, AccessKind::RelaxedRmw, None),
            Op::AtomicRmw { addr } => (addr, AccessKind::AtomicRmw, Some(op)),
            Op::AtomicLoad { addr } => (addr, AccessKind::Read, Some(op)),
            Op::AtomicStore { addr } => (addr, AccessKind::Write, Some(op)),
            Op::Lock { lock } => (
                AddressSpace::lock_addr(lock),
                AccessKind::AtomicRmw,
                Some(op),
            ),
            Op::Unlock { lock } => (AddressSpace::lock_addr(lock), AccessKind::Write, Some(op)),
            Op::Barrier { barrier, .. } => (
                AddressSpace::barrier_addr(barrier),
                AccessKind::AtomicRmw,
                Some(op),
            ),
            Op::Post { sem } | Op::WaitSem { sem } => {
                (AddressSpace::sem_addr(sem), AccessKind::AtomicRmw, Some(op))
            }
            Op::CondWait { cond, .. }
            | Op::CondWake { cond, .. }
            | Op::NotifyOne { cond }
            | Op::NotifyAll { cond } => (
                AddressSpace::cond_addr(cond),
                AccessKind::AtomicRmw,
                Some(op),
            ),
        };
        self.access(tid, addr, kind, sync);
    }
}

/// Replays the recorded stream through the simulator's layers in the
/// order `Simulation::run` calls them — cache → indicator/controller →
/// detector. Cost accounting, listener dispatch and the scheduler are
/// left out: the ledger reports them as glue and schedule.
pub fn recompose<const ON: bool>(
    input: &Input,
    mode: AnalysisMode,
    trace: &[u8],
) -> (Counters, LayerProbes<ON>) {
    let cfg = input.sim_config(mode);
    let (indicator, controller) = match mode {
        AnalysisMode::Demand {
            indicator,
            controller,
        } => (
            Some(SharingIndicator::new(indicator, cfg.cores)),
            Some(DemandController::new(controller)),
        ),
        _ => (None, None),
    };
    let mut c = Composer::<ON> {
        cores: cfg.cores,
        continuous: matches!(mode, AnalysisMode::Continuous),
        cache: CacheHierarchy::new(cfg.cache),
        detector: mode.tool_attached().then(|| FastTrack::new(cfg.detector)),
        indicator,
        controller,
        n: Counters::default(),
        p: LayerProbes::default(),
    };
    decode_events_into(trace, |event| c.event(event))
        .expect("the benchmark's own recorded trace decodes");
    c.n.enables = c.controller.map_or(0, |ctl| ctl.stats().enables);
    c.n.distinct_races = c.detector.as_ref().map_or(0, |d| d.reports().distinct());
    (c.n, c.p)
}
