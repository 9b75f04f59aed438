//! The hardware-driven demand toggle: the paper's control loop on real
//! threads.
//!
//! [`PmuToggle`] runs the simulator's [`DemandController`] on a thread
//! that polls the [`Monitor`]. Each poll drains sampling overflows from
//! per-thread counter backends ([`ddrace_pmu::backend`]); an overflow is
//! a sharing signal that `enable()`s a disabled monitor. While analysis
//! is on, each poll also hands the controller the checks made since the
//! last poll and whether any was `shared`, and the controller
//! `disable()`s the monitor after `cooldown_accesses` checks in a row
//! without sharing.
//!
//! A poll interval with any shared check restarts the quiet streak at
//! its end, so the monitor disables at or after the point the per-access
//! rule would, never before it (up to checks that race one poll's sum
//! over the shards). Checks made while analysis is off are dropped, and
//! an enabled monitor that checks nothing stays on.
//!
//! The backends come from [`open_backend`]'s fallback ladder, so the
//! toggle works identically whether the host has real HITM counters, a
//! degraded generic event, or only the deterministic simulator (whose
//! feeders tests drive by hand). Detection *results* never depend on
//! which backend fired — the monitor's detector sees the same accesses
//! either way; only when the enabled windows open is hardware-driven,
//! which is exactly the paper's accuracy-for-overhead trade.

use crate::Monitor;
use ddrace_core::{ControllerConfig, DemandController};
use ddrace_pmu::backend::{open_backend, BackendConfig, BackendKind, OverflowSample, PmuBackend};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for the demand-driven toggle loop. The disable rule is the
/// simulator's, at [`ControllerConfig::default`].
#[derive(Debug, Clone, Copy)]
pub struct ToggleConfig {
    /// Sample-after value for counters opened by
    /// [`PmuToggle::register_current_thread`].
    pub period: u64,
    /// Controller poll interval: bounds the enable latency, and is the
    /// granularity at which checked accesses reach the controller.
    pub poll_interval: Duration,
}

impl Default for ToggleConfig {
    fn default() -> Self {
        ToggleConfig {
            // The paper samples aggressively (sample-after 1 on HITM);
            // 1000 is a safer default for generic fallback events,
            // which fire far more often than true HITMs.
            period: 1000,
            poll_interval: Duration::from_micros(500),
        }
    }
}

/// What the toggle did over its lifetime, for telemetry and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ToggleStats {
    /// Overflow samples drained across all registered backends.
    pub overflows: u64,
    /// Samples the backends reported lost (ring overwrite, suppression).
    pub lost: u64,
    /// `Monitor::enable()` transitions: overflows that found analysis
    /// off.
    pub enables: u64,
    /// `Monitor::disable()` transitions: `cooldown_accesses` checks in a
    /// row without sharing.
    pub disables: u64,
    /// Backends registered, by kind.
    pub sim_backends: u64,
    /// Hardware (`perf_event_open`) backends registered.
    pub perf_backends: u64,
    /// Worst multiplexing ratio observed across final reads, in
    /// permille of enabled time (1000 = counters always ran).
    pub min_scale_ratio_permille: u64,
}

#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    backends: Mutex<Vec<Box<dyn PmuBackend>>>,
    overflows: AtomicU64,
    lost: AtomicU64,
    controller: Mutex<DemandController>,
}

/// A demand-driven monitor toggle fed by counter backends and by the
/// monitor's own sharing verdicts.
///
/// Created with [`attach`](PmuToggle::attach), which puts the monitor in
/// demand mode (disabled until a counter fires). Threads register their
/// own counters with
/// [`register_current_thread`](PmuToggle::register_current_thread) (or
/// tests inject pre-built backends with
/// [`register_backend`](PmuToggle::register_backend));
/// [`detach`](PmuToggle::detach) stops the controller and reports stats.
/// Dropping the toggle, detached or not, re-enables the monitor.
#[derive(Debug)]
pub struct PmuToggle {
    shared: Arc<Shared>,
    monitor: Arc<Monitor>,
    period: u64,
    controller: Option<JoinHandle<()>>,
}

impl PmuToggle {
    /// Starts the toggle on `monitor`: disables it (demand mode) and
    /// spawns the controller thread that will re-enable it on demand.
    pub fn attach(monitor: Arc<Monitor>, config: ToggleConfig) -> PmuToggle {
        monitor.disable();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            backends: Mutex::new(Vec::new()),
            overflows: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            controller: Mutex::new(DemandController::new(ControllerConfig::default())),
        });
        let controller = {
            let shared = Arc::clone(&shared);
            let monitor = Arc::clone(&monitor);
            std::thread::Builder::new()
                .name("ddrace-pmu-toggle".into())
                .spawn(move || controller_loop(&shared, &monitor, config.poll_interval))
                .expect("spawn pmu toggle controller")
        };
        PmuToggle {
            shared,
            monitor,
            period: config.period,
            controller: Some(controller),
        }
    }

    /// Opens a counter for the *calling* thread through the backend
    /// fallback ladder, with the `period` given to
    /// [`attach`](PmuToggle::attach), enables it, and hands it to the
    /// controller. Returns the kind selected and the fallback reason, if
    /// any.
    ///
    /// Call from each worker thread after it starts: `perf_event_open`
    /// with `pid = 0` binds the counter to the calling thread, so the
    /// open must happen on the thread being measured.
    pub fn register_current_thread(&self) -> (BackendKind, Option<String>) {
        let selection = open_backend(BackendConfig::hitm_sampling(self.period));
        let kind = selection.backend.kind();
        let reason = selection.fallback.as_ref().map(|e| e.to_string());
        self.register_backend(selection.backend);
        (kind, reason)
    }

    /// Registers a pre-built backend (tests drive [`SimPmu`] feeders
    /// through this). The backend is enabled before the controller sees
    /// it.
    ///
    /// [`SimPmu`]: ddrace_pmu::backend::SimPmu
    pub fn register_backend(&self, mut backend: Box<dyn PmuBackend>) {
        // Enable failures are not fatal: the backend stays registered
        // and simply never fires, and detach's stats expose the silence.
        let _ = backend.enable();
        self.shared.backends.lock().unwrap().push(backend);
    }

    /// Snapshot of the toggle counters so far (backend kinds and scale
    /// ratios are only known at [`detach`](PmuToggle::detach)).
    pub fn stats(&self) -> ToggleStats {
        let controller = self.shared.controller.lock().unwrap().stats();
        ToggleStats {
            overflows: self.shared.overflows.load(Ordering::Relaxed),
            lost: self.shared.lost.load(Ordering::Relaxed),
            enables: controller.enables,
            disables: controller.disables,
            ..ToggleStats::default()
        }
    }

    /// Stops the controller, emits `pmu.*` telemetry on the calling
    /// thread, and returns the final stats. The monitor is left enabled
    /// (continuous mode) as the toggle drops.
    pub fn detach(mut self) -> ToggleStats {
        self.stop();
        let mut stats = self.stats();

        // Final sweep: read each backend for multiplexing metadata and
        // drain any overflow delivered after the controller stopped.
        let mut backends = self.shared.backends.lock().unwrap();
        let mut min_ratio = 1000u64;
        let mut tail = Vec::new();
        for backend in backends.iter_mut() {
            match backend.kind() {
                BackendKind::Sim => stats.sim_backends += 1,
                BackendKind::LinuxPerf => stats.perf_backends += 1,
            }
            let _ = backend.disable();
            if let Ok(reading) = backend.read() {
                min_ratio = min_ratio.min(reading.ratio_permille());
            }
            if let Ok(lost) = backend.drain(&mut tail) {
                stats.lost += lost;
            }
        }
        stats.overflows += tail.len() as u64;
        stats.min_scale_ratio_permille = min_ratio;
        drop(backends);

        ddrace_telemetry::counter("pmu.overflows", stats.overflows);
        ddrace_telemetry::counter("pmu.lost", stats.lost);
        ddrace_telemetry::counter("pmu.enables", stats.enables);
        ddrace_telemetry::counter("pmu.disables", stats.disables);
        ddrace_telemetry::counter("pmu.backend.sim", stats.sim_backends);
        ddrace_telemetry::counter("pmu.backend.linux_perf", stats.perf_backends);
        ddrace_telemetry::gauge("pmu.scaled_ratio_permille", stats.min_scale_ratio_permille);
        stats
    }

    /// Stops the controller thread and waits for its final drain.
    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.controller.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PmuToggle {
    fn drop(&mut self) {
        self.stop();
        // Detached or dropped, the toggle must not leave the monitor
        // stuck in the disabled state.
        self.monitor.enable();
    }
}

fn controller_loop(shared: &Shared, monitor: &Monitor, poll_interval: Duration) {
    let mut samples: Vec<OverflowSample> = Vec::new();
    let mut baseline = monitor.engine.checked_and_shared();
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        samples.clear();
        {
            let mut backends = shared.backends.lock().unwrap();
            for backend in backends.iter_mut() {
                if let Ok(lost) = backend.drain(&mut samples) {
                    shared.lost.fetch_add(lost, Ordering::Relaxed);
                }
            }
        }
        shared
            .overflows
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        let (checked, shared_checks) = monitor.engine.checked_and_shared();
        {
            let mut controller = shared.controller.lock().unwrap();
            if controller.is_on()
                && controller.on_analyzed_accesses(checked - baseline.0, shared_checks > baseline.1)
            {
                monitor.disable();
            }
            if !samples.is_empty() && controller.on_sharing_signal() {
                monitor.enable();
            }
        }
        // A fresh baseline at every poll: checks still in flight after a
        // disable fall into an interval the controller never sees.
        baseline = (checked, shared_checks);
        if stopping {
            // One final drain pass ran above; deliver-then-exit so no
            // overflow produced before stop() is silently dropped.
            return;
        }
        std::thread::sleep(poll_interval);
    }
}
