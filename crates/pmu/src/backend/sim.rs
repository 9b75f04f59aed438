//! The simulator backend: deterministic counters behind the
//! [`PmuBackend`] contract.

use super::{
    BackendConfig, BackendError, BackendKind, CounterReading, HwEvent, OverflowSample, PmuBackend,
};
use crate::counter::{Counter, CounterConfig};
use crate::event::PmuEventKind;
use std::sync::{Arc, Mutex};

/// Default skid (in injected accesses) for the simulator backend,
/// matching [`IndicatorMode::hitm_default`](crate::IndicatorMode::hitm_default).
const SIM_SKID: u32 = 20;

fn sim_event(event: HwEvent) -> PmuEventKind {
    match event {
        HwEvent::Hitm => PmuEventKind::HitmLoad,
        HwEvent::CacheMisses => PmuEventKind::LlcMiss,
        HwEvent::TaskClock => PmuEventKind::Accesses,
    }
}

#[derive(Debug)]
struct SimState {
    counter: Counter,
    /// Logical clock: one tick per injected access.
    ticks: u64,
    overflows: Vec<OverflowSample>,
}

impl SimState {
    /// Records a delivered overflow at the current logical time (which,
    /// for skidded deliveries, already sits `skid` ticks past the
    /// threshold crossing — same imprecision a real PMI has).
    fn push_overflow(&mut self) {
        self.overflows.push(OverflowSample {
            ip: 0,
            tid: 0,
            time_ns: self.ticks,
        });
    }
}

/// The deterministic simulator implementation of [`PmuBackend`].
///
/// Counts nothing on its own: events are injected through a
/// [`SimFeeder`] (by tests, or by simulator glue that forwards
/// cache-model events). Overflow delivery reuses the crate's
/// [`Counter`] machinery — period, skid, and the suppressed-overflow
/// accounting all behave exactly as in the simulated
/// [`SharingIndicator`](crate::SharingIndicator).
#[derive(Debug)]
pub struct SimPmu {
    state: Arc<Mutex<SimState>>,
    config: BackendConfig,
    /// Suppressed-overflow count already reported through `drain`.
    reported_suppressed: u64,
}

impl SimPmu {
    /// Creates a simulator backend for `config`. The counter starts
    /// enabled, mirroring a freshly opened (non-disabled) perf event.
    pub fn new(config: BackendConfig) -> Self {
        let event = sim_event(config.event);
        let counter_config = match config.period {
            // The period is validated where user input enters the
            // system (CounterConfig::sampling, the CLI); a zero here is
            // a caller bug, and clamping keeps the factory infallible.
            Some(period) => CounterConfig::sampling(event, period.max(1), SIM_SKID)
                .expect("period clamped to ≥ 1"),
            None => CounterConfig::counting(event),
        };
        SimPmu {
            state: Arc::new(Mutex::new(SimState {
                counter: Counter::new(counter_config),
                ticks: 0,
                overflows: Vec::new(),
            })),
            config,
            reported_suppressed: 0,
        }
    }

    /// A handle for injecting events into this backend. Any number of
    /// feeders may exist; injection is serialized by an internal lock.
    pub fn feeder(&self) -> SimFeeder {
        SimFeeder {
            state: Arc::clone(&self.state),
        }
    }
}

impl PmuBackend for SimPmu {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn event_name(&self) -> String {
        sim_event(self.config.event).to_string()
    }

    fn enable(&mut self) -> Result<(), BackendError> {
        self.state.lock().unwrap().counter.set_enabled(true);
        Ok(())
    }

    fn disable(&mut self) -> Result<(), BackendError> {
        self.state.lock().unwrap().counter.set_enabled(false);
        Ok(())
    }

    fn reset(&mut self) -> Result<(), BackendError> {
        self.state.lock().unwrap().counter.reset();
        Ok(())
    }

    fn read(&mut self) -> Result<CounterReading, BackendError> {
        let state = self.state.lock().unwrap();
        // The simulator is never multiplexed: it "ran" for every tick it
        // was enabled, so scaling is the identity.
        Ok(CounterReading {
            value: state.counter.value(),
            time_enabled_ns: state.ticks,
            time_running_ns: state.ticks,
        })
    }

    fn drain(&mut self, out: &mut Vec<OverflowSample>) -> Result<u64, BackendError> {
        if self.config.period.is_none() {
            return Err(BackendError::NotSampling);
        }
        let mut state = self.state.lock().unwrap();
        out.append(&mut state.overflows);
        // The simulator's only loss channel is suppression (disable or
        // reset with a skid countdown in flight), already tallied by the
        // counter; report it as this window's loss by delta.
        let suppressed = state.counter.suppressed_overflows();
        let lost = suppressed - self.reported_suppressed;
        self.reported_suppressed = suppressed;
        Ok(lost)
    }
}

/// Injection handle for a [`SimPmu`] — how tests (and simulator glue)
/// feed events into a backend owned elsewhere, e.g. by a sampling loop.
#[derive(Debug, Clone)]
pub struct SimFeeder {
    state: Arc<Mutex<SimState>>,
}

impl SimFeeder {
    /// Feeds one retired access carrying `events` occurrences of the
    /// counted event; advances skid countdowns exactly like
    /// [`SharingIndicator::observe`](crate::SharingIndicator::observe).
    pub fn inject(&self, events: u64) {
        let mut state = self.state.lock().unwrap();
        state.ticks += 1;
        if state.counter.observe(events).is_some() {
            state.push_overflow();
        }
        if state.counter.retire().is_some() {
            state.push_overflow();
        }
    }

    /// Current counter value (test convenience).
    pub fn value(&self) -> u64 {
        self.state.lock().unwrap().counter.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_backend_counts_and_overflows() {
        let mut backend = SimPmu::new(BackendConfig {
            event: HwEvent::Hitm,
            period: Some(2),
        });
        let feeder = backend.feeder();
        // Two separated bursts of 2 events: each crosses the period and
        // delivers after the SIM_SKID countdown (bursts inside one skid
        // window would merge, as in the simulated indicator).
        for _round in 0..2 {
            for _ in 0..2 {
                feeder.inject(1);
            }
            for _ in 0..SIM_SKID {
                feeder.inject(0);
            }
        }
        let mut out = Vec::new();
        let lost = backend.drain(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(lost, 0);
        let reading = backend.read().unwrap();
        assert_eq!(reading.value, 4);
        assert_eq!(reading.scaled(), 4, "simulator is never multiplexed");
        // Drain is move-out: a second drain returns nothing new.
        let mut again = Vec::new();
        backend.drain(&mut again).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn sim_backend_disable_stops_counting() {
        let mut backend = SimPmu::new(BackendConfig::counting(HwEvent::CacheMisses));
        let feeder = backend.feeder();
        feeder.inject(1);
        backend.disable().unwrap();
        feeder.inject(1);
        assert_eq!(backend.read().unwrap().value, 1);
        backend.enable().unwrap();
        feeder.inject(1);
        assert_eq!(backend.read().unwrap().value, 2);
        backend.reset().unwrap();
        assert_eq!(backend.read().unwrap().value, 0);
    }

    #[test]
    fn counting_backend_refuses_drain() {
        let mut backend = SimPmu::new(BackendConfig::counting(HwEvent::TaskClock));
        assert_eq!(
            backend.drain(&mut Vec::new()),
            Err(BackendError::NotSampling)
        );
    }
}
