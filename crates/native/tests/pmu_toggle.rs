//! The hardware-driven demand toggle, driven through the simulator
//! backend's injection feeder. Overflows enable the monitor; the
//! detector's sharing verdicts keep it on, and `cooldown_accesses`
//! checks in a row without sharing disable it. Each expectation holds
//! however the controller's polls fall between the hooks.

use ddrace_core::ControllerConfig;
use ddrace_native::{Monitor, MonitorConfig, PmuToggle, ThreadToken, ToggleConfig};
use ddrace_pmu::backend::{BackendConfig, BackendKind, SimFeeder, SimPmu};
use ddrace_program::Addr;
use std::time::{Duration, Instant};

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// One HITM plus the 20-access skid window delivers one overflow.
fn overflow(feeder: &SimFeeder) {
    feeder.inject(1);
    for _ in 0..20 {
        feeder.inject(0);
    }
}

#[test]
fn sharing_keeps_analysis_on_and_quiet_checks_turn_it_off() {
    let cooldown = ControllerConfig::default().cooldown_accesses;
    // One shard, so that each poll reads both counts at one instant.
    let (monitor, root) = Monitor::with_monitor_config(MonitorConfig {
        shards: 1,
        ..MonitorConfig::default()
    });
    let toggle = PmuToggle::attach(
        monitor.clone(),
        ToggleConfig {
            period: 1,
            poll_interval: Duration::from_millis(1),
        },
    );
    assert!(
        !monitor.is_enabled(),
        "attach puts the monitor in demand mode"
    );
    let backend = SimPmu::new(BackendConfig::hitm_sampling(1));
    let feeder = backend.feeder();
    toggle.register_backend(Box::new(backend));

    overflow(&feeder);
    assert!(
        wait_until(Duration::from_secs(10), || monitor.is_enabled()),
        "an overflow enables the monitor"
    );

    // Enabled, with nothing checked: every poll feeds the controller
    // zero accesses, and it stays on.
    std::thread::sleep(Duration::from_millis(30));
    assert!(monitor.is_enabled(), "no checks, no disable");

    // Two threads take turns: 63 private writes, then a lock-guarded
    // write to the word the other thread wrote last, which is shared
    // (all but the first). Polls that see no shared check between them
    // span fewer than 128 checks, far below the cooldown, so analysis
    // stays on. The phase ends on a shared write.
    let t1 = monitor.fork(root);
    let t2 = monitor.fork(root);
    let private =
        |t: ThreadToken, i: u64| Addr(0x10_0000 * (1 + t.thread_id().index() as u64) + i % 16 * 8);
    let guarded = Addr(0x1000);
    let checked = || monitor.stats().accesses_checked;
    let turns = (4 * cooldown).div_ceil(64);
    for turn in 0..turns {
        let t = if turn % 2 == 0 { t1 } else { t2 };
        for i in 0..63 {
            monitor.write(t, private(t, i));
        }
        monitor.lock_acquired(t, 0);
        monitor.write(t, guarded);
        monitor.lock_released(t, 0);
    }
    assert_eq!(checked(), 64 * turns, "every hook was checked");
    assert!(monitor.is_enabled(), "threads that keep sharing keep it on");

    // Private checks only: the controller disables, and only after it
    // has seen at least `cooldown_accesses` of them.
    let before = checked();
    let start = Instant::now();
    let mut i = 0;
    while monitor.is_enabled() && start.elapsed() < Duration::from_secs(30) {
        monitor.write(t1, private(t1, i));
        i += 1;
    }
    assert!(!monitor.is_enabled(), "private checks disable the monitor");
    let quiet = checked() - before;
    assert!(
        quiet >= cooldown,
        "disabled after {quiet} quiet checks, below the cooldown of {cooldown}"
    );

    overflow(&feeder);
    assert!(
        wait_until(Duration::from_secs(10), || monitor.is_enabled()),
        "a second overflow re-enables the monitor"
    );
    let stats = toggle.detach();
    assert_eq!(stats.enables, 2, "{stats:?}");
    assert_eq!(stats.disables, 1, "{stats:?}");
    assert_eq!(stats.overflows, 2, "{stats:?}");
    assert_eq!(stats.sim_backends, 1);
    assert_eq!(stats.lost, 0, "nothing silently dropped: {stats:?}");
    assert!(
        monitor.is_enabled(),
        "detach leaves the monitor in continuous mode"
    );
}

#[test]
fn register_current_thread_falls_back_cleanly() {
    // DDRACE_PMU_DISABLE makes the ladder outcome deterministic on any
    // host. Only this test in this binary touches the variable.
    std::env::set_var("DDRACE_PMU_DISABLE", "1");
    let (monitor, _root) = Monitor::new();
    let toggle = PmuToggle::attach(monitor.clone(), ToggleConfig::default());
    let (kind, reason) = toggle.register_current_thread();
    std::env::remove_var("DDRACE_PMU_DISABLE");

    assert_eq!(kind, BackendKind::Sim);
    assert_eq!(reason.as_deref(), Some("disabled by DDRACE_PMU_DISABLE=1"));
    let stats = toggle.detach();
    assert_eq!(stats.sim_backends, 1);
    assert_eq!(stats.perf_backends, 0);
    assert!(monitor.is_enabled());
}

#[test]
fn dropped_toggle_reenables_monitor() {
    let (monitor, _root) = Monitor::new();
    {
        let _toggle = PmuToggle::attach(monitor.clone(), ToggleConfig::default());
        assert!(!monitor.is_enabled());
    }
    assert!(
        monitor.is_enabled(),
        "dropping the toggle must not leave the monitor stuck disabled"
    );
}
