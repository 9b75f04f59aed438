//! The native pipeline: `Monitor` hooks on a real thread forked from the
//! monitor's root, running the workload's hook mix around a small compute
//! kernel.
//!
//! One worker thread, not two: with two, every hook's shard lock moves
//! between the cores, which doubled the enabled hook's cost on the 2-vCPU
//! reference host and made it swing up to 3.5× as the hypervisor moved the
//! vCPUs. The root's reads of the shared words still make them read-shared.

use crate::stats::{timed, Probe};
use crate::workload::NativeMix;
use ddrace_native::{Monitor, ThreadToken};
use ddrace_program::{Addr, Op, TraceEvent};
use ddrace_trace::decode_events_into;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The worker takes and releases a real lock once per this many hooks.
const LOCK_EVERY: u64 = 64;
const LOCK_ID: u32 = 1;
/// Sync hooks (acquire plus release) per data hook.
pub const SYNC_PER_HOOK: f64 = 2.0 / LOCK_EVERY as f64;
/// Serial compute rounds between two hooks.
const KERNEL_ROUNDS: usize = 4;
/// Private words the worker touches (32 KiB of addresses).
const PRIVATE_WORDS: u64 = 4096;
/// Shared words, read by the root before the worker starts.
const SHARED_WORDS: u64 = 64;
/// The demand variant toggles analysis at this window size, enabled in
/// one window of every [`WINDOWS_PER_ENABLE`].
const WINDOW: u64 = 1 << 16;
const WINDOWS_PER_ENABLE: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The mix with no monitor in the process: the baseline.
    Uninstrumented,
    /// Hooks called on a disabled monitor.
    Disabled,
    /// Hooks on an enabled monitor: every access is checked.
    Enabled,
    /// Enabled, and recording a DDRT trace into memory.
    Recording,
    /// Enabled in one window of [`WINDOWS_PER_ENABLE`].
    Demand,
}

pub const VARIANTS: [(&str, Variant); 5] = [
    ("uninstrumented", Variant::Uninstrumented),
    ("disabled", Variant::Disabled),
    ("enabled", Variant::Enabled),
    ("recording", Variant::Recording),
    ("demand", Variant::Demand),
];

/// splitmix64 finalizer: the address generator and the compute kernel.
#[inline(always)]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn shared_word(i: u64) -> Addr {
    Addr(0x5000_0000 + i % SHARED_WORDS * 8)
}

impl NativeMix {
    /// Hook `i`: a read of a shared word (only ever read, so the mix is
    /// race-free), or an access to the worker's private region, one in
    /// four of those a write.
    #[inline(always)]
    fn event(&self, i: u64) -> (Addr, bool) {
        let r = mix(self.salt ^ i);
        if r.is_multiple_of(self.shared_every) {
            (shared_word(r >> 32), false)
        } else {
            (
                Addr(0x1000_0000 + (r >> 32) % PRIVATE_WORDS * 8),
                r.is_multiple_of(4),
            )
        }
    }

    /// Data hooks an always-enabled monitor checks: the worker's and the
    /// root's reads of the shared words.
    pub fn issued(&self) -> u64 {
        self.hooks + SHARED_WORDS
    }
}

/// An in-memory trace sink the recording monitor can own. A run keeps
/// one across repetitions so its pages are resident before timing starts.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one run of a variant measured and what its checks saw.
#[derive(Debug, Clone, Copy)]
pub struct NativeRun {
    pub wall_ns: f64,
    pub races: usize,
    pub checked: u64,
    /// Data records decoded from the recorded trace (recording only).
    pub decoded: u64,
    pub dropped: u64,
    /// Estimated ns per sync hook when run with probes on.
    pub sync_hook_ns: f64,
}

/// The worker's loop. In the demand variant it sets the analysis state at
/// the start of each window of [`WINDOW`] hooks.
fn worker<const ON: bool>(
    mix: &NativeMix,
    hooks: Option<(&Monitor, ThreadToken)>,
    lock: &Mutex<u64>,
    toggles: bool,
    probe: &mut Probe<ON>,
) -> u64 {
    let mut acc = 0u64;
    for i in 0..mix.hooks {
        if let (true, Some((m, _))) = (toggles, hooks) {
            if i % WINDOW == 0 {
                if (i / WINDOW).is_multiple_of(WINDOWS_PER_ENABLE) {
                    m.enable();
                } else {
                    m.disable();
                }
            }
        }
        let (addr, write) = mix.event(i);
        acc = kernel(acc, addr.0);
        if let Some((m, t)) = hooks {
            if write {
                m.write(t, addr);
            } else {
                m.read(t, addr);
            }
        }
        if i % LOCK_EVERY == LOCK_EVERY - 1 {
            let mut guard = lock.lock().expect("mix lock poisoned");
            if let Some((m, t)) = hooks {
                probe.time(|| m.lock_acquired(t, LOCK_ID));
            }
            *guard = guard.wrapping_add(acc);
            if let Some((m, t)) = hooks {
                probe.time(|| m.lock_released(t, LOCK_ID));
            }
        }
    }
    acc
}

/// The compute between two hooks: serially dependent mix rounds, so no
/// variant's loop can be vectorized away.
#[inline(always)]
fn kernel(mut acc: u64, addr: u64) -> u64 {
    acc ^= addr;
    for _ in 0..KERNEL_ROUNDS {
        acc = mix(acc);
    }
    acc
}

/// Runs one variant on a fresh worker thread, timed inside that thread.
/// Monitor construction, the root's shared reads, the thread's spawn and
/// the final join are outside the timed region.
pub fn run<const ON: bool>(
    mix: &NativeMix,
    variant: Variant,
    buf: &SharedBuf,
    empty_span_ns: f64,
) -> NativeRun {
    buf.0.lock().expect("trace buffer lock poisoned").clear();
    let monitor = match variant {
        Variant::Uninstrumented => None,
        Variant::Recording => {
            Some(Monitor::recording(Box::new(buf.clone())).expect("in-memory trace header"))
        }
        _ => Some(Monitor::new()),
    };
    if let (Some((m, _)), Variant::Disabled | Variant::Demand) = (&monitor, variant) {
        m.disable();
    }
    let hooks = monitor.as_ref().map(|(m, root)| {
        let token = m.fork(*root);
        for i in 0..SHARED_WORDS {
            m.read(*root, shared_word(i));
        }
        (m.as_ref(), token)
    });
    let lock = Mutex::new(0u64);
    let mut probe = Probe::<ON>::default();
    let toggles = variant == Variant::Demand;

    let wall_ns = std::thread::scope(|scope| {
        let probe = &mut probe;
        let lock = &lock;
        scope
            .spawn(move || {
                timed(|| std::hint::black_box(worker(mix, hooks, lock, toggles, probe))).0
            })
            .join()
            .expect("native worker panicked")
    });

    let mut out = NativeRun {
        wall_ns,
        races: 0,
        checked: 0,
        decoded: 0,
        dropped: 0,
        sync_hook_ns: 0.0,
    };
    if let (Some((m, root)), Some((_, token))) = (&monitor, hooks) {
        m.join(*root, token);
        out.races = m.race_count();
        out.checked = m.stats().accesses_checked;
        if variant == Variant::Recording {
            m.finish_recording()
                .expect("finish the in-memory recording");
            out.dropped = m.dropped_records();
            let bytes = buf.0.lock().expect("trace buffer lock poisoned");
            let mut decoded = 0u64;
            let decodes = decode_events_into(bytes.as_slice(), |e| {
                decoded += u64::from(matches!(
                    e,
                    TraceEvent::Op {
                        op: Op::Read { .. } | Op::Write { .. },
                        ..
                    }
                ));
            });
            // A trace that fails to decode delivers nothing.
            out.decoded = if decodes.is_ok() { decoded } else { 0 };
        }
    }
    if probe.calls > 0 {
        out.sync_hook_ns = probe.estimate_ns(empty_span_ns) / probe.calls as f64;
    }
    out
}

/// Wall nanoseconds per `Monitor::enable`/`disable` call.
pub fn toggle_ns() -> f64 {
    const PAIRS: u64 = 1 << 20;
    let (monitor, _) = Monitor::new();
    let (ns, _) = timed(|| {
        for _ in 0..PAIRS {
            std::hint::black_box(&monitor).disable();
            std::hint::black_box(&monitor).enable();
        }
    });
    ns / (2 * PAIRS) as f64
}
