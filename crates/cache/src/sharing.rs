//! Ground-truth inter-core sharing tracker: the "oracle" indicator.
//!
//! Unlike the caches, this tracker never forgets: it remembers the last
//! writer of every line ever touched, so it reports **every** W→R, W→W and
//! R→W communication — including those the hardware HITM counter misses
//! because the modified line was evicted before the consumer arrived.
//! The paper's idealized "perfect sharing detector" comparison point is
//! built from this.

use crate::event::{CoreId, SharingKind};
use ddrace_shadow::ShadowTable;

#[derive(Debug, Clone, Copy, Default)]
struct LineHistory {
    /// The core that performed the most recent write, if any.
    last_writer: Option<CoreId>,
    /// Bitmask of cores that have read the line since the last write.
    readers_since_write: u64,
}

/// Tracks, per cache line, which core last wrote it and who has read it
/// since, and classifies every access's inter-core communication.
///
/// # Examples
///
/// ```
/// use ddrace_cache::{SharingTracker, SharingKind, CoreId};
/// let mut t = SharingTracker::new();
/// assert_eq!(t.on_write(CoreId(0), 7), (None, None));
/// // First read by another core: a W→R communication.
/// assert_eq!(t.on_read(CoreId(1), 7), Some(SharingKind::WriteRead));
/// // Re-reading is not new communication.
/// assert_eq!(t.on_read(CoreId(1), 7), None);
/// // The original writer overwriting data a remote core has read is R→W;
/// // a third core overwriting is W→W (and R→W, since core 1 read it).
/// assert_eq!(
///     t.on_write(CoreId(0), 7),
///     (None, Some(SharingKind::ReadWrite)),
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharingTracker {
    lines: ShadowTable<LineHistory>,
}

/// Totals of ground-truth sharing events by kind; the cache hierarchy
/// keeps them in [`CacheStats::sharing`](crate::CacheStats::sharing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingCounts {
    /// Write→read communications.
    pub write_read: u64,
    /// Write→write communications.
    pub write_write: u64,
    /// Read→write communications.
    pub read_write: u64,
}

impl SharingCounts {
    /// Total communications of any kind.
    pub fn total(&self) -> u64 {
        self.write_read + self.write_write + self.read_write
    }
}

impl SharingTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `line` by `core`; returns the W→R event if this
    /// is the first read by this core since a remote write.
    pub fn on_read(&mut self, core: CoreId, line: u64) -> Option<SharingKind> {
        let h = self.lines.get_or_insert_with(line, LineHistory::default);
        let bit = 1u64 << core.index();
        let fresh = h.readers_since_write & bit == 0;
        h.readers_since_write |= bit;
        match h.last_writer {
            Some(w) if w != core && fresh => Some(SharingKind::WriteRead),
            _ => None,
        }
    }

    /// Records a write of `line` by `core`; returns the (W→W, R→W) events
    /// it constitutes, if any.
    pub fn on_write(
        &mut self,
        core: CoreId,
        line: u64,
    ) -> (Option<SharingKind>, Option<SharingKind>) {
        let h = self.lines.get_or_insert_with(line, LineHistory::default);
        let bit = 1u64 << core.index();
        let ww = match h.last_writer {
            Some(w) if w != core => Some(SharingKind::WriteWrite),
            _ => None,
        };
        let remote_readers = h.readers_since_write & !bit;
        let rw = (remote_readers != 0).then_some(SharingKind::ReadWrite);
        h.last_writer = Some(core);
        h.readers_since_write = 0;
        (ww, rw)
    }

    /// Number of distinct lines ever touched.
    pub fn lines_tracked(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const C2: CoreId = CoreId(2);

    #[test]
    fn private_data_never_shares() {
        let mut t = SharingTracker::new();
        for i in 0..100 {
            assert_eq!(t.on_write(C0, i), (None, None));
            assert_eq!(t.on_read(C0, i), None);
            assert_eq!(t.on_write(C0, i), (None, None));
        }
        assert_eq!(t.lines_tracked(), 100);
    }

    #[test]
    fn write_read_fires_once_per_reader() {
        let mut t = SharingTracker::new();
        t.on_write(C0, 5);
        assert_eq!(t.on_read(C1, 5), Some(SharingKind::WriteRead));
        assert_eq!(t.on_read(C1, 5), None);
        assert_eq!(t.on_read(C2, 5), Some(SharingKind::WriteRead));
    }

    #[test]
    fn own_write_then_read_is_not_sharing() {
        let mut t = SharingTracker::new();
        t.on_write(C0, 5);
        assert_eq!(t.on_read(C0, 5), None);
    }

    #[test]
    fn read_before_any_write_is_not_sharing() {
        let mut t = SharingTracker::new();
        assert_eq!(t.on_read(C1, 5), None);
    }

    #[test]
    fn write_after_remote_write_is_ww() {
        let mut t = SharingTracker::new();
        t.on_write(C0, 5);
        let (ww, rw) = t.on_write(C1, 5);
        assert_eq!(ww, Some(SharingKind::WriteWrite));
        assert_eq!(rw, None);
    }

    #[test]
    fn write_after_remote_read_is_rw() {
        let mut t = SharingTracker::new();
        t.on_write(C0, 5);
        t.on_read(C1, 5);
        // C0 overwrites its own data that C1 has read: R→W but not W→W.
        let (ww, rw) = t.on_write(C0, 5);
        assert_eq!(ww, None);
        assert_eq!(rw, Some(SharingKind::ReadWrite));
    }

    #[test]
    fn write_resets_reader_set() {
        let mut t = SharingTracker::new();
        t.on_write(C0, 5);
        t.on_read(C1, 5);
        t.on_write(C0, 5); // resets readers
                           // C1 reading again is a fresh W→R communication.
        assert_eq!(t.on_read(C1, 5), Some(SharingKind::WriteRead));
    }

    #[test]
    fn ping_pong_communicates_every_round() {
        let mut t = SharingTracker::new();
        t.on_write(C0, 9);
        for _ in 0..10 {
            assert_eq!(t.on_read(C1, 9), Some(SharingKind::WriteRead));
            // The writer is also the most recent reader, so no R→W — but the
            // previous writer was remote, so W→W fires.
            assert_eq!(t.on_write(C1, 9), (Some(SharingKind::WriteWrite), None));
            assert_eq!(t.on_read(C0, 9), Some(SharingKind::WriteRead));
            assert_eq!(t.on_write(C0, 9), (Some(SharingKind::WriteWrite), None));
        }
    }

    #[test]
    fn remote_reader_then_third_core_write_is_rw_and_ww() {
        let mut t = SharingTracker::new();
        t.on_write(C0, 9);
        t.on_read(C1, 9);
        let (ww, rw) = t.on_write(C2, 9);
        assert_eq!(ww, Some(SharingKind::WriteWrite));
        assert_eq!(rw, Some(SharingKind::ReadWrite));
    }
}

ddrace_json::json_struct!(SharingCounts {
    write_read,
    write_write,
    read_write
});
