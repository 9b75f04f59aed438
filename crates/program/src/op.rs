//! Core vocabulary types: thread ids, addresses, synchronization object ids,
//! and the operations a simulated thread can perform.

use crate::address::AddressSpace;
use std::fmt;

/// Identifier of a simulated thread.
///
/// Thread 0 is always the root ("main") thread. Thread ids are dense: a
/// program with `n` threads uses ids `0..n`.
///
/// # Examples
///
/// ```
/// use ddrace_program::ThreadId;
/// let main = ThreadId::MAIN;
/// assert_eq!(main.index(), 0);
/// assert_eq!(ThreadId::new(3).index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The root thread: the thread that exists when the program starts.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Creates a thread id from a dense index.
    pub fn new(index: u32) -> Self {
        ThreadId(index)
    }

    /// Returns the dense index of this thread id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<u32> for ThreadId {
    fn from(v: u32) -> Self {
        ThreadId(v)
    }
}

/// A byte address in the simulated program's flat address space.
///
/// The simulator does not model virtual memory; addresses are opaque `u64`
/// values. Helpers on [`crate::AddressSpace`] carve the space into
/// non-overlapping regions (per-thread private heaps, shared heaps, and a
/// region reserved for synchronization objects).
///
/// # Examples
///
/// ```
/// use ddrace_program::Addr;
/// let a = Addr(0x1000);
/// assert_eq!(a.line(64), 0x40);
/// assert_eq!(a.offset(8), Addr(0x1008));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the cache-line index of this address for the given line size.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_size` is not a power of two.
    pub fn line(self, line_size: u64) -> u64 {
        debug_assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        self.0 / line_size
    }

    /// Returns this address advanced by `bytes`.
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Returns this address rounded down to the start of its cache line.
    pub fn align_down(self, line_size: u64) -> Addr {
        Addr(self.0 & !(line_size - 1))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// Identifier of a lock (mutex) object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

impl LockId {
    /// Creates a lock id.
    pub fn new(index: u32) -> Self {
        LockId(index)
    }

    /// Returns the dense index of this lock id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifier of a barrier object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

impl BarrierId {
    /// Creates a barrier id.
    pub fn new(index: u32) -> Self {
        BarrierId(index)
    }

    /// Returns the dense index of this barrier id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Identifier of a counting semaphore used for signal/wait edges
/// (condition-variable-like communication with semaphore semantics, so
/// signals are never lost and generated programs cannot deadlock on a
/// signal/wait ordering quirk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SemId(pub u32);

impl SemId {
    /// Creates a semaphore id.
    pub fn new(index: u32) -> Self {
        SemId(index)
    }

    /// Returns the dense index of this semaphore id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Identifier of a condition variable.
///
/// Unlike [`SemId`] (a bare counter), condvars model the pthread shape: a
/// wait atomically releases its guard lock, sleeps until notified, and
/// re-acquires the lock before returning. The scheduler banks notifies
/// that find no waiter as credits so generated programs cannot deadlock on
/// a notify-before-wait ordering quirk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondId(pub u32);

impl CondId {
    /// Creates a condition variable id.
    pub fn new(index: u32) -> Self {
        CondId(index)
    }

    /// Returns the dense index of this condvar id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CondId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Whether a memory access reads or writes (or atomically updates) memory.
///
/// Relaxed atomic accesses are hardware-atomic but establish **no**
/// happens-before edges: detectors treat them as checked data accesses (a
/// relaxed/relaxed conflict is still a reportable race under this model),
/// while the cache sees their true read/write/RMW coherence footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A plain load.
    Read,
    /// A plain store.
    Write,
    /// An acquire-release atomic read-modify-write (e.g. `fetch_add`, a
    /// successful CAS). Counts as both a read and a write for coherence, and
    /// as a synchronizing access for happens-before purposes.
    AtomicRmw,
    /// A relaxed atomic load (`Ordering::Relaxed`). A data access for race
    /// detection: creates no happens-before edge.
    RelaxedLoad,
    /// A relaxed atomic store (`Ordering::Relaxed`). A data access for race
    /// detection: creates no happens-before edge.
    RelaxedStore,
    /// A relaxed atomic read-modify-write (`Ordering::Relaxed`). Atomic for
    /// coherence (read-half then write-half on one line), but a data access
    /// for race detection: creates no happens-before edge.
    RelaxedRmw,
}

impl AccessKind {
    /// Returns `true` if the access observes memory (reads or RMWs).
    pub fn is_read(self) -> bool {
        matches!(
            self,
            AccessKind::Read
                | AccessKind::AtomicRmw
                | AccessKind::RelaxedLoad
                | AccessKind::RelaxedRmw
        )
    }

    /// Returns `true` if the access mutates memory (writes or RMWs).
    ///
    /// This is also the set every detector checks as a write. Relaxed
    /// atomics carry no ordering, so a relaxed store or RMW checks like the
    /// plain write it is. Atomic RMWs are synchronization, not checked
    /// accesses; one that reaches a data-access check anyway (mis-routed)
    /// checks as its write half.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            AccessKind::Write
                | AccessKind::AtomicRmw
                | AccessKind::RelaxedStore
                | AccessKind::RelaxedRmw
        )
    }

    /// Returns `true` for hardware-atomic read-modify-write accesses (the
    /// cache serializes both halves on one line). Note this is a coherence
    /// property, not a happens-before one: `RelaxedRmw` is atomic but does
    /// not synchronize.
    pub fn is_atomic(self) -> bool {
        matches!(self, AccessKind::AtomicRmw | AccessKind::RelaxedRmw)
    }

    /// Returns `true` for relaxed atomic accesses: hardware-atomic but with
    /// no happens-before effect, so detectors treat them as data accesses.
    pub fn is_relaxed(self) -> bool {
        matches!(
            self,
            AccessKind::RelaxedLoad | AccessKind::RelaxedStore | AccessKind::RelaxedRmw
        )
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::AtomicRmw => "atomic-rmw",
            AccessKind::RelaxedLoad => "relaxed-load",
            AccessKind::RelaxedStore => "relaxed-store",
            AccessKind::RelaxedRmw => "relaxed-rmw",
        };
        f.write_str(s)
    }
}

/// One operation performed by a simulated thread.
///
/// Programs are per-thread streams of `Op`s; the [`crate::Scheduler`]
/// interleaves them and enforces blocking semantics for the synchronization
/// variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Load from `addr`.
    Read {
        /// The address being read.
        addr: Addr,
    },
    /// Store to `addr`.
    Write {
        /// The address being written.
        addr: Addr,
    },
    /// Atomic read-modify-write on `addr`. Synchronizing: establishes
    /// happens-before edges through the address like a tiny lock. This is
    /// the acquire-release RMW (a successful CAS is modeled as `AtomicRmw`;
    /// a failed CAS only performs the load and is modeled as `AtomicLoad`).
    AtomicRmw {
        /// The address being atomically updated.
        addr: Addr,
    },
    /// Atomic load-acquire from `addr`. Synchronizing: acquires (joins) the
    /// happens-before clock released into the address by prior
    /// `AtomicStore`/`AtomicRmw` ops, but releases nothing itself.
    AtomicLoad {
        /// The address being atomically read.
        addr: Addr,
    },
    /// Atomic store-release to `addr`. Synchronizing: releases the issuing
    /// thread's happens-before clock into the address for later
    /// `AtomicLoad`/`AtomicRmw` ops to acquire, but acquires nothing itself.
    AtomicStore {
        /// The address being atomically written.
        addr: Addr,
    },
    /// Relaxed atomic load from `addr`. **Not** synchronizing: a checked
    /// data access that establishes no happens-before edge.
    RelaxedLoad {
        /// The address being read.
        addr: Addr,
    },
    /// Relaxed atomic store to `addr`. **Not** synchronizing: a checked
    /// data access that establishes no happens-before edge.
    RelaxedStore {
        /// The address being written.
        addr: Addr,
    },
    /// Relaxed atomic read-modify-write on `addr`. **Not** synchronizing:
    /// atomic for coherence but a checked data access for race detection.
    RelaxedRmw {
        /// The address being atomically updated.
        addr: Addr,
    },
    /// Acquire `lock`, blocking while another thread holds it.
    Lock {
        /// The lock being acquired.
        lock: LockId,
    },
    /// Release `lock`.
    ///
    /// The scheduler reports an error if the releasing thread does not hold
    /// the lock.
    Unlock {
        /// The lock being released.
        lock: LockId,
    },
    /// Wait at `barrier` until `participants` threads (including this one)
    /// have arrived, then all proceed.
    Barrier {
        /// The barrier being waited on.
        barrier: BarrierId,
        /// Total number of threads that must arrive before any proceeds.
        participants: u32,
    },
    /// Make thread `child` runnable. Establishes a happens-before edge from
    /// the forking thread to the first operation of the child.
    Fork {
        /// The thread being started.
        child: ThreadId,
    },
    /// Block until thread `child` has executed all of its operations.
    /// Establishes a happens-before edge from the last operation of the
    /// child to the joining thread.
    Join {
        /// The thread being joined.
        child: ThreadId,
    },
    /// Increment semaphore `sem` (a "signal"/"post").
    Post {
        /// The semaphore being posted.
        sem: SemId,
    },
    /// Block until semaphore `sem` is positive, then decrement it.
    WaitSem {
        /// The semaphore being waited on.
        sem: SemId,
    },
    /// Atomically release `lock`, block until `cond` is notified, then
    /// re-acquire `lock` before continuing.
    ///
    /// The scheduler reports an error if the waiting thread does not hold
    /// the lock. The wakeup (including the lock re-acquisition) is delivered
    /// as a scheduler-synthesized [`Op::CondWake`] event, so every
    /// `CondWait` produces exactly two events in a trace.
    CondWait {
        /// The condition variable being waited on.
        cond: CondId,
        /// The guard lock, released while waiting and re-acquired on wake.
        lock: LockId,
    },
    /// Scheduler-synthesized completion of a [`Op::CondWait`]: the waiter
    /// has been notified and has re-acquired `lock`. Never appears in a
    /// program's op stream; it only occurs in traces and detector feeds.
    CondWake {
        /// The condition variable that was waited on.
        cond: CondId,
        /// The guard lock that has just been re-acquired.
        lock: LockId,
    },
    /// Wake one waiter on `cond` (banking the notify as a credit if no
    /// thread is waiting, so a notify is never lost).
    NotifyOne {
        /// The condition variable being signaled.
        cond: CondId,
    },
    /// Wake every current waiter on `cond` (banking one credit if no
    /// thread is waiting).
    NotifyAll {
        /// The condition variable being signaled.
        cond: CondId,
    },
    /// Pure computation costing `cycles` cycles; no memory traffic.
    Compute {
        /// Number of cycles the computation takes.
        cycles: u32,
    },
}

impl Op {
    /// The memory word this op touches and the access kind the cache sees
    /// there, or `None` for `Compute`, `Fork` and `Join`, which touch no
    /// memory.
    ///
    /// Data accesses touch their own address. Acquire/release atomics are
    /// a plain load or store of theirs and `AtomicRmw` an RMW of it. Every
    /// other sync op is an RMW of its object's word in the sync region
    /// ([`AddressSpace::lock_addr`] and its siblings), so lock, barrier,
    /// semaphore and condvar lines ping-pong between cores like futex
    /// words; an unlock is a plain store. Whether the access is a checked
    /// data access or synchronization is [`Op::is_sync`]'s call.
    #[inline]
    pub fn memory_word(&self) -> Option<(Addr, AccessKind)> {
        Some(match *self {
            Op::Read { addr } => (addr, AccessKind::Read),
            Op::Write { addr } => (addr, AccessKind::Write),
            Op::RelaxedLoad { addr } => (addr, AccessKind::RelaxedLoad),
            Op::RelaxedStore { addr } => (addr, AccessKind::RelaxedStore),
            Op::RelaxedRmw { addr } => (addr, AccessKind::RelaxedRmw),
            Op::AtomicRmw { addr } => (addr, AccessKind::AtomicRmw),
            Op::AtomicLoad { addr } => (addr, AccessKind::Read),
            Op::AtomicStore { addr } => (addr, AccessKind::Write),
            Op::Lock { lock } => (AddressSpace::lock_addr(lock), AccessKind::AtomicRmw),
            Op::Unlock { lock } => (AddressSpace::lock_addr(lock), AccessKind::Write),
            Op::Barrier { barrier, .. } => {
                (AddressSpace::barrier_addr(barrier), AccessKind::AtomicRmw)
            }
            Op::Post { sem } | Op::WaitSem { sem } => {
                (AddressSpace::sem_addr(sem), AccessKind::AtomicRmw)
            }
            Op::CondWait { cond, .. }
            | Op::CondWake { cond, .. }
            | Op::NotifyOne { cond }
            | Op::NotifyAll { cond } => (AddressSpace::cond_addr(cond), AccessKind::AtomicRmw),
            Op::Fork { .. } | Op::Join { .. } | Op::Compute { .. } => return None,
        })
    }

    /// Returns `true` for synchronization operations (everything that can
    /// establish a happens-before edge: locks, barriers, fork/join,
    /// semaphores, condvars, and acquire/release atomics). Relaxed atomics
    /// are **not** sync: they are checked data accesses.
    pub fn is_sync(&self) -> bool {
        !matches!(
            self,
            Op::Read { .. }
                | Op::Write { .. }
                | Op::RelaxedLoad { .. }
                | Op::RelaxedStore { .. }
                | Op::RelaxedRmw { .. }
                | Op::Compute { .. }
        )
    }

    /// Returns `true` for operations that may block the issuing thread.
    pub fn may_block(&self) -> bool {
        matches!(
            self,
            Op::Lock { .. }
                | Op::Barrier { .. }
                | Op::Join { .. }
                | Op::WaitSem { .. }
                | Op::CondWait { .. }
        )
    }

    /// A short lowercase name for the operation kind, used in stats keys.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Read { .. } => "read",
            Op::Write { .. } => "write",
            Op::AtomicRmw { .. } => "atomic_rmw",
            Op::AtomicLoad { .. } => "atomic_load",
            Op::AtomicStore { .. } => "atomic_store",
            Op::RelaxedLoad { .. } => "relaxed_load",
            Op::RelaxedStore { .. } => "relaxed_store",
            Op::RelaxedRmw { .. } => "relaxed_rmw",
            Op::Lock { .. } => "lock",
            Op::Unlock { .. } => "unlock",
            Op::Barrier { .. } => "barrier",
            Op::Fork { .. } => "fork",
            Op::Join { .. } => "join",
            Op::Post { .. } => "post",
            Op::WaitSem { .. } => "wait_sem",
            Op::CondWait { .. } => "cond_wait",
            Op::CondWake { .. } => "cond_wake",
            Op::NotifyOne { .. } => "notify_one",
            Op::NotifyAll { .. } => "notify_all",
            Op::Compute { .. } => "compute",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Read { addr } => write!(f, "read {addr}"),
            Op::Write { addr } => write!(f, "write {addr}"),
            Op::AtomicRmw { addr } => write!(f, "rmw {addr}"),
            Op::AtomicLoad { addr } => write!(f, "load-acq {addr}"),
            Op::AtomicStore { addr } => write!(f, "store-rel {addr}"),
            Op::RelaxedLoad { addr } => write!(f, "load-rlx {addr}"),
            Op::RelaxedStore { addr } => write!(f, "store-rlx {addr}"),
            Op::RelaxedRmw { addr } => write!(f, "rmw-rlx {addr}"),
            Op::Lock { lock } => write!(f, "lock {lock}"),
            Op::Unlock { lock } => write!(f, "unlock {lock}"),
            Op::Barrier {
                barrier,
                participants,
            } => {
                write!(f, "barrier {barrier} ({participants})")
            }
            Op::Fork { child } => write!(f, "fork {child}"),
            Op::Join { child } => write!(f, "join {child}"),
            Op::Post { sem } => write!(f, "post {sem}"),
            Op::WaitSem { sem } => write!(f, "wait {sem}"),
            Op::CondWait { cond, lock } => write!(f, "cond-wait {cond} ({lock})"),
            Op::CondWake { cond, lock } => write!(f, "cond-wake {cond} ({lock})"),
            Op::NotifyOne { cond } => write!(f, "notify-one {cond}"),
            Op::NotifyAll { cond } => write!(f, "notify-all {cond}"),
            Op::Compute { cycles } => write!(f, "compute {cycles}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_basics() {
        assert_eq!(ThreadId::MAIN, ThreadId::new(0));
        assert_eq!(ThreadId::new(7).index(), 7);
        assert_eq!(ThreadId::from(3), ThreadId(3));
        assert_eq!(format!("{}", ThreadId(2)), "T2");
    }

    #[test]
    fn addr_line_math() {
        assert_eq!(Addr(0).line(64), 0);
        assert_eq!(Addr(63).line(64), 0);
        assert_eq!(Addr(64).line(64), 1);
        assert_eq!(Addr(130).align_down(64), Addr(128));
        assert_eq!(Addr(100).offset(28), Addr(128));
        assert_eq!(format!("{}", Addr(0xff)), "0xff");
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Write.is_read());
        assert!(AccessKind::AtomicRmw.is_read());
        assert!(AccessKind::AtomicRmw.is_write());
        assert!(AccessKind::AtomicRmw.is_atomic());
        assert!(!AccessKind::Write.is_atomic());
        assert!(!AccessKind::AtomicRmw.is_relaxed());
        assert!(AccessKind::RelaxedLoad.is_read());
        assert!(!AccessKind::RelaxedLoad.is_write());
        assert!(AccessKind::RelaxedStore.is_write());
        assert!(!AccessKind::RelaxedStore.is_read());
        assert!(AccessKind::RelaxedRmw.is_read());
        assert!(AccessKind::RelaxedRmw.is_write());
        assert!(AccessKind::RelaxedRmw.is_atomic());
        assert!(!AccessKind::RelaxedLoad.is_atomic());
        assert!(AccessKind::RelaxedLoad.is_relaxed());
        assert!(AccessKind::RelaxedStore.is_relaxed());
        assert!(AccessKind::RelaxedRmw.is_relaxed());
        assert!(!AccessKind::Read.is_relaxed());
    }

    #[test]
    fn op_memory_words() {
        use AccessKind as K;
        let (a, lock, sem, cond) = (Addr(8), LockId(3), SemId(1), CondId(5));
        let barrier = BarrierId(2);
        let lock_word = AddressSpace::lock_addr(lock);
        let sem_word = AddressSpace::sem_addr(sem);
        let cond_word = AddressSpace::cond_addr(cond);
        let barrier_op = Op::Barrier {
            barrier,
            participants: 4,
        };
        let cases = [
            (Op::Read { addr: a }, Some((a, K::Read))),
            (Op::Write { addr: a }, Some((a, K::Write))),
            (Op::RelaxedLoad { addr: a }, Some((a, K::RelaxedLoad))),
            (Op::RelaxedStore { addr: a }, Some((a, K::RelaxedStore))),
            (Op::RelaxedRmw { addr: a }, Some((a, K::RelaxedRmw))),
            (Op::AtomicRmw { addr: a }, Some((a, K::AtomicRmw))),
            (Op::AtomicLoad { addr: a }, Some((a, K::Read))),
            (Op::AtomicStore { addr: a }, Some((a, K::Write))),
            (Op::Lock { lock }, Some((lock_word, K::AtomicRmw))),
            (Op::Unlock { lock }, Some((lock_word, K::Write))),
            (
                barrier_op,
                Some((AddressSpace::barrier_addr(barrier), K::AtomicRmw)),
            ),
            (Op::Post { sem }, Some((sem_word, K::AtomicRmw))),
            (Op::WaitSem { sem }, Some((sem_word, K::AtomicRmw))),
            (Op::CondWait { cond, lock }, Some((cond_word, K::AtomicRmw))),
            (Op::CondWake { cond, lock }, Some((cond_word, K::AtomicRmw))),
            (Op::NotifyOne { cond }, Some((cond_word, K::AtomicRmw))),
            (Op::NotifyAll { cond }, Some((cond_word, K::AtomicRmw))),
            (Op::Fork { child: ThreadId(1) }, None),
            (Op::Join { child: ThreadId(1) }, None),
            (Op::Compute { cycles: 5 }, None),
        ];
        for (op, want) in cases {
            assert_eq!(op.memory_word(), want, "{op}");
        }
    }

    #[test]
    fn op_sync_classification() {
        assert!(!Op::Read { addr: Addr(0) }.is_sync());
        assert!(!Op::Write { addr: Addr(0) }.is_sync());
        assert!(!Op::Compute { cycles: 1 }.is_sync());
        assert!(!Op::RelaxedLoad { addr: Addr(0) }.is_sync());
        assert!(!Op::RelaxedStore { addr: Addr(0) }.is_sync());
        assert!(!Op::RelaxedRmw { addr: Addr(0) }.is_sync());
        assert!(Op::AtomicRmw { addr: Addr(0) }.is_sync());
        assert!(Op::AtomicLoad { addr: Addr(0) }.is_sync());
        assert!(Op::AtomicStore { addr: Addr(0) }.is_sync());
        assert!(Op::CondWait {
            cond: CondId(0),
            lock: LockId(0)
        }
        .is_sync());
        assert!(Op::CondWake {
            cond: CondId(0),
            lock: LockId(0)
        }
        .is_sync());
        assert!(Op::NotifyOne { cond: CondId(0) }.is_sync());
        assert!(Op::NotifyAll { cond: CondId(0) }.is_sync());
        assert!(Op::Lock { lock: LockId(0) }.is_sync());
        assert!(Op::Unlock { lock: LockId(0) }.is_sync());
        assert!(Op::Barrier {
            barrier: BarrierId(0),
            participants: 2
        }
        .is_sync());
        assert!(Op::Fork { child: ThreadId(1) }.is_sync());
        assert!(Op::Join { child: ThreadId(1) }.is_sync());
        assert!(Op::Post { sem: SemId(0) }.is_sync());
        assert!(Op::WaitSem { sem: SemId(0) }.is_sync());
    }

    #[test]
    fn op_blocking_classification() {
        assert!(Op::Lock { lock: LockId(0) }.may_block());
        assert!(Op::Barrier {
            barrier: BarrierId(0),
            participants: 2
        }
        .may_block());
        assert!(Op::Join { child: ThreadId(1) }.may_block());
        assert!(Op::WaitSem { sem: SemId(0) }.may_block());
        assert!(Op::CondWait {
            cond: CondId(0),
            lock: LockId(0)
        }
        .may_block());
        assert!(!Op::CondWake {
            cond: CondId(0),
            lock: LockId(0)
        }
        .may_block());
        assert!(!Op::NotifyOne { cond: CondId(0) }.may_block());
        assert!(!Op::NotifyAll { cond: CondId(0) }.may_block());
        assert!(!Op::AtomicLoad { addr: Addr(0) }.may_block());
        assert!(!Op::AtomicStore { addr: Addr(0) }.may_block());
        assert!(!Op::Unlock { lock: LockId(0) }.may_block());
        assert!(!Op::Post { sem: SemId(0) }.may_block());
        assert!(!Op::Fork { child: ThreadId(1) }.may_block());
        assert!(!Op::Read { addr: Addr(0) }.may_block());
    }

    #[test]
    fn op_display_is_nonempty() {
        let ops = [
            Op::Read { addr: Addr(1) },
            Op::Write { addr: Addr(1) },
            Op::AtomicRmw { addr: Addr(1) },
            Op::Lock { lock: LockId(1) },
            Op::Unlock { lock: LockId(1) },
            Op::Barrier {
                barrier: BarrierId(1),
                participants: 4,
            },
            Op::Fork { child: ThreadId(1) },
            Op::Join { child: ThreadId(1) },
            Op::Post { sem: SemId(1) },
            Op::WaitSem { sem: SemId(1) },
            Op::AtomicLoad { addr: Addr(1) },
            Op::AtomicStore { addr: Addr(1) },
            Op::RelaxedLoad { addr: Addr(1) },
            Op::RelaxedStore { addr: Addr(1) },
            Op::RelaxedRmw { addr: Addr(1) },
            Op::CondWait {
                cond: CondId(1),
                lock: LockId(1),
            },
            Op::CondWake {
                cond: CondId(1),
                lock: LockId(1),
            },
            Op::NotifyOne { cond: CondId(1) },
            Op::NotifyAll { cond: CondId(1) },
            Op::Compute { cycles: 10 },
        ];
        for op in ops {
            assert!(!format!("{op}").is_empty());
            assert!(!op.kind_name().is_empty());
        }
    }
}

ddrace_json::json_newtype!(ThreadId, Addr, LockId, BarrierId, SemId, CondId);
ddrace_json::json_unit_enum!(AccessKind {
    Read,
    Write,
    AtomicRmw,
    RelaxedLoad,
    RelaxedStore,
    RelaxedRmw
});
