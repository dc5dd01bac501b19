//! Lock-free hook timers for calls that run concurrently on the engines'
//! worker threads.
//!
//! Each thread claims a cache-line-padded slot of its own on first use and
//! gives it back when it exits, so a slot has one writer at a time and a
//! timed hook costs two clock reads plus plain loads and stores. The
//! main thread harvests the slots between engine phases, after the
//! worker threads have been joined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::stats::Span;

/// Nanoseconds since the first call in this process; every span the
/// benchmark records is on this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Consecutive calls on one thread that are at most this far apart share
/// one interval of the hook's span, so the span does not grow by one
/// entry per call. A longer gap, such as the engine's work between two
/// batches of calls, stays outside the span.
pub const MERGE_GAP_NS: u64 = 2_000;

const SLOTS: usize = 64;

/// Bit `i` is set while a live thread owns slot `i`.
static CLAIMED: AtomicU64 = AtomicU64::new(0);

/// A thread's ownership of one slot, released when the thread exits.
struct Claim(usize);

impl Claim {
    fn take() -> Self {
        let mut held = CLAIMED.load(Ordering::Acquire);
        loop {
            let free = (!held).trailing_zeros() as usize;
            assert!(
                free < SLOTS,
                "more than {SLOTS} threads run timed hooks at once"
            );
            // Acquire pairs with the Release in `drop`: the previous
            // owner's slot writes are visible to the new owner.
            match CLAIMED.compare_exchange_weak(
                held,
                held | 1 << free,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return Claim(free),
                Err(now) => held = now,
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        CLAIMED.fetch_and(!(1 << self.0), Ordering::Release);
    }
}

/// Index of the calling thread's slot.
fn slot_index() -> usize {
    thread_local! {
        static CLAIM: Claim = Claim::take();
    }
    CLAIM.with(|c| c.0)
}

/// Adds to a counter that only the calling thread writes.
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// No interval is open.
const NONE: u64 = u64::MAX;

#[repr(align(128))]
struct Slot {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    /// The interval the latest calls extend; `open_start` is [`NONE`]
    /// when there is none.
    open_start: AtomicU64,
    open_end: AtomicU64,
    /// Intervals closed by a gap longer than [`MERGE_GAP_NS`]. Only the
    /// owning thread pushes, once per gap, so the lock is uncontended.
    closed: Mutex<Vec<Span>>,
}

impl Slot {
    fn new() -> Self {
        Self {
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            open_start: AtomicU64::new(NONE),
            open_end: AtomicU64::new(0),
            closed: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, start: u64, end: u64) {
        bump(&self.busy_ns, end - start);
        let open = self.open_start.load(Ordering::Relaxed);
        let open_end = self.open_end.load(Ordering::Relaxed);
        if open == NONE || start.saturating_sub(open_end) > MERGE_GAP_NS {
            if open != NONE {
                self.closed.lock().unwrap().push(Span {
                    start: open,
                    end: open_end,
                });
            }
            self.open_start.store(start, Ordering::Relaxed);
        }
        self.open_end.store(end, Ordering::Relaxed);
    }
}

/// What one hook did between two harvests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Harvest {
    pub calls: u64,
    pub busy_ns: u64,
    /// Each thread's runs of calls, as intervals on the [`now_ns`] clock,
    /// in no particular order; intervals of different threads overlap.
    pub intervals: Vec<Span>,
}

/// Per-thread accumulators for one hook. Counting and timing are
/// separate: an untimed probe counts calls without reading the clock.
pub struct Probe {
    timed: bool,
    slots: Box<[Slot]>,
}

impl Probe {
    pub fn new(timed: bool) -> Self {
        Self {
            timed,
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
        }
    }

    /// Runs `f` as one call of the hook. The slot has no other writer, so
    /// plain relaxed loads and stores suffice; the main thread reads them
    /// after joining the workers.
    pub fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        let slot = &self.slots[slot_index()];
        bump(&slot.calls, 1);
        if !self.timed {
            return f();
        }
        let start = now_ns();
        let out = f();
        slot.record(start, now_ns());
        out
    }

    /// Adds `n` to the calling thread's count without timing anything.
    pub fn count(&self, n: u64) {
        bump(&self.slots[slot_index()].calls, n);
    }

    /// Whether any call was recorded since the last harvest; cheaper than
    /// a harvest, which writes every slot.
    pub fn active(&self) -> bool {
        self.slots
            .iter()
            .any(|s| s.calls.load(Ordering::Relaxed) > 0)
    }

    /// Sums and resets every slot. Call only while no hook runs.
    pub fn harvest(&self) -> Harvest {
        let mut h = Harvest::default();
        for s in self.slots.iter() {
            h.calls += s.calls.swap(0, Ordering::Relaxed);
            h.busy_ns += s.busy_ns.swap(0, Ordering::Relaxed);
            h.intervals.append(&mut s.closed.lock().unwrap());
            let start = s.open_start.swap(NONE, Ordering::Relaxed);
            let end = s.open_end.swap(0, Ordering::Relaxed);
            if start != NONE {
                h.intervals.push(Span { start, end });
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::union_ns;

    #[test]
    fn probe_spans_calls_across_threads() {
        let probe = Probe::new(true);
        // More threads over time than there are slots: exited threads
        // hand their slots on.
        for _ in 0..(SLOTS + 3) {
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        for _ in 0..5 {
                            probe.call(|| std::hint::black_box((0..1000u64).sum::<u64>()));
                        }
                    });
                }
            });
        }
        let mut h = probe.harvest();
        assert_eq!(h.calls, 15 * (SLOTS as u64 + 3));
        assert!(h.busy_ns > 0 && union_ns(&mut h.intervals) > 0);
        // Harvesting resets the slots.
        assert_eq!(probe.harvest(), Harvest::default());
    }

    #[test]
    fn gaps_between_batches_of_calls_stay_outside_the_span() {
        let probe = Probe::new(true);
        let slot = &probe.slots[0];
        // Two batches of twenty 5 µs calls, 1 µs apart, with 1 ms of
        // engine work between the batches.
        let mut t = 0;
        for _ in 0..2 {
            for _ in 0..20 {
                slot.record(t, t + 5_000);
                t += 6_000;
            }
            t += 1_000_000;
        }
        let mut h = probe.harvest();
        h.intervals.sort_unstable_by_key(|s| s.start);
        assert_eq!(
            h.intervals,
            [
                Span {
                    start: 0,
                    end: 119_000
                },
                Span {
                    start: 1_120_000,
                    end: 1_239_000
                }
            ]
        );
        assert_eq!(h.busy_ns, 200_000);
        assert_eq!(union_ns(&mut h.intervals), 238_000);
    }

    #[test]
    fn untimed_probe_only_counts() {
        let probe = Probe::new(false);
        assert!(!probe.active());
        assert_eq!(probe.call(|| 7), 7);
        assert!(probe.active());
        let h = probe.harvest();
        assert_eq!((h.calls, h.busy_ns), (1, 0));
        assert!(h.intervals.is_empty());
    }
}
