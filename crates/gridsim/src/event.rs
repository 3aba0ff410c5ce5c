//! A deterministic discrete-event queue.
//!
//! Events are ordered by simulated time; ties break by insertion
//! sequence so runs are reproducible regardless of floating-point
//! coincidences. The queue is the standard library's binary heap over
//! `(time, seq)`. Events scheduled in the "past" (before the last
//! popped time) are legal — an eviction completes *now* — and pop
//! next.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scheduled event of payload `T`, ordered by `(time, seq)` alone.
#[derive(Debug, Clone)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> Ord for Scheduled<T> {
    /// `partial_cmp` on the times, so `-0.0` and `0.0` tie and go by
    /// `seq`; [`EventQueue::schedule`] refuses NaN.
    fn cmp(&self, other: &Self) -> Ordering {
        let time = self.time.partial_cmp(&other.time).expect("NaN refused");
        time.then(self.seq.cmp(&other.seq))
    }
}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Scheduled<T> {}

/// Lifetime depth statistics of one [`EventQueue`]: the raw material
/// of the simulator's self-observability gauges
/// (`pegasus_sim_event_queue_*` in the metrics exposition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events ever scheduled.
    pub(crate) scheduled: u64,
    /// Maximum simultaneously pending events.
    pub peak_depth: usize,
}

/// Min-queue of timed events.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Scheduled<T>>>,
    stats: QueueStats,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            stats: QueueStats::default(),
        }
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN.
    pub fn schedule(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let seq = self.stats.scheduled;
        self.heap.push(Reverse(Scheduled { time, seq, payload }));
        self.stats.scheduled += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.heap.len());
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let Reverse(s) = self.heap.pop()?;
        Some((s.time, s.payload))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Lifetime depth statistics (the peak never resets).
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
impl<T> EventQueue<T> {
    /// Time of the earliest event without removing it.
    fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "c");
        q.schedule(1.0, "a");
        q.schedule(3.0, "b");
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((3.0, "b")));
        assert_eq!(q.pop(), Some((5.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "first");
        q.schedule(2.0, "second");
        q.schedule(2.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.len() == 0);
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_times_panic() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(10.0, 10);
        q.schedule(1.0, 1);
        assert_eq!(q.pop(), Some((1.0, 1)));
        q.schedule(5.0, 5);
        q.schedule(0.5, 0); // in the "past": still valid, pops first
        assert_eq!(q.pop(), Some((0.5, 0)));
        assert_eq!(q.pop(), Some((5.0, 5)));
        assert_eq!(q.pop(), Some((10.0, 10)));
    }

    #[test]
    fn events_across_many_days_pop_in_heap_order() {
        // Cross-check against the reference order: sort by (time, seq).
        // Times straddle many day buckets, collide inside buckets, and
        // include same-time ties and far-future outliers.
        let times = [
            0.0, 63.9, 64.0, 64.1, 128.0, 5.0, 5.0, 1000.0, 999.5, 64.0, 100_000.0, 0.25,
        ];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut expect: Vec<(f64, usize)> = times.iter().copied().zip(0..).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push(ev);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn mostly_monotone_stream_with_past_inserts() {
        // The simulation pattern: pop an event, schedule a few more a
        // bit later (and occasionally "now", i.e. in the past relative
        // to in-bucket neighbours). Order must match (time, seq).
        let mut q = EventQueue::new();
        let mut reference: Vec<(f64, u64)> = Vec::new();
        let mut seq = 0u64;
        let sched = |q: &mut EventQueue<u64>, t: f64, r: &mut Vec<(f64, u64)>, seq: &mut u64| {
            q.schedule(t, *seq);
            r.push((t, *seq));
            *seq += 1;
        };
        for i in 0..50 {
            sched(&mut q, i as f64 * 7.3, &mut reference, &mut seq);
        }
        let mut clock = 0.0;
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            assert!(t >= clock, "time went backwards");
            clock = t;
            popped.push((t, id));
            if id % 3 == 0 && seq < 200 {
                sched(&mut q, clock + 91.7, &mut reference, &mut seq);
                sched(&mut q, clock, &mut reference, &mut seq); // "now"
            }
        }
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(popped, reference);
    }

    #[test]
    fn stats_track_scheduled_and_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        q.schedule(500.0, "far");
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.peak_depth, 3);
        // Draining never lowers the peak.
        while q.pop().is_some() {}
        assert!(q.len() == 0);
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.peak_depth, 3);
        // Refilling keeps counting from where the lifetime left off.
        q.schedule(1000.0, "again");
        assert_eq!(q.stats().scheduled, 4);
        assert_eq!(q.stats().peak_depth, 3);
    }

    #[test]
    fn peek_time_looks_into_future_days() {
        let mut q = EventQueue::new();
        q.schedule(500.0, "far");
        assert_eq!(q.peek_time(), Some(500.0));
        q.schedule(499.0, "near");
        assert_eq!(q.peek_time(), Some(499.0));
    }

    use proptest::prelude::*;

    /// One step of a random session: a schedule at a time drawn
    /// relative to the last popped time (a gap under 64 s, a gap of
    /// 64 s or more, the past, one of the two zeros, `+inf`, or one of
    /// a few exact repeats), or `None` for a pop.
    fn session_time(kind: u8, x: f64, last: f64) -> Option<f64> {
        match kind {
            0 => Some(last + x % 64.0),
            1 => Some(last + 64.0 + x),
            2 => Some(last - x),
            3 => Some([0.0, -0.0][x as usize % 2]),
            4 => Some(f64::INFINITY),
            5 => Some((x / 1e3).floor() * 64.0),
            _ => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Interleaved schedules and pops against the reference: each
        /// pop returns the head of a stable sort of the pending pairs
        /// by time (ties in schedule order, `-0.0` tying `0.0`), and
        /// the depth peak is the most pairs ever pending at once.
        #[test]
        fn interleaved_pops_follow_a_stable_sort_by_time_then_seq(
            ops in proptest::collection::vec((0u8..8, 0.0f64..1e4), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut pending: Vec<(f64, usize)> = Vec::new();
            let (mut last, mut peak, mut scheduled) = (0.0f64, 0usize, 0usize);
            let steps = ops.iter().map(|&(k, x)| Some((k, x)));
            for op in steps.chain(std::iter::repeat(None)) {
                let time = match op {
                    Some((kind, x)) => session_time(kind, x, last),
                    None if pending.is_empty() => break,
                    None => None,
                };
                if let Some(time) = time {
                    q.schedule(time, scheduled);
                    pending.push((time, scheduled));
                    scheduled += 1;
                    peak = peak.max(pending.len());
                    continue;
                }
                pending.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
                let want = (!pending.is_empty()).then(|| pending.remove(0));
                let got = q.pop();
                let bits = |e: Option<(f64, usize)>| e.map(|(t, id)| (t.to_bits(), id));
                prop_assert_eq!(bits(got), bits(want));
                if let Some((t, _)) = got {
                    last = t;
                }
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.stats().peak_depth, peak);
            prop_assert_eq!(q.stats().scheduled, scheduled as u64);
        }
    }
}
