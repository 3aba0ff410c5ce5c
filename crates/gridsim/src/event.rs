//! A deterministic discrete-event queue.
//!
//! Events are ordered by simulated time; ties break by insertion
//! sequence so runs are reproducible regardless of floating-point
//! coincidences.
//!
//! The implementation is a *calendar queue*: time is divided into
//! fixed-width days (`DAY_WIDTH` simulated seconds), the current day's
//! events live in one unsorted bucket, and future days hang off a
//! sorted day index. Simulation time advances almost monotonically —
//! `pop` drains the current day, then steps to the next occupied one —
//! so nearly every operation touches only the small current-day
//! bucket instead of rebalancing a global heap. The pop order is
//! still *exactly* the binary-heap order it replaced: the global
//! minimum by `(time, seq)`, bit-for-bit, because days partition the
//! time axis monotonically and in-bucket ties are resolved by a full
//! `(time, seq)` scan.
//!
//! Events scheduled in the "past" (before the current day) are legal —
//! an eviction completes *now* — and land in the current bucket, where
//! the scan finds them first.

use std::collections::BTreeMap;

/// Width of one calendar day in simulated seconds. The queue holds
/// only in-flight work (bounded by slots, not workflow size), so day
/// buckets stay small; the exact value only trades bucket length
/// against day-index hops and never affects pop order.
const DAY_WIDTH: f64 = 64.0;

/// A scheduled event of payload `T`.
#[derive(Debug, Clone)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

/// Day index of an event time: `floor(time / DAY_WIDTH)`, saturating
/// (negative times clamp to day 0, `+inf` to the last day). Monotone
/// in `time`, so cross-day order is time order.
fn day_of(time: f64) -> u64 {
    (time / DAY_WIDTH).floor() as u64
}

/// Lifetime depth and occupancy statistics of one [`EventQueue`]:
/// the raw material of the simulator's self-observability gauges
/// (`pegasus_sim_event_queue_*` in the metrics exposition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events ever scheduled.
    pub(crate) scheduled: u64,
    /// Maximum simultaneously pending events.
    pub peak_depth: usize,
    /// Maximum simultaneously occupied calendar-day buckets
    /// (current bucket included while non-empty).
    pub(crate) peak_buckets: usize,
}

/// Min-queue of timed events (calendar-bucketed).
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Events of `current_day` plus any scheduled into the past.
    current: Vec<Scheduled<T>>,
    /// The day `current` covers.
    current_day: u64,
    /// Buckets for days strictly after `current_day`, keyed by day.
    future: BTreeMap<u64, Vec<Scheduled<T>>>,
    len: usize,
    seq: u64,
    stats: QueueStats,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            current: Vec::new(),
            current_day: 0,
            future: BTreeMap::new(),
            len: 0,
            seq: 0,
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
        let ev = Scheduled {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.len += 1;
        let day = day_of(time);
        if day <= self.current_day {
            // Today, or a past insert: both are popped from the
            // current bucket, where the min-scan orders them exactly.
            self.current.push(ev);
        } else {
            self.future.entry(day).or_default().push(ev);
        }
        self.stats.scheduled += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.len);
        let occupied = self.future.len() + usize::from(!self.current.is_empty());
        self.stats.peak_buckets = self.stats.peak_buckets.max(occupied);
    }

    /// Position of the minimum `(time, seq)` event in the current
    /// bucket, assuming it is non-empty.
    fn min_in_current(&self) -> usize {
        let mut best = 0;
        for i in 1..self.current.len() {
            let (a, b) = (&self.current[i], &self.current[best]);
            if (a.time, a.seq) < (b.time, b.seq) {
                best = i;
            }
        }
        best
    }

    /// Advances `current` to the next occupied day if today is drained.
    fn advance(&mut self) {
        if self.current.is_empty() {
            if let Some((day, bucket)) = self.future.pop_first() {
                self.current = bucket;
                self.current_day = day;
            }
        }
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.advance();
        if self.current.is_empty() {
            return None;
        }
        let i = self.min_in_current();
        let s = self.current.swap_remove(i);
        self.len -= 1;
        Some((s.time, s.payload))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Lifetime depth/occupancy statistics (peaks never reset).
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
impl<T> EventQueue<T> {
    /// Time of the earliest event without removing it.
    fn peek_time(&self) -> Option<f64> {
        let bucket = if self.current.is_empty() {
            self.future.first_key_value().map(|(_, b)| b)?
        } else {
            &self.current
        };
        bucket
            .iter()
            .map(|s| (s.time, s.seq))
            .min_by(|a, b| a.partial_cmp(b).expect("event times are finite"))
            .map(|(t, _)| t)
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
    fn stats_track_scheduled_peak_depth_and_bucket_occupancy() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        q.schedule(500.0, "far"); // a second (future-day) bucket
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.peak_depth, 3);
        assert_eq!(s.peak_buckets, 2);
        // Draining never lowers the peaks.
        while q.pop().is_some() {}
        assert!(q.len() == 0);
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.peak_depth, 3);
        assert_eq!(s.peak_buckets, 2);
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
}
