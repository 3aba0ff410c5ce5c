//! Platform models.
//!
//! A platform is a pool of slots with speeds, a queue-delay
//! distribution, an optional one-time allocation delay, an install
//! speed factor, a preemption hazard, and runtime jitter. Everything
//! the paper attributes to "campus cluster vs. opportunistic grid"
//! reduces to these knobs.

use crate::dist::Dist;

/// A single execution slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSpec {
    /// Execution speed relative to the reference core (2.0 = twice as
    /// fast).
    pub(crate) speed: f64,
}

/// Slot availability churn: opportunistic slots alternate between
/// available and claimed-by-owner periods with exponential durations.
/// A slot going down evicts (preempts) whatever is running on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Mean seconds a slot stays available.
    pub mean_up: f64,
    /// Mean seconds a slot stays unavailable.
    pub mean_down: f64,
}

/// A model of one execution platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformModel {
    /// Platform handle (matches the site catalog handle).
    pub name: String,
    /// The slots the workflow can use concurrently.
    pub slots: Vec<SlotSpec>,
    /// Per-job delay between submission and slot eligibility
    /// (scheduler cycle + remote queue).
    pub queue_delay: Dist,
    /// No job starts before this absolute time — the one-time pool
    /// allocation wait of a campus cluster.
    pub startup_delay: f64,
    /// Multiplier on job `install_hint` (network/download speed of
    /// the platform; 0 disables install phases entirely).
    pub install_time_factor: f64,
    /// Preemption hazard rate per busy second (0 = never preempted).
    /// A preempted attempt fails and is retried by the engine.
    pub preemption_rate: f64,
    /// Multiplicative lognormal sigma applied to each execution
    /// duration (0 = deterministic runtimes).
    pub runtime_jitter_sigma: f64,
    /// Fixed per-task service seconds added to every execution (job
    /// wrapper start-up, per-task staging from the shared filesystem,
    /// scheduler dispatch). Counted inside kickstart time, like the
    /// real kickstart wrapper's own overhead.
    pub task_overhead: f64,
    /// Optional slot availability churn (opportunistic pools); `None`
    /// means slots never leave the pool.
    pub churn: Option<ChurnModel>,
}

impl PlatformModel {
    /// A deterministic single-speed test platform with `n` slots.
    pub fn uniform(name: impl Into<String>, n: usize, speed: f64) -> Self {
        PlatformModel {
            name: name.into(),
            slots: vec![SlotSpec { speed }; n],
            queue_delay: Dist::Fixed(0.0),
            startup_delay: 0.0,
            install_time_factor: 1.0,
            preemption_rate: 0.0,
            runtime_jitter_sigma: 0.0,
            task_overhead: 0.0,
            churn: None,
        }
    }

    /// Number of slots.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
impl PlatformModel {
    /// Mean slot speed.
    pub(crate) fn mean_speed(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.slots.iter().map(|s| s.speed).sum::<f64>() / self.slots.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_platform_shape() {
        let p = PlatformModel::uniform("test", 8, 1.5);
        assert_eq!(p.slot_count(), 8);
        assert_eq!(p.mean_speed(), 1.5);
        assert_eq!(p.preemption_rate, 0.0);
        assert_eq!(p.startup_delay, 0.0);
    }

    #[test]
    fn empty_platform_mean_speed_is_zero() {
        let p = PlatformModel {
            slots: vec![],
            ..PlatformModel::uniform("x", 1, 1.0)
        };
        assert_eq!(p.mean_speed(), 0.0);
    }
}
