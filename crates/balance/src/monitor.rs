//! Per-locality load monitoring: a fixed-capacity sliding window of
//! [`LoadSample`]s reduced to a single comparable score.
//!
//! The monitor is sampled by the balancer pulse (one sample per gossip
//! round), so the window covers the last `capacity` rounds. Everything is
//! O(1) per sample: running sums are maintained on insert/evict, never
//! recomputed.

use std::collections::VecDeque;

/// One observation of a locality's instantaneous load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSample {
    /// Tasks waiting in the run queues: the injector and every worker's
    /// ring.
    pub queue_depth: u64,
    /// Prestaged parcels waiting in the percolation staging buffer.
    pub backlog: u64,
}

/// Rounds of samples the runtime's per-locality monitors keep.
pub const MONITOR_WINDOW: usize = 8;

/// Sliding-window reduction of [`LoadSample`]s.
#[derive(Debug, Clone)]
pub struct LoadMonitor {
    capacity: usize,
    window: VecDeque<LoadSample>,
    sum_depth: u64,
    sum_backlog: u64,
}

impl LoadMonitor {
    /// Monitor keeping the most recent `capacity` samples (≥ 1).
    pub fn new(capacity: usize) -> LoadMonitor {
        let capacity = capacity.max(1);
        LoadMonitor {
            capacity,
            window: VecDeque::with_capacity(capacity),
            sum_depth: 0,
            sum_backlog: 0,
        }
    }

    /// Record a sample, evicting the oldest once the window is full.
    pub fn record(&mut self, s: LoadSample) {
        if self.window.len() == self.capacity {
            let old = self
                .window
                .pop_front()
                .expect("window full implies nonempty");
            self.sum_depth -= old.queue_depth;
            self.sum_backlog -= old.backlog;
        }
        self.sum_depth += s.queue_depth;
        self.sum_backlog += s.backlog;
        self.window.push_back(s);
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True before any sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Mean run-queue depth over the window.
    pub fn mean_queue_depth(&self) -> f64 {
        self.mean(self.sum_depth)
    }

    /// Mean staging backlog over the window.
    pub fn mean_backlog(&self) -> f64 {
        self.mean(self.sum_backlog)
    }

    /// The comparable load score: mean waiting work (queue depth plus
    /// staged backlog). A plain work measure keeps shed arithmetic (move
    /// half the difference) meaningful in task units, and a starving
    /// locality scores near zero.
    pub fn score(&self) -> f64 {
        self.mean_queue_depth() + self.mean_backlog()
    }

    fn mean(&self, sum: u64) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            sum as f64 / self.window.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(queue_depth: u64, backlog: u64) -> LoadSample {
        LoadSample {
            queue_depth,
            backlog,
        }
    }

    #[test]
    fn empty_monitor_scores_zero() {
        let m = LoadMonitor::new(4);
        assert!(m.is_empty());
        assert_eq!(m.score(), 0.0);
    }

    #[test]
    fn means_over_partial_window() {
        let mut m = LoadMonitor::new(8);
        m.record(s(10, 2));
        m.record(s(20, 0));
        assert_eq!(m.len(), 2);
        assert!((m.mean_queue_depth() - 15.0).abs() < 1e-12);
        assert!((m.mean_backlog() - 1.0).abs() < 1e-12);
        assert!((m.score() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut m = LoadMonitor::new(2);
        m.record(s(100, 0));
        m.record(s(10, 0));
        m.record(s(20, 0)); // evicts the 100
        assert_eq!(m.len(), 2);
        assert!((m.mean_queue_depth() - 15.0).abs() < 1e-12);
        // Keep rolling: sums must track eviction exactly.
        for _ in 0..100 {
            m.record(s(7, 3));
        }
        assert!((m.mean_queue_depth() - 7.0).abs() < 1e-12);
        assert!((m.mean_backlog() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut m = LoadMonitor::new(0);
        m.record(s(5, 0));
        m.record(s(9, 0));
        assert_eq!(m.len(), 1);
        assert!((m.score() - 9.0).abs() < 1e-12);
    }
}
