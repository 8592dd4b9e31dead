//! Statistics accumulators used by the benchmark driver and the experiment
//! harness.
//!
//! The thesis reports, for each (workload, isolation level, MPL) point, the
//! committed-transaction throughput and the abort rate per commit broken down
//! by cause. [`WorkerStats`] is the per-thread accumulator (no sharing on the
//! hot path); [`RunStats`] aggregates workers and computes derived metrics.

use std::time::Duration;

use crate::error::AbortKind;

/// Per-worker counters, merged into a [`RunStats`] at the end of a run.
#[derive(Default, Clone, Debug)]
pub struct WorkerStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborts broken down by cause (indexed via [`abort_index`]).
    pub aborts: [u64; 4],
    /// Sum of latencies of committed transactions, in nanoseconds.
    pub total_latency_ns: u128,
    /// Maximum observed commit latency, in nanoseconds.
    pub max_latency_ns: u64,
    /// Commits per transaction-type (workloads map their types to indexes).
    pub per_type_commits: Vec<u64>,
}

/// Maps an [`AbortKind`] to its slot in [`WorkerStats::aborts`].
pub fn abort_index(kind: AbortKind) -> usize {
    match kind {
        AbortKind::Deadlock => 0,
        AbortKind::UpdateConflict => 1,
        AbortKind::Unsafe => 2,
        AbortKind::UserRequested => 3,
    }
}

impl WorkerStats {
    /// Creates a stats block able to track `types` distinct transaction
    /// types.
    pub fn with_types(types: usize) -> Self {
        Self {
            per_type_commits: vec![0; types],
            ..Default::default()
        }
    }

    /// Records a committed transaction of type `ty` with the given latency.
    pub fn record_commit(&mut self, ty: usize, latency: Duration) {
        self.commits += 1;
        let ns = latency.as_nanos();
        self.total_latency_ns += ns;
        self.max_latency_ns = self.max_latency_ns.max(ns as u64);
        if ty < self.per_type_commits.len() {
            self.per_type_commits[ty] += 1;
        }
    }

    /// Records an abort of the given kind.
    pub fn record_abort(&mut self, kind: AbortKind) {
        self.aborts[abort_index(kind)] += 1;
    }

    /// Merges another worker's counters into this one.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.commits += other.commits;
        for i in 0..self.aborts.len() {
            self.aborts[i] += other.aborts[i];
        }
        self.total_latency_ns += other.total_latency_ns;
        self.max_latency_ns = self.max_latency_ns.max(other.max_latency_ns);
        if self.per_type_commits.len() < other.per_type_commits.len() {
            self.per_type_commits
                .resize(other.per_type_commits.len(), 0);
        }
        for (i, v) in other.per_type_commits.iter().enumerate() {
            self.per_type_commits[i] += v;
        }
    }
}

/// Aggregated results of one measured run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Total committed transactions across all workers.
    pub commits: u64,
    /// Aborts by cause: `[deadlock, conflict, unsafe, user]`.
    pub aborts: [u64; 4],
    /// Wall-clock duration of the measurement interval.
    pub elapsed: Duration,
    /// Number of worker threads (the MPL).
    pub mpl: usize,
    /// Mean latency of committed transactions.
    pub mean_latency: Duration,
    /// Max latency of committed transactions.
    pub max_latency: Duration,
    /// Commits per transaction type.
    pub per_type_commits: Vec<u64>,
}

impl RunStats {
    /// Aggregates worker stats for a run that lasted `elapsed` with `mpl`
    /// worker threads.
    pub fn aggregate(workers: &[WorkerStats], elapsed: Duration, mpl: usize) -> Self {
        let mut total = WorkerStats::default();
        for w in workers {
            total.merge(w);
        }
        let mean_latency = if total.commits > 0 {
            Duration::from_nanos((total.total_latency_ns / total.commits as u128) as u64)
        } else {
            Duration::ZERO
        };
        RunStats {
            commits: total.commits,
            aborts: total.aborts,
            elapsed,
            mpl,
            mean_latency,
            max_latency: Duration::from_nanos(total.max_latency_ns),
            per_type_commits: total.per_type_commits,
        }
    }

    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.commits as f64 / self.elapsed.as_secs_f64()
    }

    /// Total concurrency-control aborts (excluding user-requested
    /// rollbacks).
    pub fn cc_aborts(&self) -> u64 {
        self.aborts[0] + self.aborts[1] + self.aborts[2]
    }

    /// Aborts of `kind` per committed transaction (the y-axis of the error
    /// graphs in the thesis).
    pub fn aborts_per_commit(&self, kind: AbortKind) -> f64 {
        if self.commits == 0 {
            return 0.0;
        }
        self.aborts[abort_index(kind)] as f64 / self.commits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = WorkerStats::with_types(2);
        a.record_commit(0, Duration::from_micros(100));
        a.record_commit(1, Duration::from_micros(300));
        a.record_abort(AbortKind::Deadlock);

        let mut b = WorkerStats::with_types(2);
        b.record_commit(1, Duration::from_micros(200));
        b.record_abort(AbortKind::Unsafe);
        b.record_abort(AbortKind::UpdateConflict);

        a.merge(&b);
        assert_eq!(a.commits, 3);
        assert_eq!(a.aborts, [1, 1, 1, 0]);
        assert_eq!(a.per_type_commits, vec![1, 2]);
        assert_eq!(a.max_latency_ns, 300_000);
    }

    #[test]
    fn aggregate_throughput_and_rates() {
        let mut w = WorkerStats::with_types(1);
        for _ in 0..100 {
            w.record_commit(0, Duration::from_micros(50));
        }
        for _ in 0..10 {
            w.record_abort(AbortKind::Unsafe);
        }
        w.record_abort(AbortKind::UserRequested);
        let stats = RunStats::aggregate(&[w], Duration::from_secs(2), 4);
        assert_eq!(stats.commits, 100);
        assert!((stats.throughput() - 50.0).abs() < 1e-9);
        assert!((stats.aborts_per_commit(AbortKind::Unsafe) - 0.1).abs() < 1e-9);
        assert_eq!(stats.cc_aborts(), 10);
        assert_eq!(stats.mean_latency, Duration::from_micros(50));
        assert_eq!(stats.mpl, 4);
    }

    #[test]
    fn empty_run_is_safe() {
        let stats = RunStats::aggregate(&[], Duration::from_secs(1), 1);
        assert_eq!(stats.commits, 0);
        assert_eq!(stats.throughput(), 0.0);
        assert_eq!(stats.cc_aborts(), 0);
        assert_eq!(stats.aborts_per_commit(AbortKind::Deadlock), 0.0);
    }

    #[test]
    fn merge_grows_type_vector() {
        let mut a = WorkerStats::with_types(1);
        let mut b = WorkerStats::with_types(3);
        b.record_commit(2, Duration::from_micros(10));
        a.merge(&b);
        assert_eq!(a.per_type_commits, vec![0, 0, 1]);
    }
}
