//! Shared solve budgets: a wall-clock deadline plus an optional node pool.
//!
//! A [`Budget`] is created once per generation request and threaded through
//! every stage that invokes the solver. Unlike a relative time limit, the
//! deadline is an absolute [`Instant`]: a stage that starts late gets only
//! the time that is actually left, so a multi-stage pipeline (or a row
//! sweep over many models) finishes within the caller's budget instead of
//! granting each solve the full limit again.
//!
//! The optional *node pool* is shared the same way: clones of a budget
//! point at one atomic counter, and every [`crate::Solver::run`] debits the
//! decision nodes it explored, so a request-wide node budget is consumed
//! across stages exactly like the wall clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall-clock deadline plus an optional shared node budget.
///
/// Cloning is cheap and *shares* the node pool (the clone debits the same
/// counter); the deadline is plain data. The default budget is unlimited.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    nodes: Option<Arc<AtomicU64>>,
}

impl Budget {
    /// A budget with no deadline and no node limit.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget expiring `limit` from now.
    pub fn timeout(limit: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + limit),
            nodes: None,
        }
    }

    /// A budget expiring at an absolute instant.
    pub fn until(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            nodes: None,
        }
    }

    /// [`Budget::timeout`] when a limit is given, unlimited otherwise.
    pub fn from_limit(limit: Option<Duration>) -> Self {
        match limit {
            Some(l) => Budget::timeout(l),
            None => Budget::unlimited(),
        }
    }

    /// Adds a node budget of `nodes` decision nodes, shared by all clones.
    pub fn with_node_budget(mut self, nodes: u64) -> Self {
        self.nodes = Some(Arc::new(AtomicU64::new(nodes)));
        self
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Remaining wall-clock time; `None` means unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// True once the deadline has passed (never for unbounded budgets).
    pub fn expired(&self) -> bool {
        self.remaining().is_some_and(|r| r.is_zero())
    }

    /// Remaining decision nodes; `None` means unbounded.
    pub fn remaining_nodes(&self) -> Option<u64> {
        self.nodes.as_ref().map(|n| n.load(Ordering::Relaxed))
    }

    /// Debits `nodes` from the shared pool (saturating at zero).
    pub fn consume_nodes(&self, nodes: u64) {
        if let Some(pool) = &self.nodes {
            let mut current = pool.load(Ordering::Relaxed);
            loop {
                let next = current.saturating_sub(nodes);
                match pool.compare_exchange_weak(
                    current,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => current = seen,
                }
            }
        }
    }

    /// A sub-budget for an auxiliary stage: at most `1/divisor` of the
    /// remaining time, capped at `cap`, never past the parent deadline.
    /// The node pool (if any) stays shared with the parent.
    ///
    /// A `divisor` of zero asks for a zero-width slice: the child is
    /// immediately expired (the sub-stage is effectively skipped), not a
    /// division-by-zero and not a full-remaining grant.
    ///
    /// This is how the pipeline sizes its HCLIP seed solve: a quarter of
    /// whatever is left, at most a few seconds, instead of a hardcoded
    /// constant that ignores the caller's deadline.
    pub fn slice(&self, divisor: u32, cap: Duration) -> Budget {
        if divisor == 0 {
            return Budget {
                deadline: Some(Instant::now()),
                nodes: self.nodes.clone(),
            };
        }
        // An exhausted parent yields an exhausted child: the sub-stage
        // must not be granted a fresh `cap`-sized allowance after the
        // request's own deadline has already passed.
        if self.expired() {
            return Budget {
                deadline: self.deadline,
                nodes: self.nodes.clone(),
            };
        }
        let slice = match self.remaining() {
            Some(rem) => (rem / divisor).min(cap),
            None => cap,
        };
        let at = Instant::now() + slice;
        Budget {
            deadline: Some(self.deadline.map_or(at, |d| d.min(at))),
            nodes: self.nodes.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(b.deadline().is_none());
        assert!(b.remaining().is_none());
        assert!(!b.expired());
        assert!(b.remaining_nodes().is_none());
        b.consume_nodes(1000); // no pool: a no-op
        assert!(b.remaining_nodes().is_none());
    }

    #[test]
    fn timeout_expires() {
        let b = Budget::timeout(Duration::ZERO);
        assert!(b.expired());
        let b = Budget::timeout(Duration::from_secs(3600));
        assert!(!b.expired());
        assert!(b.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn node_pool_is_shared_across_clones() {
        let b = Budget::unlimited().with_node_budget(100);
        let c = b.clone();
        c.consume_nodes(30);
        assert_eq!(b.remaining_nodes(), Some(70));
        b.consume_nodes(1000); // saturates
        assert_eq!(c.remaining_nodes(), Some(0));
    }

    #[test]
    fn slicing_an_expired_budget_stays_expired() {
        let parent = Budget::timeout(Duration::ZERO);
        assert!(parent.expired());
        let child = parent.slice(4, Duration::from_secs(5));
        assert!(child.expired(), "expired parent must not refresh the cap");
        assert_eq!(child.remaining(), Some(Duration::ZERO));
        // The shared node pool still rides along on the expired child.
        let parent = Budget::timeout(Duration::ZERO).with_node_budget(7);
        let child = parent.slice(4, Duration::from_secs(5));
        assert!(child.expired());
        child.consume_nodes(3);
        assert_eq!(parent.remaining_nodes(), Some(4));
    }

    #[test]
    fn zero_ratio_slice_is_immediately_expired() {
        // A zero divisor must not panic, and must not hand the child the
        // parent's full remaining time (the old `divisor.max(1)` reading):
        // it yields a zero-width slice, expiring the child on arrival.
        let parent = Budget::timeout(Duration::from_secs(100));
        let child = parent.slice(0, Duration::from_secs(5));
        assert!(child.expired(), "zero-ratio slice must expire immediately");
        assert_eq!(child.remaining(), Some(Duration::ZERO));
        assert!(!parent.expired(), "the parent is untouched");
        // An unbounded parent expires its zero-ratio child all the same.
        let child = Budget::unlimited().slice(0, Duration::from_secs(5));
        assert!(child.expired());
        // The shared node pool still rides along on the expired child.
        let parent = Budget::unlimited().with_node_budget(9);
        let child = parent.slice(0, Duration::from_secs(5));
        assert!(child.expired());
        child.consume_nodes(4);
        assert_eq!(parent.remaining_nodes(), Some(5));
    }

    #[test]
    fn node_pool_survives_concurrent_hammering() {
        // Eight threads drain one pool in unit steps: every debit lands
        // exactly once and the count never wraps.
        let pool = Budget::unlimited().with_node_budget(8 * 1_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = pool.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        b.consume_nodes(1);
                    }
                });
            }
        });
        assert_eq!(pool.remaining_nodes(), Some(0));
        // Over-debiting under contention saturates instead of underflowing:
        // 8 threads try to take 7x50 = 350 nodes each from a pool of 100.
        let pool = Budget::unlimited().with_node_budget(100);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = pool.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        b.consume_nodes(7);
                    }
                });
            }
        });
        assert_eq!(pool.remaining_nodes(), Some(0));
        pool.consume_nodes(u64::MAX);
        assert_eq!(pool.remaining_nodes(), Some(0));
    }

    #[test]
    fn slice_respects_parent_deadline_and_cap() {
        let parent = Budget::timeout(Duration::from_secs(100));
        let child = parent.slice(4, Duration::from_secs(5));
        let rem = child.remaining().unwrap();
        assert!(rem <= Duration::from_secs(5));
        // Parent nearly expired: the child gets only what is left.
        let parent = Budget::timeout(Duration::from_millis(1));
        let child = parent.slice(4, Duration::from_secs(5));
        assert!(child.remaining().unwrap() <= Duration::from_millis(1));
        // Unbounded parent: the cap applies.
        let child = Budget::unlimited().slice(4, Duration::from_secs(5));
        assert!(child.remaining().unwrap() <= Duration::from_secs(5));
        assert!(child.remaining().unwrap() > Duration::from_secs(4));
    }
}
