//! Operation records, failure accounting and the percentile rule.

use std::collections::BTreeMap;
use std::time::Duration;

/// One timed operation of a workload.
#[derive(Clone, Debug)]
pub struct Op {
    /// Wall time from issuing the operation to holding its result.
    pub wall: Duration,
    /// `None` on success, otherwise why the operation counts as failed.
    pub failure: Option<String>,
}

impl Op {
    /// A successful operation.
    pub fn ok(wall: Duration) -> Op {
        Op {
            wall,
            failure: None,
        }
    }

    /// Marks the operation failed, keeping the first reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        if self.failure.is_none() {
            self.failure = Some(reason.into());
        }
    }

    /// True when the operation did not fail.
    pub fn succeeded(&self) -> bool {
        self.failure.is_none()
    }
}

/// Samples that must lie beyond the tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples that support a tail: below forty, the percentile with
/// ten samples beyond it would sit under p75 and be no tail.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The rank (1-based) of the tail among `n` samples: the highest
/// percentile with exactly [`MIN_BEYOND`] samples beyond it. `None` below
/// [`MIN_TAIL_SAMPLES`].
pub fn tail_rank(n: usize) -> Option<usize> {
    (n >= MIN_TAIL_SAMPLES).then(|| n - MIN_BEYOND)
}

/// The percentile a tail rank stands for, e.g. `p97.98` for rank 485 of 495.
pub fn tail_name(rank: usize, n: usize) -> String {
    format!("p{:.2}", 100.0 * rank as f64 / n as f64)
}

/// Wall times in milliseconds, ordered for percentile reading: successes
/// ascending, then failures ascending, so every failure ranks slower than
/// every success.
pub fn ranked_ms(ops: &[Op]) -> Vec<f64> {
    let ms = |op: &Op| op.wall.as_secs_f64() * 1e3;
    let mut ok: Vec<f64> = ops.iter().filter(|o| o.succeeded()).map(ms).collect();
    let mut failed: Vec<f64> = ops.iter().filter(|o| !o.succeeded()).map(ms).collect();
    ok.sort_by(f64::total_cmp);
    failed.sort_by(f64::total_cmp);
    ok.extend(failed);
    ok
}

/// The nearest-rank median of ordered samples, `None` when empty.
fn median_of_ordered(ordered: &[f64]) -> Option<f64> {
    (!ordered.is_empty()).then(|| ordered[ordered.len().div_ceil(2) - 1])
}

/// Median of plain samples (no failure ranking), `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_of_ordered(&v)
}

/// Latency figures of one run.
#[derive(Clone, Debug)]
pub struct Latency {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Median, failures ranked last: over items when the run names the
    /// item of each operation ([`item_median_ms`]), otherwise taken per
    /// round and averaged over the rounds.
    pub p50_ms: f64,
    /// The tail's rank (1-based), the number of samples it is ranked
    /// among, and its value, when there are enough samples for one.
    pub tail: Option<(usize, usize, f64)>,
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest `n / 4`, so that one interrupted sample in four
/// moves it little. `None` when empty.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 4;
    let kept = &v[k..v.len() - k];
    (!kept.is_empty()).then(|| mean(kept))
}

/// Midpoint-rule steps per sample in [`harrell_davis_median`].
const HD_STEPS: usize = 64;

/// The Harrell-Davis estimate of the median of ordered samples: the mean of
/// every sample, sample `i` of `n` weighted by the probability that a
/// Beta((n+1)/2, (n+1)/2) variable falls in `((i-1)/n, i/n]`. Unlike the
/// nearest-rank median it moves by a fraction of a gap, not the whole gap,
/// when one sample crosses a gap between clusters. `None` when empty.
pub fn harrell_davis_median(ordered: &[f64]) -> Option<f64> {
    let n = ordered.len();
    if n == 0 {
        return None;
    }
    // The Beta density up to a constant factor, 1 at x = 1/2; the weights
    // are normalized by their sum, so the factor cancels.
    let power = (n as f64 - 1.0) / 2.0;
    let step = 1.0 / (n * HD_STEPS) as f64;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            (0..HD_STEPS)
                .map(|k| {
                    let x = ((i * HD_STEPS + k) as f64 + 0.5) * step;
                    (4.0 * x * (1.0 - x)).powf(power)
                })
                .sum()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    Some(weights.iter().zip(ordered).map(|(w, v)| w * v).sum::<f64>() / total)
}

/// Each item's typical latency in milliseconds, for a run in which every
/// round runs each item once and `items[k]` is the item `ops[k]` ran: the
/// interquartile mean of the item's wall times over the rounds, and whether
/// any of its operations failed. Ordered for percentile reading: items
/// without a failure ascending, then items with one ascending.
pub fn typical_ms(ops: &[Op], items: &[usize]) -> Vec<(usize, bool, f64)> {
    let mut by_item: BTreeMap<usize, (Vec<f64>, bool)> = BTreeMap::new();
    for (op, &item) in ops.iter().zip(items) {
        let (ms, failed) = by_item.entry(item).or_default();
        ms.push(op.wall.as_secs_f64() * 1e3);
        *failed |= !op.succeeded();
    }
    let mut typical: Vec<(usize, bool, f64)> = by_item
        .into_iter()
        .map(|(item, (ms, failed))| (item, failed, interquartile_mean(&ms).unwrap_or(0.0)))
        .collect();
    typical.sort_by(|a, b| a.1.cmp(&b.1).then(a.2.total_cmp(&b.2)));
    typical
}

/// The median latency over items: the Harrell-Davis median of
/// [`typical_ms`]. Reading each item over the rounds first keeps one
/// interrupted operation from moving its item across a gap between clusters
/// of items, and the smooth median keeps an item that does cross a gap from
/// moving the median by the whole gap.
pub fn item_median_ms(ops: &[Op], items: &[usize]) -> f64 {
    let ordered: Vec<f64> = typical_ms(ops, items)
        .into_iter()
        .map(|(_, _, ms)| ms)
        .collect();
    harrell_davis_median(&ordered).unwrap_or(0.0)
}

/// Summarizes the ops of one run, which holds `rounds` rounds of equal
/// make-up back to back. When `items` names the item of each op, the median
/// is [`item_median_ms`]. Otherwise it is taken per round and averaged: the
/// host's speed shifts between runs and within them, and a median over the
/// whole run jumps between the speeds with the share of time spent at each,
/// where the mean of per-round medians moves with that share. The tail is
/// read per round and averaged when `tail_per_round` is set, and otherwise
/// over the whole run.
pub fn latency(ops: &[Op], rounds: usize, tail_per_round: bool, items: &[usize]) -> Latency {
    let per_round = ops.len().div_ceil(rounds.max(1)).max(1);
    let ranked_rounds: Vec<Vec<f64>> = ops.chunks(per_round).map(ranked_ms).collect();
    let p50_ms = if items.is_empty() {
        let medians: Vec<f64> = ranked_rounds
            .iter()
            .filter_map(|r| median_of_ordered(r))
            .collect();
        mean(&medians)
    } else {
        item_median_ms(ops, items)
    };
    let tail = if tail_per_round {
        tail_rank(per_round).map(|rank| {
            let tails: Vec<f64> = ranked_rounds
                .iter()
                .filter_map(|r| r.get(rank - 1).copied())
                .collect();
            (rank, per_round, mean(&tails))
        })
    } else {
        let ranked = ranked_ms(ops);
        tail_rank(ranked.len()).map(|rank| (rank, ranked.len(), ranked[rank - 1]))
    };
    Latency {
        attempted: ops.len(),
        failed: ops.iter().filter(|o| !o.succeeded()).count(),
        p50_ms,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Op {
        Op::ok(Duration::from_millis(v))
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(39), None);
        assert_eq!(tail_rank(40), Some(30));
        assert_eq!(tail_rank(128), Some(118));
        for n in 40..5_000 {
            let r = tail_rank(n).unwrap();
            assert_eq!(n - r, MIN_BEYOND, "exactly ten samples beyond, n={n}");
        }
        assert_eq!(tail_name(485, 495), "p97.98");
        assert_eq!(tail_name(118, 128), "p92.19");
    }

    #[test]
    fn failures_rank_after_every_success() {
        let mut slow_fail = ms(1);
        slow_fail.fail("unproved");
        let ops = vec![ms(50), slow_fail, ms(30), ms(40)];
        assert_eq!(ranked_ms(&ops), vec![30.0, 40.0, 50.0, 1.0]);
        let l = latency(&ops, 1, false, &[]);
        assert_eq!(l.attempted, 4);
        assert_eq!(l.failed, 1);
        assert_eq!(l.p50_ms, 40.0);
        assert!(l.tail.is_none(), "four samples support no tail");
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let ops: Vec<Op> = (1..=128).map(ms).collect();
        let l = latency(&ops, 1, false, &[]);
        assert_eq!(l.p50_ms, 64.0);
        assert_eq!(l.tail, Some((118, 128, 118.0)));
        let mut with_failures = ops.clone();
        for op in with_failures.iter_mut().take(20) {
            op.fail("deadline");
        }
        // Twenty fast failures move to the top: the median shifts up by
        // twenty ranks and the tail lands among the failures.
        let l = latency(&with_failures, 1, false, &[]);
        assert_eq!(l.failed, 20);
        assert_eq!(l.p50_ms, 84.0);
        assert_eq!(l.tail, Some((118, 128, 10.0)));
    }

    #[test]
    fn a_tail_read_per_round_is_averaged_over_rounds() {
        // Two rounds of 50, the second twice as slow, each with five
        // failures that rank last.
        let round = |scale: u64| {
            let mut ops: Vec<Op> = (1..=50).map(|v| ms(scale * v)).collect();
            for op in ops.iter_mut().take(5) {
                op.fail("deadline");
            }
            ops
        };
        let ops: Vec<Op> = round(1).into_iter().chain(round(2)).collect();
        // Each round: successes 6..=50 then the failures; rank 40 of 50 is
        // the success of value 45, ten samples beyond it.
        let l = latency(&ops, 2, true, &[]);
        assert_eq!(l.tail, Some((40, 50, (45.0 + 90.0) / 2.0)));
        assert_eq!(l.failed, 10);
        // Over the whole run the ten samples beyond are the two rounds'
        // failures, and with a third round the tail lands on a failure.
        assert_eq!(latency(&ops, 2, false, &[]).tail, Some((90, 100, 100.0)));
        let three: Vec<Op> = ops.iter().cloned().chain(round(1)).collect();
        let (_, _, v) = latency(&three, 3, false, &[]).tail.unwrap();
        assert!(v <= 5.0, "a failure's time, {v}");
        assert_eq!(latency(&three, 3, true, &[]).tail, Some((40, 50, 60.0)));
    }

    #[test]
    fn the_median_is_averaged_over_rounds() {
        // Two rounds of the same make-up, the second twice as slow: the
        // median of each round counts once.
        let ops: Vec<Op> = (1..=5).chain((1..=5).map(|v| 2 * v)).map(ms).collect();
        let l = latency(&ops, 2, false, &[]);
        assert_eq!(l.p50_ms, 4.5);
        assert_eq!(latency(&ops, 1, false, &[]).p50_ms, 4.0);
        // Failures rank last within their own round.
        let mut with_failure = ops.clone();
        with_failure[0].fail("deadline");
        assert_eq!(latency(&with_failure, 2, false, &[]).p50_ms, 5.0);
    }

    #[test]
    fn the_interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[3.0, 100.0, 1.0, 2.0, 4.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn the_harrell_davis_median_weighs_ranks_near_the_middle() {
        assert_eq!(harrell_davis_median(&[]), None);
        assert_eq!(harrell_davis_median(&[5.0]), Some(5.0));
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((harrell_davis_median(&nine).unwrap() - 5.0).abs() < 1e-9);
        // Three samples: Beta(2, 2) weights 7/27, 13/27, 7/27.
        let three = harrell_davis_median(&[10.0, 20.0, 5.0]).unwrap();
        assert!((three - 365.0 / 27.0).abs() < 1e-4, "{three}");
        // One sample crossing the gap between two clusters moves the
        // nearest-rank median by the whole gap, the estimate by a fraction.
        let before = [1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0];
        let after = [1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0];
        assert_eq!(median(&after).unwrap() - median(&before).unwrap(), 2.0);
        let moved = harrell_davis_median(&after).unwrap() - harrell_davis_median(&before).unwrap();
        assert!(moved > 0.0 && moved < 1.0, "{moved}");
    }

    #[test]
    fn the_item_median_reads_each_item_over_the_rounds() {
        // Four rounds of three items, in a different order each round.
        let items = [0, 1, 2, 2, 0, 1, 1, 2, 0, 0, 2, 1];
        let times = [10, 20, 30, 30, 10, 20, 20, 30, 10, 10, 30, 20];
        let mut ops: Vec<Op> = times.into_iter().map(ms).collect();
        let l = latency(&ops, 4, false, &items);
        assert!((l.p50_ms - 20.0).abs() < 1e-9, "{}", l.p50_ms);
        // One interrupted operation of item 1 does not move its item.
        ops[5].wall = Duration::from_millis(500);
        assert!((latency(&ops, 4, false, &items).p50_ms - 20.0).abs() < 1e-9);
        // An item with a failed operation ranks after every other item.
        ops[2].fail("unproved");
        let ordered = typical_ms(&ops, &items);
        assert_eq!(
            ordered.iter().map(|t| (t.0, t.1)).collect::<Vec<_>>(),
            [(0, false), (1, false), (2, true)]
        );
        ops[0].fail("unproved");
        let ordered = typical_ms(&ops, &items);
        assert_eq!(ordered[0].0, 1, "item 1 is the only item left unfailed");
        let l = latency(&ops, 4, false, &items);
        assert_eq!((l.attempted, l.failed), (12, 2));
    }

    #[test]
    fn first_failure_reason_is_kept() {
        let mut op = ms(1);
        op.fail("first");
        op.fail("second");
        assert_eq!(op.failure.as_deref(), Some("first"));
        assert!(!op.succeeded());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
