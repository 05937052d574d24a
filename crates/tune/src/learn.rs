//! Profile learning: aggregates tuner-training records from bench JSONL
//! into a [`TuningProfile`].
//!
//! `clip-bench` emits one JSON object per training run alongside its
//! ordinary measurements, tagged with the circuit's rendered
//! [`FeatureKey`]:
//!
//! ```json
//! {"record": "tune/xor2x2", "feature_key": "small-sparse-deep-flat",
//!  "jobs": 2, "seed": false, "seed_ns": 0, "wall_ns": 31877210,
//!  "winner_strategy": "cbj"}
//! ```
//!
//! [`learn`] scans a JSONL text for such lines (anything without a
//! `feature_key` field — ordinary measurements, trace embeddings — is
//! ignored), groups them by key, and derives per-bucket advice:
//!
//! * **portfolio** — strategies ordered by how often they won, most
//!   frequent first (ties alphabetical), with the never-winning defaults
//!   appended; omitted when no record named a winner;
//! * **jobs** — the observed job count with the lowest mean wall time
//!   (ties toward fewer threads); omitted when no record carried one;
//! * **hclip_seed** — vetoed (`false`) only when runs without the seed
//!   were strictly faster on mean wall time than runs with it;
//! * **seed_slice** — thinned to 6 when the seed stage consumed more
//!   than a quarter of mean wall time (it keeps its warm-start value but
//!   should stop dominating the budget).
//!
//! Everything aggregates through `BTreeMap`s, so the learned profile is
//! a deterministic function of the input text — `clip tune` twice on the
//! same JSONL writes byte-identical profiles.

use std::collections::BTreeMap;

use clip_core::tuning::STRATEGIES;
use clip_layout::jsonio::{self, Json};

use crate::features::FeatureKey;
use crate::profile::{ProfileEntry, ProfileError, TuningProfile};

/// One parsed training record.
struct Record {
    key: String,
    jobs: Option<usize>,
    seed: Option<bool>,
    seed_ns: u64,
    wall_ns: u64,
    winner: Option<String>,
}

/// Learns a [`TuningProfile`] from bench JSONL text.
///
/// Only lines carrying a `feature_key` field are training records; all
/// other lines are skipped. The result is deterministic for a given
/// input text.
///
/// # Errors
///
/// [`ProfileError::Json`] when a line with a `feature_key` is not valid
/// JSON, [`ProfileError::Schema`] when such a line is malformed (e.g.
/// the key does not parse, or `wall_ns` is missing).
pub fn learn(text: &str) -> Result<TuningProfile, ProfileError> {
    let mut by_key: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || !line.contains("\"feature_key\"") {
            continue;
        }
        let record = parse_record(line)?;
        by_key.entry(record.key.clone()).or_default().push(record);
    }
    let mut profile = TuningProfile::default();
    for (key, records) in by_key {
        profile.entries.insert(key, derive_entry(&records));
    }
    Ok(profile)
}

fn parse_record(line: &str) -> Result<Record, ProfileError> {
    let schema = |msg: String| ProfileError::Schema(msg);
    let v = jsonio::parse(line)?;
    let key = v
        .get("feature_key")
        .and_then(Json::as_str)
        .ok_or_else(|| schema("`feature_key` must be a string".into()))?
        .to_string();
    if FeatureKey::parse(&key).is_none() {
        return Err(schema(format!("`{key}` is not a feature key")));
    }
    let wall_ns = v
        .get("wall_ns")
        .and_then(Json::as_u64)
        .ok_or_else(|| schema(format!("record for `{key}` is missing `wall_ns`")))?;
    Ok(Record {
        key,
        jobs: v.get("jobs").and_then(Json::as_usize),
        seed: v.get("seed").and_then(Json::as_bool),
        seed_ns: v.get("seed_ns").and_then(Json::as_u64).unwrap_or(0),
        wall_ns,
        winner: v
            .get("winner_strategy")
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}

/// Compares two group means without floats: is `a`'s mean strictly
/// smaller than `b`'s?
fn mean_lt(a: (u128, u128), b: (u128, u128)) -> bool {
    let ((sum_a, n_a), (sum_b, n_b)) = (a, b);
    n_a > 0 && n_b > 0 && sum_a * n_b < sum_b * n_a
}

fn derive_entry(records: &[Record]) -> ProfileEntry {
    // Portfolio: winners by descending frequency (ties alphabetical),
    // then the remaining defaults.
    let mut wins: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        if let Some(w) = &r.winner {
            *wins.entry(w.as_str()).or_default() += 1;
        }
    }
    let portfolio = if wins.is_empty() {
        Vec::new()
    } else {
        let mut ranked: Vec<(&str, usize)> = wins.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut order: Vec<String> = ranked.into_iter().map(|(s, _)| s.to_string()).collect();
        for s in STRATEGIES {
            if !order.iter().any(|o| o == s) {
                order.push(s.to_string());
            }
        }
        order
    };

    // Jobs: the observed count with the lowest mean wall time, ties
    // toward fewer threads.
    let mut by_jobs: BTreeMap<usize, (u128, u128)> = BTreeMap::new();
    for r in records {
        if let Some(jobs) = r.jobs {
            let cell = by_jobs.entry(jobs).or_default();
            cell.0 += u128::from(r.wall_ns);
            cell.1 += 1;
        }
    }
    let mut jobs: Option<(usize, (u128, u128))> = None;
    for (j, group) in by_jobs {
        let better = match &jobs {
            None => true,
            Some((_, best)) => mean_lt(group, *best),
        };
        if better {
            jobs = Some((j, group));
        }
    }

    // Seed veto: only when seedless runs were strictly faster on mean.
    let mut with_seed = (0u128, 0u128);
    let mut without_seed = (0u128, 0u128);
    let mut seed_spent = (0u128, 0u128); // (seed_ns sum, wall_ns sum) with seed on
    for r in records {
        match r.seed {
            Some(true) => {
                with_seed.0 += u128::from(r.wall_ns);
                with_seed.1 += 1;
                seed_spent.0 += u128::from(r.seed_ns);
                seed_spent.1 += u128::from(r.wall_ns);
            }
            Some(false) => {
                without_seed.0 += u128::from(r.wall_ns);
                without_seed.1 += 1;
            }
            None => {}
        }
    }
    let hclip_seed = mean_lt(without_seed, with_seed).then_some(false);

    // Slice thinning: the seed kept its value but ate > 1/4 of the wall.
    let seed_slice =
        (hclip_seed.is_none() && seed_spent.1 > 0 && seed_spent.0 * 4 > seed_spent.1).then_some(6);

    ProfileEntry {
        observations: records.len(),
        hclip_seed,
        seed_slice,
        portfolio,
        jobs: jobs.map(|(j, _)| j),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str = "medium-dense-deep-flat";

    fn line(jobs: usize, seed: bool, seed_ns: u64, wall_ns: u64, winner: &str) -> String {
        format!(
            r#"{{"record":"tune/x","feature_key":"{KEY}","jobs":{jobs},"seed":{seed},"seed_ns":{seed_ns},"wall_ns":{wall_ns},"winner_strategy":"{winner}"}}"#
        )
    }

    #[test]
    fn learns_portfolio_jobs_and_seed_advice() {
        let text = [
            line(1, true, 50, 1000, "cbj-dyn"),
            line(1, true, 60, 1100, "cbj-dyn"),
            line(2, false, 0, 400, "cbj"),
            line(2, false, 0, 500, "cbj-dyn"),
            "not a training line".to_string(),
            r#"{"record":"measurement","cell":"xor2","wall_ns":1}"#.to_string(),
        ]
        .join("\n");
        let profile = learn(&text).unwrap();
        assert_eq!(profile.len(), 1);
        let entry = &profile.entries[KEY];
        assert_eq!(entry.observations, 4);
        // cbj-dyn won 3, cbj 1; evsids never won but is appended.
        assert_eq!(entry.portfolio, vec!["cbj-dyn", "cbj", "evsids"]);
        // jobs=2 runs averaged faster.
        assert_eq!(entry.jobs, Some(2));
        // Seedless runs were strictly faster: veto.
        assert_eq!(entry.hclip_seed, Some(false));
        assert_eq!(entry.seed_slice, None, "veto subsumes slice thinning");
    }

    #[test]
    fn seed_slice_thins_when_the_seed_dominates() {
        // The seed pays off (seeded runs faster) but eats half the wall.
        let text = [
            line(1, true, 500, 1000, "cbj"),
            line(1, false, 0, 2000, "cbj"),
        ]
        .join("\n");
        let entry = &learn(&text).unwrap().entries[KEY];
        assert_eq!(entry.hclip_seed, None);
        assert_eq!(entry.seed_slice, Some(6));
    }

    #[test]
    fn learning_is_deterministic_and_ties_break_small() {
        let text = [line(4, true, 0, 1000, "cbj"), line(2, true, 0, 1000, "cbj")].join("\n");
        let a = learn(&text).unwrap();
        let b = learn(&text).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        // Equal means: the smaller job count wins.
        assert_eq!(a.entries[KEY].jobs, Some(2));
    }

    #[test]
    fn empty_and_recordless_inputs_learn_empty_profiles() {
        assert!(learn("").unwrap().is_empty());
        assert!(learn("{\"cell\":\"xor2\"}\n\n").unwrap().is_empty());
    }

    #[test]
    fn malformed_training_lines_are_rejected() {
        assert!(matches!(
            learn(r#"{"feature_key": "medium-dense-deep-flat""#),
            Err(ProfileError::Json(_))
        ));
        assert!(matches!(
            learn(r#"{"feature_key": "blurp"}"#),
            Err(ProfileError::Schema(_))
        ));
        assert!(matches!(
            learn(r#"{"feature_key": "medium-dense-deep-flat"}"#),
            Err(ProfileError::Schema(_))
        ));
    }

    #[test]
    fn learned_profiles_round_trip_and_yield_plans() {
        let text = [
            line(2, true, 10, 800, "evsids"),
            line(1, false, 0, 700, "cbj"),
        ]
        .join("\n");
        let profile = learn(&text).unwrap();
        let back = TuningProfile::parse(&profile.to_json()).unwrap();
        assert_eq!(back, profile);
        let key = FeatureKey::parse(KEY).unwrap();
        let plan = back.plan_for(&key);
        assert!(!plan.is_default());
        assert_eq!(plan.source.as_deref(), Some(KEY));
    }
}
