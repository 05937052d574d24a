//! Tuning decisions consumed by the generation pipeline.
//!
//! A [`TuningPlan`] is the distilled, per-request form of a learned
//! tuning profile (see the `clip-tune` crate, which owns feature
//! extraction, the persisted profile store, and the policy that produces
//! plans). The plan lives here, below the profile layer, so `clip_core`
//! can consult it at stage boundaries without depending upward.
//!
//! **Speed only, never results.** Every lever a plan exposes is
//! constrained so that applying a plan can change *where the time goes*
//! but not what a deterministic request returns:
//!
//! * the HCLIP seed can only be **vetoed**, never forced onto circuits
//!   the structural gate (flat, > 8 units) would skip — so small cells
//!   are untouchable;
//! * the seed budget slice resizes a warm-start side computation whose
//!   placement only ever *seeds* the solver's incumbent;
//! * the portfolio list is sanitized by `clip_pb` so the reference CBJ
//!   strategy is always present and always first — a one-thread solve
//!   therefore runs the identical reference configuration with or
//!   without a plan;
//! * `jobs` applies only when the caller did not set an explicit job
//!   count, and the paths it widens (the best-area row sweep, the
//!   hierarchical sub-cell fan-out) are pinned byte-identical across
//!   job counts.

use std::fmt;
use std::num::NonZeroUsize;

/// The portfolio strategy labels a plan may name, in the default racing
/// order; anything else is dropped when the plan is applied.
pub use clip_pb::portfolio::STRATEGIES;

/// Stage-boundary tuning decisions for one generation request.
///
/// The default plan (`TuningPlan::default()`) leaves every lever on
/// today's hardcoded behavior; the pipeline treats it as "no profile".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TuningPlan {
    /// `Some(false)` vetoes the HCLIP warm-start seed stage. `None` (and
    /// `Some(true)`) keep the structural default: the seed runs for flat
    /// circuits with more than 8 units. A plan can never force the seed
    /// onto a circuit the structural gate would skip.
    pub hclip_seed: Option<bool>,
    /// Budget slice divisor for the HCLIP seed solve: the seed gets at
    /// most `1/divisor` of the remaining budget (default 4). `Some(0)`
    /// skips the seed stage entirely (a zero-width slice).
    pub seed_slice: Option<u32>,
    /// Portfolio composition for solve stages, as strategy labels (see
    /// [`STRATEGIES`]). Sanitized before use: unknown
    /// labels are dropped and the reference strategy is forced first.
    /// `None` keeps the default order.
    pub portfolio: Option<Vec<String>>,
    /// Worker-thread default, applied only when the caller did not set
    /// an explicit job count on the request.
    pub jobs: Option<NonZeroUsize>,
    /// The profile feature key this plan was derived from, recorded in
    /// the trace for observability. `None` for hand-built plans.
    pub source: Option<String>,
}

impl TuningPlan {
    /// True when the plan changes nothing — no profile matched, or the
    /// matching entry carried no advice.
    pub fn is_default(&self) -> bool {
        *self == TuningPlan::default()
    }

    /// Sets the profile feature key the plan was derived from.
    pub fn with_source(mut self, key: impl Into<String>) -> Self {
        self.source = Some(key.into());
        self
    }
}

impl fmt::Display for TuningPlan {
    /// Compact `k=v` rendering of the non-default levers, recorded on
    /// trace records so a run is attributable to the profile that shaped
    /// it (e.g. `key=small-sparse-shallow-flat seed=off portfolio=cbj,evsids`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_default() {
            return write!(f, "defaults");
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(key) = &self.source {
            parts.push(format!("key={key}"));
        }
        if let Some(seed) = self.hclip_seed {
            parts.push(format!("seed={}", if seed { "on" } else { "off" }));
        }
        if let Some(slice) = self.seed_slice {
            parts.push(format!("slice={slice}"));
        }
        if let Some(portfolio) = &self.portfolio {
            parts.push(format!("portfolio={}", portfolio.join(",")));
        }
        if let Some(jobs) = self.jobs {
            parts.push(format!("jobs={jobs}"));
        }
        write!(f, "{}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_default_and_renders_as_such() {
        let plan = TuningPlan::default();
        assert!(plan.is_default());
        assert_eq!(plan.to_string(), "defaults");
    }

    #[test]
    fn display_lists_only_set_levers() {
        let plan = TuningPlan {
            hclip_seed: Some(false),
            seed_slice: Some(6),
            portfolio: Some(vec!["evsids".into(), "cbj".into()]),
            jobs: NonZeroUsize::new(4),
            source: Some("small-sparse-shallow-flat".into()),
        };
        assert!(!plan.is_default());
        assert_eq!(
            plan.to_string(),
            "key=small-sparse-shallow-flat seed=off slice=6 portfolio=evsids,cbj jobs=4"
        );
        let partial = TuningPlan {
            seed_slice: Some(2),
            ..TuningPlan::default()
        };
        assert_eq!(partial.to_string(), "slice=2");
    }
}
