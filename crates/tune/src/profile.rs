//! The persisted tuning profile: a schema-versioned JSON store mapping
//! [`FeatureKey`]s to learned per-bucket advice, and the policy that
//! distills an entry into a `clip_core` [`TuningPlan`].
//!
//! On-disk layout (pretty-printed by [`TuningProfile::to_json`]):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "entries": {
//!     "medium-dense-deep-flat": {
//!       "observations": 12,
//!       "hclip_seed": false,
//!       "seed_slice": 6,
//!       "portfolio": ["cbj", "evsids"],
//!       "jobs": 4
//!     }
//!   }
//! }
//! ```
//!
//! Every field inside an entry except `observations` is optional advice:
//! an absent field (or an empty `portfolio`) leaves the corresponding
//! lever on its hardcoded default. [`TuningProfile::plan_for`] returns
//! the default plan when the key has no entry at all — an unknown
//! circuit shape is synthesized exactly as if no profile existed.

use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;

use clip_core::tuning::TuningPlan;
use clip_layout::jsonio::{self, Json, JsonError};

use crate::features::FeatureKey;

/// The profile schema version this crate reads and writes.
pub const PROFILE_SCHEMA: i64 = 1;

/// A profile load failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ProfileError {
    /// The text is not valid JSON.
    Json(JsonError),
    /// The JSON does not match the profile schema.
    Schema(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Json(e) => write!(f, "profile: {e}"),
            ProfileError::Schema(msg) => write!(f, "profile schema: {msg}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<JsonError> for ProfileError {
    fn from(e: JsonError) -> Self {
        ProfileError::Json(e)
    }
}

/// Learned advice for one feature bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileEntry {
    /// How many training records backed this entry.
    pub observations: usize,
    /// Whether the HCLIP seed stage paid off (`Some(false)` vetoes it).
    pub hclip_seed: Option<bool>,
    /// Budget slice divisor for the seed stage (larger = thinner slice).
    pub seed_slice: Option<u32>,
    /// Portfolio strategy labels, most promising first. Empty = no
    /// advice (the pipeline keeps its default order).
    pub portfolio: Vec<String>,
    /// Worker-thread default for this bucket.
    pub jobs: Option<usize>,
}

/// A keyed store of [`ProfileEntry`]s, serializable to JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TuningProfile {
    /// Entries by rendered [`FeatureKey`]. A `BTreeMap` keeps the
    /// serialized form (and everything learned from it) deterministic.
    pub entries: BTreeMap<String, ProfileEntry>,
}

impl TuningProfile {
    /// True when no bucket has any advice.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buckets with advice.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Distills the entry matching `key` into a [`TuningPlan`], stamped
    /// with the key as its source. Returns the default plan — synthesize
    /// exactly as if no profile existed — when the key has no entry.
    pub fn plan_for(&self, key: &FeatureKey) -> TuningPlan {
        let name = key.to_string();
        let Some(entry) = self.entries.get(&name) else {
            return TuningPlan::default();
        };
        let plan = TuningPlan {
            hclip_seed: entry.hclip_seed,
            seed_slice: entry.seed_slice,
            portfolio: (!entry.portfolio.is_empty()).then(|| entry.portfolio.clone()),
            jobs: entry.jobs.and_then(NonZeroUsize::new),
            source: None,
        };
        if plan.is_default() {
            // An entry with no advice must not stamp traces.
            return TuningPlan::default();
        }
        plan.with_source(name)
    }

    /// Serializes the profile as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let entries: Vec<(String, Json)> = self
            .entries
            .iter()
            .map(|(key, e)| {
                let mut pairs: Vec<(String, Json)> =
                    vec![("observations".into(), Json::Int(e.observations as i64))];
                if let Some(seed) = e.hclip_seed {
                    pairs.push(("hclip_seed".into(), Json::Bool(seed)));
                }
                if let Some(slice) = e.seed_slice {
                    pairs.push(("seed_slice".into(), Json::Int(i64::from(slice))));
                }
                if !e.portfolio.is_empty() {
                    pairs.push((
                        "portfolio".into(),
                        Json::arr(&e.portfolio, |s| Json::Str(s.clone())),
                    ));
                }
                if let Some(jobs) = e.jobs {
                    pairs.push(("jobs".into(), Json::Int(jobs as i64)));
                }
                (key.clone(), Json::Obj(pairs))
            })
            .collect();
        Json::obj([
            ("schema", Json::Int(PROFILE_SCHEMA)),
            ("entries", Json::Obj(entries)),
        ])
        .to_pretty()
    }

    /// Parses a serialized profile document.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Json`] on malformed JSON, [`ProfileError::Schema`]
    /// on a well-formed document that is not a supported profile.
    pub fn parse(text: &str) -> Result<TuningProfile, ProfileError> {
        let v = jsonio::parse(text)?;
        let schema = |msg: String| ProfileError::Schema(msg);
        let version = v
            .get("schema")
            .and_then(Json::as_i64)
            .ok_or_else(|| schema("missing integer `schema`".into()))?;
        if version != PROFILE_SCHEMA {
            return Err(schema(format!(
                "unsupported profile schema version {version} (supported: {PROFILE_SCHEMA})"
            )));
        }
        let Some(Json::Obj(pairs)) = v.get("entries") else {
            return Err(schema("missing object `entries`".into()));
        };
        let mut entries = BTreeMap::new();
        for (key, e) in pairs {
            if FeatureKey::parse(key).is_none() {
                return Err(schema(format!("`{key}` is not a feature key")));
            }
            let opt_field = |name: &str| e.get(name).cloned();
            let entry = ProfileEntry {
                observations: e
                    .get("observations")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| schema(format!("`{key}`: missing `observations`")))?,
                hclip_seed: match opt_field("hclip_seed") {
                    None => None,
                    Some(f) => Some(f.as_bool().ok_or_else(|| {
                        schema(format!("`{key}`: `hclip_seed` must be a boolean"))
                    })?),
                },
                seed_slice: match opt_field("seed_slice") {
                    None => None,
                    Some(f) => Some(f.as_u64().and_then(|v| u32::try_from(v).ok()).ok_or_else(
                        || schema(format!("`{key}`: `seed_slice` must be a small integer")),
                    )?),
                },
                portfolio: match opt_field("portfolio") {
                    None => Vec::new(),
                    Some(f) => f
                        .as_arr()
                        .ok_or_else(|| schema(format!("`{key}`: `portfolio` must be an array")))?
                        .iter()
                        .map(|s| {
                            s.as_str().map(str::to_string).ok_or_else(|| {
                                schema(format!("`{key}`: `portfolio` entries must be strings"))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                },
                jobs: match opt_field("jobs") {
                    None => None,
                    Some(f) => Some(f.as_usize().ok_or_else(|| {
                        schema(format!("`{key}`: `jobs` must be a non-negative integer"))
                    })?),
                },
            };
            entries.insert(key.clone(), entry);
        }
        Ok(TuningProfile { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{ChainBucket, NetBucket, SizeBucket};

    fn key() -> FeatureKey {
        FeatureKey {
            size: SizeBucket::Medium,
            nets: NetBucket::Dense,
            chain: ChainBucket::Deep,
            hier: false,
        }
    }

    #[test]
    fn profile_round_trips_through_json() {
        let mut profile = TuningProfile::default();
        profile.entries.insert(
            key().to_string(),
            ProfileEntry {
                observations: 12,
                hclip_seed: Some(false),
                seed_slice: Some(6),
                portfolio: vec!["evsids".into(), "cbj".into()],
                jobs: Some(4),
            },
        );
        profile.entries.insert(
            "tiny-sparse-shallow-flat".into(),
            ProfileEntry {
                observations: 3,
                ..ProfileEntry::default()
            },
        );
        let text = profile.to_json();
        assert!(text.contains("\"schema\": 1"), "{text}");
        let back = TuningProfile::parse(&text).unwrap();
        assert_eq!(back, profile);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn plan_for_distills_matches_and_defaults_on_misses() {
        let mut profile = TuningProfile::default();
        profile.entries.insert(
            key().to_string(),
            ProfileEntry {
                observations: 5,
                hclip_seed: Some(false),
                seed_slice: None,
                portfolio: vec!["evsids".into()],
                jobs: Some(2),
            },
        );
        let plan = profile.plan_for(&key());
        assert_eq!(plan.hclip_seed, Some(false));
        assert_eq!(plan.portfolio.as_deref(), Some(&["evsids".to_string()][..]));
        assert_eq!(plan.jobs, NonZeroUsize::new(2));
        assert_eq!(plan.source.as_deref(), Some("medium-dense-deep-flat"));
        // A missing key yields the untouched default plan.
        let miss = FeatureKey {
            hier: true,
            ..key()
        };
        assert!(profile.plan_for(&miss).is_default());
        // `jobs: 0` in a (hand-edited) profile is ignored, not a panic.
        profile.entries.get_mut(&key().to_string()).unwrap().jobs = Some(0);
        assert_eq!(profile.plan_for(&key()).jobs, None);
    }

    #[test]
    fn adviceless_entries_yield_the_default_plan() {
        let mut profile = TuningProfile::default();
        profile.entries.insert(
            key().to_string(),
            ProfileEntry {
                observations: 9,
                ..ProfileEntry::default()
            },
        );
        let plan = profile.plan_for(&key());
        assert!(plan.is_default());
        assert_eq!(plan.source, None, "no advice: no trace stamp");
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        assert!(matches!(
            TuningProfile::parse("nope"),
            Err(ProfileError::Json(_))
        ));
        assert!(matches!(
            TuningProfile::parse("{}"),
            Err(ProfileError::Schema(_))
        ));
        let err = TuningProfile::parse(r#"{"schema":9,"entries":{}}"#).unwrap_err();
        assert!(
            matches!(&err, ProfileError::Schema(m) if m.contains('9')),
            "{err}"
        );
        assert!(matches!(
            TuningProfile::parse(r#"{"schema":1,"entries":{"bogus-key":{"observations":1}}}"#),
            Err(ProfileError::Schema(_))
        ));
        assert!(matches!(
            TuningProfile::parse(
                r#"{"schema":1,"entries":{"tiny-sparse-shallow-flat":{"observations":-1}}}"#
            ),
            Err(ProfileError::Schema(_))
        ));
    }
}
