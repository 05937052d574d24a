//! Seeded, stratified netlist corpus generation.
//!
//! The paper's results (Tables 3–4) are *library-scale*: a whole CMOS3
//! cell library, not a handful of hand-picked cells. This crate grows
//! the benchmark universe to that scale: [`generate`] expands one `u64`
//! seed into an arbitrarily large population of random — but valid,
//! complementary — CMOS cells spanning the three topology families the
//! paper's evaluation exercises (series-parallel formulas, the
//! non-series-parallel Wheatstone bridge, and flat two-level logic),
//! stratified so the population covers the [`FeatureKey`] space (size,
//! net density, chain depth, flat or hier) instead of clustering in one
//! corner of it.
//!
//! Guarantees the downstream corpus driver (`clip bench --corpus`)
//! relies on:
//!
//! * **Byte determinism** — cell `i` of seed `s` is a pure function of
//!   `(s, i)` and the cells before it; the same spec always yields the
//!   same SPICE text, the same solve parameters, and the same
//!   [`CorpusCell::hash`], on every platform.
//! * **Prefix stability** — `generate(seed, n)` is a prefix of
//!   `generate(seed, m)` for `n <= m`, so a checkpointed run can be
//!   extended without re-solving anything.
//! * **Uniqueness** — no two cells of one corpus share a hash (the hash
//!   covers the SPICE deck *and* the solve parameters), so a checkpoint
//!   keyed on hashes resumes exactly.
//!
//! The stratification targets are in [`strata`]: a 16-entry cycle that
//! walks topology × size × density × chain-depth × flat-vs-hier, so a
//! corpus run has observations in most reachable keys and its results
//! can be reported per key (a handful of key points, e.g. `tiny-dense-*`,
//! are structurally impossible for complementary gates; see
//! [`reachable_keys`]).
//!
//! The keys themselves ([`CircuitFeatures`], [`FeatureKey`]) still live
//! in the `clip-tune` crate; see its crate doc for why they have not yet
//! moved here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod topology;

use std::collections::BTreeSet;
use std::fmt;

use clip_netlist::{spice, Circuit};
use clip_rng::{splitmix64, Rng};
use clip_tune::{CircuitFeatures, FeatureKey};

pub use topology::Topology;

/// How the corpus driver should solve a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Flat CLIP-W solve at [`CorpusCell::rows`].
    Flat,
    /// Hierarchical generation (partition by gates, compose).
    Hier,
}

impl Mode {
    /// Stable name used in checkpoint records.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Flat => "flat",
            Mode::Hier => "hier",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What to generate: the corpus seed and how many cells to expand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Master seed; every cell's stream derives from it.
    pub seed: u64,
    /// Number of cells to generate.
    pub cells: usize,
}

/// One generated benchmark cell with its solve parameters.
#[derive(Clone, Debug)]
pub struct CorpusCell {
    /// Position in the corpus (stable across prefix extensions).
    pub index: usize,
    /// The per-cell seed the topology builder consumed.
    pub cell_seed: u64,
    /// Topology family the cell was drawn from.
    pub topology: Topology,
    /// Flat or hierarchical solve.
    pub mode: Mode,
    /// Row count the driver solves at.
    pub rows: usize,
    /// The circuit itself (named `corpus_<index>_<topology>`).
    pub circuit: Circuit,
    /// Extracted structural features.
    pub features: CircuitFeatures,
    /// Stable identity: FNV-1a over the SPICE deck, rows, and mode,
    /// rendered as 16 lowercase hex digits. This is the checkpoint key.
    pub hash: String,
}

impl CorpusCell {
    /// The feature key this cell's solve lands in.
    pub fn key(&self) -> FeatureKey {
        self.features.key(self.mode == Mode::Hier)
    }
}

/// FNV-1a (64-bit) over arbitrary bytes.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The stable identity of one solve work item: circuit (as its SPICE
/// deck) plus the parameters that shape the answer.
pub fn work_hash(circuit: &Circuit, rows: usize, mode: Mode) -> String {
    let mut h = fnv1a(spice::write(circuit).as_bytes(), 0xcbf2_9ce4_8422_2325);
    h = fnv1a(&(rows as u64).to_le_bytes(), h);
    h = fnv1a(mode.name().as_bytes(), h);
    format!("{h:016x}")
}

/// One stratification target: a topology family with size parameters
/// and the solve shape, cycled over cell indices.
#[derive(Clone, Copy, Debug)]
pub struct Stratum {
    /// Topology family to draw from.
    pub topology: Topology,
    /// Target pair count range (inclusive) for formula families; the
    /// bridge family interprets it as its optional-extras budget.
    pub pairs: (usize, usize),
    /// Flat or hierarchical solve.
    pub mode: Mode,
    /// Row-count range (inclusive) to sample, clamped to the pair count.
    pub rows: (usize, usize),
}

/// The 16-entry stratification cycle.
///
/// Walks the feature-key space: tiny/small/medium/large sizes, shallow
/// and deep chains, sparse and dense net populations, flat and hier
/// solves. Cell `i` draws from stratum `i % 16`.
pub fn strata() -> [Stratum; 16] {
    use Topology::{Bridge, SeriesParallel, TwoLevel};
    let f = Mode::Flat;
    let h = Mode::Hier;
    [
        // Tiny (<= 4 pairs): shallow random formulas and nand/nor chains.
        Stratum {
            topology: SeriesParallel,
            pairs: (2, 3),
            mode: f,
            rows: (1, 2),
        },
        Stratum {
            topology: TwoLevel,
            pairs: (3, 4),
            mode: f,
            rows: (1, 2),
        },
        Stratum {
            topology: SeriesParallel,
            pairs: (4, 4),
            mode: f,
            rows: (2, 2),
        },
        // Small (5-8): random SP, bridges (dense), chains (deep).
        Stratum {
            topology: SeriesParallel,
            pairs: (5, 7),
            mode: f,
            rows: (2, 3),
        },
        Stratum {
            topology: Bridge,
            pairs: (0, 1),
            mode: f,
            rows: (2, 2),
        },
        Stratum {
            topology: TwoLevel,
            pairs: (5, 8),
            mode: f,
            rows: (2, 3),
        },
        Stratum {
            topology: SeriesParallel,
            pairs: (6, 8),
            mode: h,
            rows: (2, 2),
        },
        Stratum {
            topology: Bridge,
            pairs: (1, 2),
            mode: f,
            rows: (2, 3),
        },
        // Medium (9-16): the HCLIP-seed regime, flat and hier.
        Stratum {
            topology: SeriesParallel,
            pairs: (9, 12),
            mode: f,
            rows: (2, 3),
        },
        Stratum {
            topology: TwoLevel,
            pairs: (9, 14),
            mode: f,
            rows: (2, 3),
        },
        Stratum {
            topology: SeriesParallel,
            pairs: (10, 14),
            mode: h,
            rows: (2, 3),
        },
        Stratum {
            topology: TwoLevel,
            pairs: (10, 16),
            mode: h,
            rows: (2, 3),
        },
        // Large (17+): hierarchical territory.
        Stratum {
            topology: SeriesParallel,
            pairs: (17, 20),
            mode: h,
            rows: (2, 3),
        },
        Stratum {
            topology: TwoLevel,
            pairs: (17, 22),
            mode: h,
            rows: (2, 3),
        },
        // Two wildcard strata widen density coverage.
        Stratum {
            topology: SeriesParallel,
            pairs: (3, 10),
            mode: f,
            rows: (1, 3),
        },
        Stratum {
            topology: TwoLevel,
            pairs: (4, 12),
            mode: f,
            rows: (1, 3),
        },
    ]
}

/// Expands a spec into its corpus.
///
/// Deterministic, prefix-stable, and hash-unique (see the crate docs).
/// Candidate circuits that fail to pair, or whose work hash collides
/// with an earlier cell, are re-rolled from a bumped sub-seed; the
/// corpus always comes back with exactly `spec.cells` entries.
pub fn generate(spec: &CorpusSpec) -> Vec<CorpusCell> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::with_capacity(spec.cells);
    for index in 0..spec.cells {
        out.push(generate_cell(spec.seed, index, &mut seen));
    }
    out
}

/// Generates corpus cell `index` of `seed`, re-rolling until the work
/// hash is absent from `seen` (which it then joins).
fn generate_cell(seed: u64, index: usize, seen: &mut BTreeSet<String>) -> CorpusCell {
    let strata = strata();
    let stratum = strata[index % strata.len()];
    for attempt in 0u64..10_000 {
        // Independent stream per (seed, index, attempt): splitmix the
        // three words together so neighbouring cells never correlate.
        let mut state = seed;
        let a = splitmix64(&mut state);
        let mut state = a ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = splitmix64(&mut state);
        let mut state = b ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let cell_seed = splitmix64(&mut state);
        let mut rng = Rng::seed_from_u64(cell_seed);

        let Some(mut circuit) = topology::build(stratum.topology, &mut rng, stratum.pairs) else {
            continue;
        };
        circuit.set_name(&format!("corpus_{index:04}_{}", stratum.topology.name()));
        let Some(features) = CircuitFeatures::extract(&circuit) else {
            continue;
        };
        if features.pairs == 0 {
            continue;
        }
        let (lo, hi) = stratum.rows;
        let hi = hi.min(features.pairs).max(1);
        let lo = lo.min(hi).max(1);
        let rows = rng.gen_range(lo..=hi);
        let hash = work_hash(&circuit, rows, stratum.mode);
        if !seen.insert(hash.clone()) {
            continue;
        }
        return CorpusCell {
            index,
            cell_seed,
            topology: stratum.topology,
            mode: stratum.mode,
            rows,
            circuit,
            features,
            hash,
        };
    }
    unreachable!("corpus stratum cannot be satisfied: {stratum:?}")
}

/// The distinct feature keys a corpus covers, in sorted render order.
pub fn coverage(cells: &[CorpusCell]) -> BTreeSet<String> {
    cells.iter().map(|c| c.key().to_string()).collect()
}

/// Feature-key points a corpus of complementary gates can actually
/// reach. `tiny-dense-*` is structurally impossible: 4 pairs support at
/// most 10 nets (4 gates, 3 rails/output, at most 3 internal diffusion
/// nodes), and the dense bucket starts at 11.
pub fn reachable_keys() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for size in ["tiny", "small", "medium", "large"] {
        for nets in ["sparse", "dense"] {
            if size == "tiny" && nets == "dense" {
                continue;
            }
            // Large complementary gates always carry a deep chain *or*
            // a dense net population, but sparse+shallow at 17+ pairs
            // would need a wide pure-parallel network whose dual is a
            // 17-deep chain — the chain side is then deep. So
            // large-sparse-shallow is out too.
            for chain in ["shallow", "deep"] {
                if size == "large" && nets == "sparse" && chain == "shallow" {
                    continue;
                }
                for mode in ["flat", "hier"] {
                    out.insert(format!("{size}-{nets}-{chain}-{mode}"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(cells: usize) -> CorpusSpec {
        CorpusSpec { seed: 42, cells }
    }

    #[test]
    fn generation_is_deterministic_and_prefix_stable() {
        let a = generate(&spec(24));
        let b = generate(&spec(24));
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(spice::write(&x.circuit), spice::write(&y.circuit));
            assert_eq!(x.hash, y.hash);
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.mode, y.mode);
        }
        let long = generate(&spec(48));
        for (x, y) in a.iter().zip(&long) {
            assert_eq!(x.hash, y.hash, "prefix stability at index {}", x.index);
        }
        let other = generate(&CorpusSpec {
            seed: 43,
            cells: 24,
        });
        assert!(
            a.iter().zip(&other).any(|(x, y)| x.hash != y.hash),
            "different seeds must diverge"
        );
    }

    #[test]
    fn hashes_are_unique_and_cells_valid() {
        let cells = generate(&spec(64));
        let mut hashes = BTreeSet::new();
        for c in &cells {
            assert!(hashes.insert(c.hash.clone()), "duplicate hash {}", c.hash);
            assert!(c.circuit.validate().is_ok(), "cell {} invalid", c.index);
            let paired = c.circuit.clone().into_paired().expect("corpus cells pair");
            assert_eq!(paired.len(), c.features.pairs);
            assert!(
                c.rows >= 1 && c.rows <= c.features.pairs,
                "cell {}",
                c.index
            );
        }
    }

    #[test]
    fn stratification_spans_the_key_space() {
        let cells = generate(&spec(128));
        let covered = coverage(&cells);
        let reachable = reachable_keys();
        assert!(
            covered.is_subset(&reachable),
            "unexpected keys: {:?}",
            covered.difference(&reachable).collect::<Vec<_>>()
        );
        // All four sizes, both densities, both chain depths, both modes.
        for fragment in ["tiny-", "small-", "medium-", "large-"] {
            assert!(
                covered.iter().any(|k| k.starts_with(fragment)),
                "{fragment}"
            );
        }
        for fragment in [
            "-sparse-",
            "-dense-",
            "-shallow-",
            "-deep-",
            "-flat",
            "-hier",
        ] {
            assert!(covered.iter().any(|k| k.contains(fragment)), "{fragment}");
        }
        assert!(
            covered.len() >= 12,
            "128 cells should cover >= 12 key points, got {covered:?}"
        );
    }

    #[test]
    fn work_hash_separates_rows_and_modes() {
        let c = clip_netlist::library::nand2();
        let base = work_hash(&c, 1, Mode::Flat);
        assert_eq!(base.len(), 16);
        assert_ne!(base, work_hash(&c, 2, Mode::Flat));
        assert_ne!(base, work_hash(&c, 1, Mode::Hier));
    }
}
