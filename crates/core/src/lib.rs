//! CLIP: an optimizing layout generator for two-dimensional CMOS cells.
//!
//! Reproduction of Gupta & Hayes, DAC 1997. The crate provides:
//!
//! * [`orient`] — the four pair orientations (Eq. 21 algebra);
//! * [`mod@unit`] — placeable units (pairs and HCLIP super-pairs);
//! * [`share`] — the diffusion-abutment `share` array (Fig. 2b);
//! * [`bounds`] — combinatorial width lower bounds (packing + matching);
//! * [`clipw`] — the CLIP-W width-minimization 0-1 ILP (Sec. 3);
//! * [`cliph`] — the CLIP-WH width+height model (Secs. 4–6);
//! * [`cluster`] — HCLIP and-stack clustering (Sec. 7);
//! * [`hier`] — hierarchical generation over a circuit partitioning (the
//!   paper's \[9\] extension);
//! * [`solution`] — extracted placements and geometric realization;
//! * [`exhaustive`] — a brute-force oracle for small circuits;
//! * [`verify`] — independent combinatorial re-checking of solutions;
//! * [`pipeline`] — the staged solve pipeline: shared [`pipeline::Budget`]
//!   deadlines and the per-stage [`pipeline::PipelineTrace`];
//! * [`generator`] — the staged per-cell flow (seed, model, solve,
//!   verify), the best-area row sweep, and the greedy warm start;
//! * [`objective`] — the typed [`objective::ObjectiveSpec`] every
//!   objective knob (kind, CLIP-WH ordering, height geometry, inter-row
//!   weight, critical nets) consolidates into;
//! * [`pareto`] — the frontier mode: one cell solved across a sweep of
//!   objective parameterizations, with dominance pruning;
//! * [`request`] — [`request::SynthRequest`], the one way into the
//!   generator: every synthesis mode (fixed rows, best-area sweep,
//!   hierarchical, Pareto frontier) is a request.
//!
//! # Example
//!
//! ```
//! use clip_core::request::SynthRequest;
//! use clip_netlist::library;
//!
//! let cell = SynthRequest::new(library::nand2())
//!     .build()
//!     .expect("nand2 synthesizes")
//!     .cell;
//! assert_eq!(cell.width, 2); // fully merged NAND2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Model construction indexes parallel coordinate arrays (x[u][s][r],
// span[n][c][r], ...) exactly as the paper's equations do; iterator
// rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod bounds;
pub mod cliph;
pub mod clipw;
pub mod cluster;
pub mod exhaustive;
pub mod generator;
pub mod hier;
pub mod objective;
pub mod orient;
pub(crate) mod parallel;
pub mod pareto;
pub mod pipeline;
pub mod request;
pub mod share;
pub mod solution;
pub mod unit;
pub mod verify;

pub use cliph::{ClipWH, ClipWHError, ClipWHOptions, WhObjective};
pub use clipw::{ClipW, ClipWError, ClipWOptions};
pub use generator::{GenError, GenOptions, GeneratedCell, Objective};
pub use objective::ObjectiveSpec;
pub use orient::Orient;
pub use pareto::{ParetoPoint, ParetoResult};
pub use pipeline::{Budget, ParetoPointRecord, Pipeline, PipelineTrace, Stage, StageRecord};
pub use request::{SynthRequest, SynthResult};
pub use share::{ShareArray, ShareEntry};
pub use solution::{PlacedUnit, Placement};
pub use unit::{Unit, UnitId, UnitSet};
