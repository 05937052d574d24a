//! CLIP — an optimizing layout generator for two-dimensional CMOS cells.
//!
//! A reproduction of Gupta & Hayes (DAC 1997): CMOS leaf cells are
//! synthesized by a 0-1 ILP that simultaneously decides each P/N pair's
//! row, slot, orientation, and diffusion sharing, minimizing cell width
//! (CLIP-W) or width-then-routing-tracks (CLIP-WH); HCLIP and-stack
//! clustering scales the method to larger cells.
//!
//! This facade re-exports every subsystem crate. See the README for an
//! overview, `DESIGN.md` for the architecture, and `examples/` for
//! runnable entry points.
//!
//! # Example
//!
//! ```
//! use clip::core::request::SynthRequest;
//! use clip::netlist::library;
//!
//! // The paper's Fig. 2 multiplexer, placed optimally in three rows.
//! let cell = SynthRequest::new(library::mux21()).rows(3).build()?.cell;
//! assert_eq!(cell.width, 3); // Table 3: the mux is 3 pitches wide in 3 rows
//! assert!(cell.optimal);
//! # Ok::<(), clip::core::generator::GenError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Heuristic baselines (the Virtuoso comparator substitute).
pub use clip_baselines as baselines;
/// Benchmark harness: timing, corpus driver, regression gate.
pub use clip_bench as bench;
/// The CLIP models: CLIP-W, CLIP-WH, HCLIP, hierarchy, verification.
pub use clip_core as core;
/// Seeded, stratified netlist corpus generation.
pub use clip_corpus as corpus;
/// Symbolic layout assembly, ASCII/SVG rendering, JSON export.
pub use clip_layout as layout;
/// Circuits, pairing, expression compiler, simulator, benchmark library.
pub use clip_netlist as netlist;
/// The 0-1 ILP (pseudo-Boolean) solver.
pub use clip_pb as pb;
/// Track density, net spans, channel routing.
pub use clip_route as route;
/// The batch synthesis daemon: wire protocol, memo cache, fault sites.
pub use clip_serve as serve;
