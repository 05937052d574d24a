//! Symbolic (sticks) layout assembly, rendering, and export.
//!
//! CLIP's output is an abstract placement; this crate turns it into a
//! concrete *symbolic layout*: per-row column geometry, routed channel
//! tracks (left-edge assignment), ASCII art for humans, and JSON for
//! tools.
//!
//! # Example
//!
//! ```
//! use clip_core::request::SynthRequest;
//! use clip_layout::CellLayout;
//! use clip_netlist::library;
//!
//! let cell = SynthRequest::new(library::nand2()).build()?.cell;
//! let layout = CellLayout::build(&cell);
//! let art = layout.render();
//! assert!(art.contains("VDD"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cif;
pub mod json;
pub mod jsonio;
pub mod metrics;
pub mod render;
pub mod svg;
pub mod trace;

use clip_core::generator::GeneratedCell;
use clip_netlist::NetId;
use clip_route::density::CellRouting;
use clip_route::leftedge::{assign_tracks, Track};
use clip_route::row::PlacedRow;

/// A fully assembled symbolic cell layout.
#[derive(Clone, Debug)]
pub struct CellLayout {
    /// Cell name.
    pub name: String,
    /// Placed row geometry, top to bottom.
    pub rows: Vec<PlacedRow>,
    /// Routed intra-row channels (one per row).
    pub intra_channels: Vec<Vec<Track>>,
    /// Routed inter-row channels (one per adjacent row pair).
    pub inter_channels: Vec<Vec<Track>>,
    /// Net name lookup, indexed by [`NetId::index`].
    pub net_names: Vec<String>,
    /// Cell width in transistor pitches.
    pub width: usize,
    /// Cell height in track pitches (tracks + overheads).
    pub height: usize,
}

impl CellLayout {
    /// Assembles the symbolic layout of a generated cell.
    pub fn build(cell: &GeneratedCell) -> Self {
        let nets = cell.units.paired().circuit().nets();
        let routing: CellRouting = cell.placement.routing(&cell.units);
        let rows = routing.rows().to_vec();

        let route_channel = |spans: std::collections::HashMap<NetId, clip_route::span::Span>| {
            let list: Vec<(NetId, clip_route::span::Span)> = {
                let mut v: Vec<_> = spans.into_iter().collect();
                v.sort_by_key(|&(n, s)| (s.lo, s.hi, n));
                v
            };
            assign_tracks(&list)
        };

        let intra_channels: Vec<Vec<Track>> = (0..rows.len())
            .map(|r| route_channel(routing.intra_spans(r)))
            .collect();
        let inter_channels: Vec<Vec<Track>> = (0..rows.len().saturating_sub(1))
            .map(|c| route_channel(routing.inter_spans(c)))
            .collect();

        CellLayout {
            name: cell.units.paired().circuit().name().to_owned(),
            rows,
            intra_channels,
            inter_channels,
            net_names: nets.iter().map(|n| nets.name(n).to_owned()).collect(),
            width: cell.width,
            height: cell.height,
        }
    }

    /// Net name lookup.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Renders the layout as ASCII art (see [`render`]).
    pub fn render(&self) -> String {
        render::render(self)
    }

    /// Exports the layout as a JSON document (see [`json`]).
    pub fn to_json(&self) -> String {
        json::to_json(self)
    }

    /// Renders the layout as a standalone SVG document (see [`svg`]).
    pub fn to_svg(&self) -> String {
        svg::render_svg(self)
    }

    /// Serializes the layout as a CIF 2.0 document (see [`cif`]).
    pub fn to_cif(&self) -> String {
        cif::render_cif(self)
    }

    /// Total routed tracks across all channels.
    pub fn total_tracks(&self) -> usize {
        self.intra_channels.iter().map(Vec::len).sum::<usize>()
            + self.inter_channels.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_core::request::SynthRequest;
    use clip_netlist::library;

    fn nand2_layout() -> CellLayout {
        let cell = SynthRequest::new(library::nand2()).build().unwrap().cell;
        CellLayout::build(&cell)
    }

    #[test]
    fn assembles_nand2() {
        let layout = nand2_layout();
        assert_eq!(layout.rows.len(), 1);
        assert_eq!(layout.width, 2);
        assert_eq!(layout.intra_channels.len(), 1);
        assert!(layout.inter_channels.is_empty());
        assert_eq!(layout.name, "nand2");
    }

    #[test]
    fn track_counts_match_routing_density() {
        let cell = SynthRequest::new(library::mux21())
            .rows(3)
            .build()
            .unwrap()
            .cell;
        let layout = CellLayout::build(&cell);
        // Left-edge realizes exactly the density the generator reported.
        let reported: usize = cell.tracks.iter().sum();
        assert_eq!(layout.total_tracks(), reported);
    }

    #[test]
    fn net_names_resolve() {
        let layout = nand2_layout();
        // Every net referenced by a track resolves to a non-empty name.
        for channel in layout.intra_channels.iter().chain(&layout.inter_channels) {
            for track in channel {
                for &(net, _) in track {
                    assert!(!layout.net_name(net).is_empty());
                }
            }
        }
    }
}
