//! CIF (Caltech Intermediate Format) export.
//!
//! The symbolic layout maps onto an abstract λ-grid and is written as CIF
//! 2.0 boxes — the interchange format period tools (Magic, MOSIS flows)
//! consumed. The geometry is *symbolic-faithful*, not DRC-clean: strips,
//! poly columns, contacts, and routed metal-1 tracks land at their grid
//! positions with fixed λ dimensions, which is exactly what a
//! cell-assembly step downstream of CLIP would refine.
//!
//! Layer names follow the MOSIS SCMOS convention:
//! `CAA` active (diffusion), `CPG` poly, `CMF` metal-1, `CCA` contact.

use std::fmt::Write as _;

use crate::CellLayout;

/// Transistor pitch in λ.
const PITCH: i64 = 8;
/// Diffusion strip height in λ.
const STRIP: i64 = 6;
/// Routing track pitch in λ.
const TRACK: i64 = 4;
/// Poly gate width in λ.
const POLY: i64 = 2;
/// Contact square side in λ.
const CONTACT: i64 = 2;

/// One rectangle on a layer, in λ units (CIF convention: width, height,
/// center x, center y).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CifBox {
    /// Layer name (`CAA`, `CPG`, `CMF`, `CCA`).
    pub layer: &'static str,
    /// Box width.
    pub w: i64,
    /// Box height.
    pub h: i64,
    /// Center x.
    pub cx: i64,
    /// Center y.
    pub cy: i64,
}

/// The layout lowered to CIF boxes (exposed for tests and downstream
/// tooling; [`render_cif`] serializes it).
pub fn boxes(layout: &CellLayout) -> Vec<CifBox> {
    let mut out = Vec::new();
    // y grows downward in our plan; CIF y grows upward — flip at the end.
    let mut y = 0i64;

    // VDD rail.
    out.push(rail(layout, y));
    y -= STRIP;

    for (r, row) in layout.rows.iter().enumerate() {
        y = emit_row(&mut out, row, y);
        y = emit_channel(&mut out, &layout.intra_channels[r], y);
        if r + 1 < layout.rows.len() {
            y = emit_channel(&mut out, &layout.inter_channels[r], y);
        }
    }

    // GND rail.
    out.push(rail(layout, y - STRIP / 2));
    out
}

fn width_lambda(layout: &CellLayout) -> i64 {
    let cols = layout
        .rows
        .iter()
        .map(|r| r.physical_columns())
        .max()
        .unwrap_or(1) as i64;
    cols * PITCH + PITCH
}

fn rail(layout: &CellLayout, y: i64) -> CifBox {
    let w = width_lambda(layout);
    CifBox {
        layer: "CMF",
        w,
        h: STRIP / 2,
        cx: w / 2,
        cy: y - STRIP / 4,
    }
}

fn col_x(col: usize) -> i64 {
    col as i64 * PITCH + PITCH / 2 + PITCH / 2
}

fn emit_row(out: &mut Vec<CifBox>, row: &clip_route::row::PlacedRow, mut y: i64) -> i64 {
    let p_cy = y - STRIP / 2;
    let n_cy = y - STRIP - TRACK - STRIP / 2;
    // Diffusion segments (split at gaps) on both strips.
    let mut seg_start = 0usize;
    for s in 0..row.len() {
        let end_here = s + 1 == row.len() || !row.merged()[s];
        if end_here {
            let lo = row.physical_column(3 * seg_start);
            let hi = row.physical_column(3 * s + 2);
            let w = (hi - lo + 1) as i64 * PITCH - 2;
            let cx = (col_x(lo) + col_x(hi)) / 2;
            out.push(CifBox {
                layer: "CAA",
                w,
                h: STRIP,
                cx,
                cy: p_cy,
            });
            out.push(CifBox {
                layer: "CAA",
                w,
                h: STRIP,
                cx,
                cy: n_cy,
            });
            seg_start = s + 1;
        }
    }
    // Poly columns crossing both strips, and diffusion contacts.
    for a in row.anchors() {
        let cx = col_x(a.column);
        match a.strip {
            clip_route::row::Strip::Poly => out.push(CifBox {
                layer: "CPG",
                w: POLY,
                h: 2 * STRIP + TRACK + 2,
                cx,
                cy: (p_cy + n_cy) / 2,
            }),
            clip_route::row::Strip::P => out.push(CifBox {
                layer: "CCA",
                w: CONTACT,
                h: CONTACT,
                cx,
                cy: p_cy,
            }),
            clip_route::row::Strip::N => out.push(CifBox {
                layer: "CCA",
                w: CONTACT,
                h: CONTACT,
                cx,
                cy: n_cy,
            }),
        }
    }
    y = n_cy - STRIP / 2;
    y
}

fn emit_channel(out: &mut Vec<CifBox>, tracks: &[clip_route::leftedge::Track], mut y: i64) -> i64 {
    for track in tracks {
        let cy = y - TRACK / 2;
        for &(_, span) in track {
            let x0 = col_x(span.lo);
            let x1 = col_x(span.hi);
            out.push(CifBox {
                layer: "CMF",
                w: (x1 - x0).max(CONTACT) + CONTACT,
                h: TRACK / 2,
                cx: (x0 + x1) / 2,
                cy,
            });
        }
        y -= TRACK;
    }
    y
}

/// Serializes the layout as a CIF 2.0 document.
pub fn render_cif(layout: &CellLayout) -> String {
    let bs = boxes(layout);
    // Flip y so the cell sits in the first quadrant.
    let min_y = bs.iter().map(|b| b.cy - b.h / 2).min().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "(CIF generated by clip-layout);");
    let _ = writeln!(out, "DS 1 1 1;");
    let _ = writeln!(out, "9 {};", layout.name);
    let mut current = "";
    for b in &bs {
        if b.layer != current {
            let _ = writeln!(out, "L {};", b.layer);
            current = b.layer;
        }
        let _ = writeln!(out, "B {} {} {} {};", b.w, b.h, b.cx, b.cy - min_y);
    }
    let _ = writeln!(out, "DF;");
    let _ = writeln!(out, "C 1;");
    let _ = writeln!(out, "E");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_core::request::SynthRequest;
    use clip_netlist::library;

    fn layout_of(circuit: clip_netlist::Circuit, rows: usize) -> CellLayout {
        let cell = SynthRequest::new(circuit).rows(rows).build().unwrap().cell;
        CellLayout::build(&cell)
    }

    #[test]
    fn cif_structure_is_well_formed() {
        let cif = render_cif(&layout_of(library::nand2(), 1));
        assert!(cif.starts_with("(CIF"));
        assert!(cif.contains("DS 1 1 1;"));
        assert!(cif.contains("9 nand2;"));
        assert!(cif.contains("L CAA;"));
        assert!(cif.contains("L CPG;"));
        assert!(cif.contains("L CMF;"));
        assert!(cif.trim_end().ends_with('E'));
        // Every box line is "B w h x y;".
        for line in cif.lines().filter(|l| l.starts_with("B ")) {
            let fields: Vec<&str> = line.trim_end_matches(';').split_whitespace().collect();
            assert_eq!(fields.len(), 5, "{line}");
            for f in &fields[1..] {
                assert!(f.parse::<i64>().is_ok(), "{line}");
            }
        }
    }

    #[test]
    fn box_counts_match_structure() {
        let layout = layout_of(library::nand2(), 1);
        let bs = boxes(&layout);
        // Two poly gates.
        assert_eq!(bs.iter().filter(|b| b.layer == "CPG").count(), 2);
        // Fully merged NAND2: one diffusion segment per strip.
        assert_eq!(bs.iter().filter(|b| b.layer == "CAA").count(), 2);
        // Two rails + one z track.
        assert!(bs.iter().filter(|b| b.layer == "CMF").count() >= 3);
    }

    #[test]
    fn all_boxes_land_in_the_first_quadrant_after_render() {
        let cif = render_cif(&layout_of(library::xor2(), 2));
        for line in cif.lines().filter(|l| l.starts_with("B ")) {
            let fields: Vec<i64> = line
                .trim_end_matches(';')
                .split_whitespace()
                .skip(1)
                .map(|f| f.parse().unwrap())
                .collect();
            let (h, y) = (fields[1], fields[3]);
            assert!(y - h / 2 >= 0, "box below origin: {line}");
        }
    }

    #[test]
    fn gapped_rows_split_diffusion_segments() {
        // two_level_z in one row is 7 wide for 6 pairs: one gap, so more
        // than one CAA segment per strip.
        let layout = layout_of(library::two_level_z(), 1);
        let bs = boxes(&layout);
        let caa = bs.iter().filter(|b| b.layer == "CAA").count();
        assert!(caa >= 4, "expected split diffusion, got {caa} boxes");
    }
}
