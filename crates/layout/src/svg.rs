//! SVG rendering of symbolic layouts.
//!
//! A scalable counterpart of the ASCII sticks view: diffusion strips as
//! horizontal bands (P in amber, N in green), poly gate columns crossing
//! them in red, routed channel tracks as labelled metal-1 lines in blue,
//! and the supply rails framing the cell. Dimensions are abstract grid
//! units — this is a *symbolic* layout, not DRC geometry.

use std::fmt::Write as _;

use crate::CellLayout;

/// Grid pitch in SVG user units.
const PITCH: usize = 42;
/// Height of one diffusion strip.
const STRIP: usize = 18;
/// Height of one routing track.
const TRACK: usize = 16;
/// Left margin (labels).
const MARGIN: usize = 60;

/// Renders the layout as a standalone SVG document.
pub fn render_svg(layout: &CellLayout) -> String {
    let cols = layout
        .rows
        .iter()
        .map(|r| r.physical_columns())
        .max()
        .unwrap_or(1);
    let width = MARGIN * 2 + cols * PITCH;

    // Vertical plan: rail, per row [P strip, channel tracks, N strip],
    // inter-row channel tracks, ..., rail.
    let mut body = String::new();
    let mut y = 0usize;

    let rail = |body: &mut String, y: &mut usize, label: &str| {
        let _ = write!(
            body,
            r##"<rect x="0" y="{y}" width="{width}" height="{STRIP}" fill="#444"/><text x="6" y="{ty}" fill="#fff" font-size="12">{label}</text>"##,
            y = *y,
            ty = *y + 13
        );
        *y += STRIP + 6;
    };

    rail(&mut body, &mut y, "VDD");

    for (r, row) in layout.rows.iter().enumerate() {
        y = draw_row(&mut body, layout, row, y);
        y = draw_channel(&mut body, layout, &layout.intra_channels[r], y, cols);
        if r + 1 < layout.rows.len() {
            y += 4;
            y = draw_channel(&mut body, layout, &layout.inter_channels[r], y, cols);
            y += 4;
        }
    }

    rail(&mut body, &mut y, "GND");

    format!(
        concat!(
            r##"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" "##,
            r##"viewBox="0 0 {w} {h}" font-family="monospace">"##,
            r##"<rect width="{w}" height="{h}" fill="#fafafa"/>{body}"##,
            r##"<text x="6" y="{h2}" font-size="11" fill="#333">{name}: {cw} pitches x {ch} units</text>"##,
            "</svg>"
        ),
        w = width,
        h = y + 20,
        h2 = y + 14,
        body = body,
        name = layout.name,
        cw = layout.width,
        ch = layout.height
    )
}

/// Draws one P/N row (P strip, poly columns, N strip); returns the next y.
fn draw_row(
    body: &mut String,
    layout: &CellLayout,
    row: &clip_route::row::PlacedRow,
    mut y: usize,
) -> usize {
    let x_of = |col: usize| MARGIN + col * PITCH;
    let p_y = y;
    let n_y = y + STRIP + TRACK; // poly crosses the small mid gap
                                 // Diffusion segments: contiguous runs of slots (split at gaps).
    let mut seg_start = 0usize;
    for s in 0..row.len() {
        let end_here = s + 1 == row.len() || !row.merged()[s];
        if end_here {
            let lo = row.physical_column(3 * seg_start);
            let hi = row.physical_column(3 * s + 2);
            for (yy, color) in [(p_y, "#e8b84b"), (n_y, "#7bc47f")] {
                let _ = write!(
                    body,
                    r##"<rect x="{x}" y="{yy}" width="{w}" height="{STRIP}" fill="{color}" stroke="#333"/>"##,
                    x = x_of(lo),
                    w = (hi - lo + 1) * PITCH,
                );
            }
            seg_start = s + 1;
        }
    }
    // Poly gates and terminal labels.
    for a in row.anchors() {
        let x = x_of(a.column) + PITCH / 2;
        match a.strip {
            clip_route::row::Strip::Poly => {
                let _ = write!(
                    body,
                    r##"<rect x="{x}" y="{p_y}" width="6" height="{h}" fill="#c0392b"/><text x="{tx}" y="{ty}" font-size="10" fill="#c0392b">{name}</text>"##,
                    x = x - 3,
                    h = n_y + STRIP - p_y,
                    tx = x - 8,
                    ty = p_y.saturating_sub(2).max(10),
                    name = layout.net_name(a.net)
                );
            }
            strip => {
                let yy = if strip == clip_route::row::Strip::P {
                    p_y + 12
                } else {
                    n_y + 12
                };
                let _ = write!(
                    body,
                    r##"<text x="{tx}" y="{yy}" font-size="9" fill="#222">{name}</text>"##,
                    tx = x - 14,
                    name = layout.net_name(a.net)
                );
            }
        }
    }
    y = n_y + STRIP + 4;
    y
}

/// Draws the tracks of one channel; returns the next y.
fn draw_channel(
    body: &mut String,
    layout: &CellLayout,
    tracks: &[clip_route::leftedge::Track],
    mut y: usize,
    _cols: usize,
) -> usize {
    for track in tracks {
        for &(net, span) in track {
            let x0 = MARGIN + span.lo * PITCH + PITCH / 2;
            let x1 = MARGIN + span.hi * PITCH + PITCH / 2;
            let _ = write!(
                body,
                r##"<line x1="{x0}" y1="{ym}" x2="{x1}" y2="{ym}" stroke="#2266cc" stroke-width="4"/><text x="{x0}" y="{ty}" font-size="9" fill="#2266cc">{name}</text>"##,
                ym = y + TRACK / 2,
                ty = y + 6,
                name = layout.net_name(net)
            );
        }
        y += TRACK;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_core::request::SynthRequest;
    use clip_netlist::library;

    fn svg_of(circuit: clip_netlist::Circuit, rows: usize) -> String {
        let cell = SynthRequest::new(circuit).rows(rows).build().unwrap().cell;
        render_svg(&CellLayout::build(&cell))
    }

    #[test]
    fn svg_is_well_formed() {
        let svg = svg_of(library::nand2(), 1);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("VDD"));
        assert!(svg.contains("GND"));
        // Two poly gates for a NAND2.
        assert_eq!(svg.matches("#c0392b\"/>").count(), 2);
    }

    #[test]
    fn multi_row_svg_has_all_rows() {
        let svg = svg_of(library::two_level_z(), 2);
        // Two rows of two strips each (possibly segmented): at least 4
        // diffusion rectangles.
        assert!(svg.matches("#e8b84b").count() >= 2);
        assert!(svg.matches("#7bc47f").count() >= 2);
    }

    #[test]
    fn tracks_render_as_lines() {
        let svg = svg_of(library::xor2(), 1);
        assert!(svg.contains("<line"), "expected channel tracks");
    }
}
