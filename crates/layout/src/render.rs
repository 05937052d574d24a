//! ASCII sticks rendering.
//!
//! Each P/N row renders as three strips — P diffusion, poly gates, N
//! diffusion — with one fixed-width cell per *physical* column. Diffusion
//! gaps appear as `:` separators; merged boundaries are seamless. Channel
//! tracks render underneath each row as horizontal runs labelled with the
//! net name:
//!
//! ```text
//! == VDD ==============================
//! P: VDD  .z   VDD
//! G:      a         b
//! N: GND  .m   .z
//!    --a-------        (track 1)
//! == GND ==============================
//! ```

use clip_route::leftedge::Track;
use clip_route::row::{PlacedRow, Strip};

use crate::CellLayout;

/// Width of one rendered column cell, in characters.
const CELL: usize = 6;

/// Renders the full cell.
pub fn render(layout: &CellLayout) -> String {
    let total_cols = layout
        .rows
        .iter()
        .map(PlacedRow::physical_columns)
        .max()
        .unwrap_or(0);
    let line_len = total_cols * CELL + 4;
    let mut out = String::new();
    out.push_str(&format!(
        "cell {} — width {} pitches, height {} tracks-units\n",
        layout.name, layout.width, layout.height
    ));
    out.push_str(&rail_line("VDD", line_len));
    for (r, row) in layout.rows.iter().enumerate() {
        out.push_str(&render_row(layout, row));
        out.push_str(&render_channel(
            layout,
            &layout.intra_channels[r],
            "channel",
        ));
        if r + 1 < layout.rows.len() {
            out.push_str(&render_channel(
                layout,
                &layout.inter_channels[r],
                "inter-row",
            ));
        }
    }
    out.push_str(&rail_line("GND", line_len));
    out
}

fn rail_line(label: &str, len: usize) -> String {
    let mut s = format!("== {label} ");
    while s.len() < len {
        s.push('=');
    }
    s.push('\n');
    s
}

/// Renders one row's three strips.
fn render_row(layout: &CellLayout, row: &PlacedRow) -> String {
    let cols = row.physical_columns();
    let mut p_line = vec![String::new(); cols];
    let mut g_line = vec![String::new(); cols];
    let mut n_line = vec![String::new(); cols];
    for anchor in row.anchors() {
        let name = clip(layout.net_name(anchor.net));
        let slot = match anchor.strip {
            Strip::P => &mut p_line,
            Strip::Poly => &mut g_line,
            Strip::N => &mut n_line,
        };
        // Merged columns receive the same net from both sides; keep one.
        if slot[anchor.column].is_empty() {
            slot[anchor.column] = name;
        }
    }
    // Mark gaps: a non-merged boundary renders a ':' in all three strips
    // at the column boundary position.
    let mut gap_after = vec![false; cols];
    {
        let merged = row.merged();
        for (s, &m) in merged.iter().enumerate() {
            if !m {
                // Right diffusion column of slot s.
                let col = row.physical_column(3 * s + 2);
                gap_after[col] = true;
            }
        }
    }
    let fmt_strip = |label: &str, cells: &[String]| {
        let mut line = format!("{label}: ");
        for (c, cell) in cells.iter().enumerate() {
            let sep = if gap_after[c] { ':' } else { ' ' };
            line.push_str(&format!("{cell:<w$}{sep}", w = CELL - 1));
        }
        line.trim_end().to_owned() + "\n"
    };
    format!(
        "{}{}{}",
        fmt_strip("P", &p_line),
        fmt_strip("G", &g_line),
        fmt_strip("N", &n_line)
    )
}

/// Renders a routed channel: one line per track.
fn render_channel(layout: &CellLayout, tracks: &[Track], label: &str) -> String {
    if tracks.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for (t, track) in tracks.iter().enumerate() {
        let mut line = format!("   {label} t{}: ", t + 1);
        let base = line.len();
        for &(net, span) in track {
            let start = base + span.lo * CELL;
            while line.len() < start {
                line.push(' ');
            }
            let width = (span.hi - span.lo + 1) * CELL - 1;
            let name = clip(layout.net_name(net));
            let mut run = String::new();
            run.push('|');
            run.push_str(&name);
            while run.len() < width {
                run.push('-');
            }
            run.truncate(width.max(2) - 1);
            run.push('|');
            line.push_str(&run);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Truncates a net name to fit a rendered cell.
fn clip(name: &str) -> String {
    let mut s: String = name.chars().take(CELL - 2).collect();
    if s.len() < name.chars().count() {
        s.pop();
        s.push('~');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellLayout;
    use clip_core::request::SynthRequest;
    use clip_netlist::library;

    fn render_cell(circuit: clip_netlist::Circuit, rows: usize) -> String {
        let cell = SynthRequest::new(circuit).rows(rows).build().unwrap().cell;
        CellLayout::build(&cell).render()
    }

    #[test]
    fn nand2_renders_three_strips_and_rails() {
        let art = render_cell(library::nand2(), 1);
        assert!(art.contains("== VDD"));
        assert!(art.contains("== GND"));
        assert_eq!(art.matches("P: ").count(), 1);
        assert_eq!(art.matches("G: ").count(), 1);
        assert_eq!(art.matches("N: ").count(), 1);
    }

    #[test]
    fn multi_row_renders_inter_channels() {
        let art = render_cell(library::mux21(), 3);
        assert_eq!(art.matches("P: ").count(), 3);
        // The mux in 3 rows has crossing nets, so at least one inter-row
        // track line renders.
        assert!(art.contains("inter-row"));
    }

    #[test]
    fn gaps_render_as_colons() {
        // two_level_z in one row has exactly one gap (width 7 = 6 pairs+1).
        let art = render_cell(library::two_level_z(), 1);
        let p_line = art.lines().find(|l| l.starts_with("P: ")).unwrap();
        assert!(p_line.contains(':'), "{p_line}");
    }

    #[test]
    fn long_names_are_clipped() {
        assert_eq!(clip("abcd"), "abcd");
        let clipped = clip("abcdefghij");
        assert!(clipped.len() <= CELL - 2);
        assert!(clipped.ends_with('~'));
    }
}
