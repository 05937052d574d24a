//! Fig. 2 walkthrough: the 2-to-1 multiplexer, its diffusion-sharing
//! `share` array, and its optimal layouts in one and three rows.
//!
//! ```sh
//! cargo run --release --example mux_walkthrough
//! ```

use std::time::Duration;

use clip::core::request::SynthRequest;
use clip::core::share::ShareArray;
use clip::core::unit::UnitSet;
use clip::layout::CellLayout;
use clip::netlist::library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = library::mux21();
    println!(
        "Fig. 2a — 2-to-1 multiplexer: {} transistors, inputs {:?}",
        circuit.devices().len(),
        circuit
            .inputs()
            .iter()
            .map(|&n| circuit.nets().name(n))
            .collect::<Vec<_>>()
    );

    // Fig. 2b: the share array — all pairwise diffusion abutments.
    let units = UnitSet::flat(circuit.clone().into_paired()?);
    let share = ShareArray::new(&units);
    println!(
        "\nFig. 2b — share array ({} compatible abutments):",
        share.len()
    );
    println!(
        "{:<6} {:<8} {:<6} {:<8}",
        "pair", "orient", "pair", "orient"
    );
    for e in share.entries() {
        println!(
            "{:<6} {:<8} {:<6} {:<8}",
            units.units()[e.i].label,
            e.oi,
            units.units()[e.j].label,
            e.oj
        );
    }

    // The placements the paper's Table 3 row 4 is about.
    for rows in [1, 3] {
        let cell = SynthRequest::new(circuit.clone())
            .rows(rows)
            .time_limit(Duration::from_secs(60))
            .build()?
            .cell;
        println!(
            "\n=== {rows} row(s): width {} ({}), {} inter-row nets, solved in {:?}",
            cell.width,
            if cell.optimal {
                "optimal"
            } else {
                "best found"
            },
            cell.inter_row_nets,
            cell.stats.duration,
        );
        println!("{}", CellLayout::build(&cell).render());
    }
    Ok(())
}
