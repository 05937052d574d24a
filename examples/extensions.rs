//! The paper's stated extensions, demonstrated end to end: transistor
//! folding, hierarchical generation, and performance-directed synthesis
//! (critical nets).
//!
//! ```sh
//! cargo run --release --example extensions
//! ```

use std::time::Duration;

use clip::core::cliph::{ClipWH, ClipWHOptions};
use clip::core::request::SynthRequest;
use clip::core::share::ShareArray;
use clip::core::unit::UnitSet;
use clip::netlist::fold::fold_uniform;
use clip::netlist::library;
use clip::pb::{BranchHeuristic, Solver, SolverConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Transistor folding -------------------------------------------
    println!("1. Transistor folding (XPRESS [7] direction)");
    for k in 1..=3usize {
        let paired = library::nand2().into_paired()?;
        let folded = fold_uniform(&paired, k)?;
        let cell = SynthRequest::new(folded.circuit().clone())
            .stacking()
            .build()?
            .cell;
        println!(
            "   nand2 x{k} fingers: {} pairs, width {} (device width scales 1/{k})",
            folded.len(),
            cell.width
        );
    }

    // --- 2. Hierarchical generation --------------------------------------
    println!("\n2. Hierarchical generation ([9] direction) on mux41 (42T)");
    let hier = SynthRequest::new(library::mux41())
        .rows(2)
        .time_limit(Duration::from_secs(30))
        .hierarchical()
        .build()?
        .hier
        .expect("a hierarchical request yields its composition");
    println!(
        "   partition: {} gate sub-cells, composite width {} in {} rows, solved in {:?}",
        hier.partition.len(),
        hier.width,
        hier.rows,
        hier.solve_time
    );

    // --- 3. Performance-directed synthesis --------------------------------
    println!("\n3. Critical-net span minimization (CLIP-WH)");
    let circuit = library::xor2();
    let z = circuit.nets().lookup("z").expect("output net");
    let units = UnitSet::flat(circuit.into_paired()?);
    let share = ShareArray::new(&units);
    for critical in [false, true] {
        let mut opts = ClipWHOptions::new(1);
        if critical {
            opts = opts.with_critical_nets(vec![z]);
        }
        let wh = ClipWH::build(&units, &share, &opts)?;
        let out = Solver::with_config(
            wh.model(),
            SolverConfig {
                brancher: Some(wh.brancher()),
                heuristic: BranchHeuristic::InputOrder,
                budget: clip::pb::Budget::timeout(Duration::from_secs(30)),
                ..Default::default()
            },
        )
        .run();
        let sol = out.best().expect("solves").clone();
        println!(
            "   xor2, z critical = {critical}: width {}, tracks {:?}, z spans {} columns",
            wh.width_of(&sol),
            wh.intra_tracks_of(&sol),
            wh.span_length_of(&sol, z).unwrap_or(0)
        );
    }
    Ok(())
}
