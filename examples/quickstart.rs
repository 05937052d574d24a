//! Quickstart: synthesize a NAND2 cell end to end and print its layout.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clip::core::request::SynthRequest;
use clip::layout::CellLayout;
use clip::netlist::library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a circuit (or parse one — see the custom_cell example).
    let circuit = library::nand2();
    println!(
        "circuit: {} ({} transistors)",
        circuit.name(),
        circuit.devices().len()
    );

    // 2. Generate an optimal single-row layout (CLIP-W).
    let cell = SynthRequest::new(circuit).rows(1).build()?.cell;
    println!(
        "optimal width: {} pitches (proved: {}), {} ILP vars / {} constraints, {:?}",
        cell.width, cell.optimal, cell.model_vars, cell.model_constraints, cell.stats.duration
    );

    // 3. Realize and render the symbolic layout.
    let layout = CellLayout::build(&cell);
    println!("\n{}", layout.render());

    // 4. Export machine-readable JSON.
    println!("JSON:\n{}", layout.to_json());
    Ok(())
}
