//! Build and lay out a cell from a Boolean expression string.
//!
//! ```sh
//! cargo run --release --example custom_cell -- "(a'&(e|f)'|d)'" 2
//! ```
//!
//! Accepts `&`/`.`/`*` for AND, `|`/`+` for OR, postfix `'` for NOT.

use std::time::Duration;

use clip::core::request::SynthRequest;
use clip::core::ObjectiveSpec;
use clip::layout::CellLayout;
use clip::netlist::Expr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let formula = args.get(1).map(String::as_str).unwrap_or("(a&b|c)'");
    let rows: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);

    let expr = Expr::parse(formula)?;
    let circuit = expr.compile("custom", "z")?;
    println!(
        "z = {expr}: {} transistors, {} nets",
        circuit.devices().len(),
        circuit.nets().len()
    );

    let cell = SynthRequest::new(circuit)
        .rows(rows)
        .objective(ObjectiveSpec::width_height())
        .time_limit(Duration::from_secs(60))
        .build()?
        .cell;
    println!(
        "width {} / height {} ({} tracks), optimal: {}, height in objective: {}",
        cell.width,
        cell.height,
        cell.tracks.iter().sum::<usize>(),
        cell.optimal,
        cell.height_optimized
    );
    println!("\n{}", CellLayout::build(&cell).render());
    Ok(())
}
