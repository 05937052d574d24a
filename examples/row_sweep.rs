//! Width/height versus row count — the trade-off at the heart of the 2-D
//! cell style.
//!
//! ```sh
//! cargo run --release --example row_sweep [circuit] [max_rows]
//! ```

use std::time::Duration;

use clip::core::request::SynthRequest;
use clip::netlist::library;

fn circuit_by_name(name: &str) -> clip::netlist::Circuit {
    match name {
        "xor2" => library::xor2(),
        "bridge" => library::bridge(),
        "two_level_z" => library::two_level_z(),
        "mux21" => library::mux21(),
        "dlatch" => library::dlatch(),
        "aoi222" => library::aoi222(),
        "xor3" => library::xor3(),
        "full_adder" => library::full_adder(),
        other => {
            eprintln!("unknown circuit {other}, using xor2");
            library::xor2()
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("xor2");
    let max_rows: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    let circuit = circuit_by_name(name);
    println!(
        "{}: {} transistors — sweeping 1..={max_rows} rows\n",
        circuit.name(),
        circuit.devices().len()
    );
    println!(
        "{:<6} {:<7} {:<7} {:<6} {:<11} {:<9} {:<10}",
        "rows", "width", "height", "area", "inter-nets", "optimal", "time"
    );
    for rows in 1..=max_rows {
        let request = SynthRequest::new(circuit.clone())
            .rows(rows)
            .time_limit(Duration::from_secs(30));
        match request.build().map(|r| r.cell) {
            Ok(cell) => println!(
                "{:<6} {:<7} {:<7} {:<6} {:<11} {:<9} {:<10?}",
                rows,
                cell.width,
                cell.height,
                cell.width * cell.height,
                cell.inter_row_nets,
                cell.optimal,
                cell.stats.duration
            ),
            Err(e) => println!("{rows:<6} {e}"),
        }
    }
    Ok(())
}
