//! Full digital campaign over user-supplied Verilog netlists: stuck-at
//! fault simulation (seeded random patterns through the PPSFP kernel)
//! plus time-expansion transition ATPG scored by launch-on-capture
//! replay, printed as a markdown table.
//!
//! ```text
//! cargo run -p bench --release --offline --bin netlist_campaign my_design.v [more.v ...]
//! ```
//!
//! The frontend's acceptance set (the paper's chains round-tripped
//! through the Verilog serializer, plus the vendored `b01`) runs through
//! the same row code in `reproduce`, which writes the tracked
//! `results/netlist_campaign.csv`.

use std::process::ExitCode;

use dft::campaign::NetlistCampaign;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: netlist_campaign <netlist.v> [more.v ...]");
        return ExitCode::from(2);
    }
    let mut campaigns = Vec::new();
    for path in &paths {
        let campaign = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|source| NetlistCampaign::from_verilog(&source).map_err(|e| e.to_string()));
        match campaign {
            Ok(c) => campaigns.push(c),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{}", bench::reproduce::netlist_rows(&campaigns).0);
    ExitCode::SUCCESS
}
