//! Waveform debugging tour: export the lock acquisition as a
//! GTKWave-compatible VCD and render the receive eye as ASCII — the two
//! inspection surfaces of the link simulator.
//!
//! ```text
//! cargo run -p dft --example waveform_debugging
//! ```

use link::config::LinkConfig;
use link::synchronizer::{RunConfig, Synchronizer};
use link::LowSwingLink;
use msim::params::DesignParams;
use msim::sim::Trace;
use rt::rng::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Analog: trace the synchronizer and export a VCD.
    let p = DesignParams::paper();
    let mut sync = Synchronizer::new(&p);
    let mut trace = Trace::new(p.ui());
    let rc = RunConfig {
        cycles: 2000,
        ..RunConfig::paper_bist()
    };
    let out = sync.run(&rc, Some(&mut trace));
    let vcd = msim::vcd::to_vcd(&trace, "synchronizer");
    let analog_path = std::env::temp_dir().join("lowswing_lock.vcd");
    std::fs::write(&analog_path, &vcd)?;
    println!(
        "analog VCD : {} ({} bytes, locked = {})",
        analog_path.display(),
        vcd.len(),
        out.locked
    );

    // 2. The eye, as ASCII art.
    let mut link = LowSwingLink::new(LinkConfig::paper())?;
    let mut rng = Rng::seed_from_u64(4);
    let bits: Vec<bool> = (0..512).map(|_| rng.next_bool()).collect();
    let eye = link.eye(&bits);
    let (phase, opening) = eye.best();
    println!(
        "\nreceive eye ({:.1} mV worst-case opening at phase bin {phase}):\n",
        opening.mv()
    );
    print!("{}", eye.render_ascii(12));
    Ok(())
}
