//! Integration battery for the Verilog netlist frontend and the
//! time-expansion transition ATPG.
//!
//! Three layers of evidence:
//!
//! * a golden-file test on the vendored ITC-style `b01` benchmark
//!   (`tests/data/b01_net.v`), pinning its structural counts, stuck-at
//!   coverage, transition coverage and untestable-fault count —
//!   thread-count invariant at 1/2/4/7 workers,
//! * a property test: random acyclic netlists round-trip through the
//!   serializer and parser with AST equality, and through
//!   `Module::from_circuit` with `Circuit` equality,
//! * a robustness test: byte-level mutations of real source never panic
//!   the tokenizer, parser or lowering — they return structured errors,
//! * a drift check on the exported chain A / chain B netlists under
//!   `tests/data/` (the reference circuits of `dsim`'s PODEM tests), and
//!   a pinned digest of the served chain B's transition ATPG output.

use dft::campaign::NetlistCampaign;
use dft::chain_a::ChainA;
use dft::chain_b::ChainB;
use dsim::expand::TimeExpansion;
use dsim::verilog::{parse, Cell, CellKind, Module};
use rt::check::{check_with, Draws};

fn b01_source() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/b01_net.v"
    ))
    .expect("vendored benchmark netlist")
}

/// The vendored benchmark's golden numbers: structure, both coverage
/// figures and the ATPG's untestable verdicts, pinned exactly and
/// invariant across worker-thread counts.
#[test]
fn b01_golden_counts_and_coverage() {
    let campaign = NetlistCampaign::from_verilog(&b01_source()).expect("b01 compiles");
    let c = campaign.circuit();
    assert_eq!(campaign.name(), "b01");
    assert_eq!((c.net_count(), c.gate_count(), c.dff_count()), (44, 36, 5));
    assert_eq!(c.inputs().len(), 3);
    assert_eq!(c.outputs().len(), 2);

    let seq = campaign.run_on(1);
    assert!(seq.is_complete());
    assert_eq!(seq.stuck_at(), (88, 88), "stuck-at (total, detected)");
    assert_eq!(seq.transition(), (88, 86), "transition (total, detected)");
    assert_eq!(seq.untestable.len(), 2);
    assert_eq!(campaign.tests().len(), 46);
    for threads in [2, 4, 7] {
        assert_eq!(
            campaign.run_on(threads),
            seq,
            "diverged at {threads} threads"
        );
    }
}

/// Combinational cell kinds with the input count each takes (gate inputs
/// only — the output connection comes first and separately).
const COMB: [(CellKind, [usize; 2]); 9] = [
    (CellKind::Buf, [1, 1]),
    (CellKind::Not, [1, 1]),
    (CellKind::And, [2, 3]),
    (CellKind::Nand, [2, 3]),
    (CellKind::Or, [2, 3]),
    (CellKind::Nor, [2, 3]),
    (CellKind::Xor, [2, 2]),
    (CellKind::Xnor, [2, 2]),
    (CellKind::Mux2, [3, 3]),
];

/// A random structural module that is acyclic and single-driver by
/// construction: combinational cells read only nets declared before
/// their own output (plus flip-flop q's, which break any loop), and
/// every output port is driven by a dedicated buffer.
fn random_module(rng: &mut Draws) -> Module {
    let n_in = rng.range_usize(1, 5);
    let n_ff = rng.range_usize(0, 4);
    let n_gate = rng.range_usize(1, 9);
    let n_out = rng.range_usize(1, 3);

    let inputs: Vec<String> = (0..n_in).map(|k| format!("i{k}")).collect();
    let qs: Vec<String> = (0..n_ff).map(|k| format!("q{k}")).collect();
    let ws: Vec<String> = (0..n_gate).map(|k| format!("w{k}")).collect();
    let outputs: Vec<String> = (0..n_out).map(|k| format!("o{k}")).collect();

    let mut cells = Vec::new();
    // Readable pool for combinational cells: grows as gates are emitted.
    let mut pool: Vec<String> = inputs.iter().chain(&qs).cloned().collect();
    for w in &ws {
        let (kind, bounds) = COMB[rng.below(COMB.len())];
        let fan_in = rng.range_usize(bounds[0], bounds[1] + 1);
        let mut ports = vec![w.clone()];
        for _ in 0..fan_in {
            ports.push(pool[rng.below(pool.len())].clone());
        }
        let instance = rng.next_bool().then(|| format!("g_{w}"));
        cells.push(Cell {
            kind,
            instance,
            ports,
        });
        pool.push(w.clone());
    }
    // Flip-flop d's and output buffers may read any net at all.
    for q in &qs {
        let d = pool[rng.below(pool.len())].clone();
        cells.push(Cell {
            kind: CellKind::Dff,
            instance: rng.next_bool().then(|| format!("ff_{q}")),
            ports: vec![q.clone(), d],
        });
    }
    for o in &outputs {
        let src = pool[rng.below(pool.len())].clone();
        cells.push(Cell {
            kind: CellKind::Buf,
            instance: None,
            ports: vec![o.clone(), src],
        });
    }

    Module {
        name: "rnd".to_string(),
        ports: inputs.iter().chain(&outputs).cloned().collect(),
        inputs,
        outputs,
        wires: qs.into_iter().chain(ws).collect(),
        cells,
    }
}

/// Serialize → parse is the identity on the AST, and
/// `Module::from_circuit` → serialize → parse → lower is the identity on
/// the lowered circuit.
#[test]
fn random_netlists_round_trip_through_source() {
    check_with("netlist_roundtrip", 64, 0xB01D, |rng| {
        let m = random_module(rng);
        let parsed = parse(&m.to_source()).expect("serializer output parses");
        assert_eq!(parsed, m, "AST round trip");
        let c = m.lower().expect("generated module lowers");
        let again = parse(&Module::from_circuit(&c).to_source())
            .expect("from_circuit output parses")
            .lower()
            .expect("from_circuit output lowers");
        assert_eq!(again, c, "circuit round trip");
    });
}

/// Byte-soup robustness: random flips, truncations and insertions over
/// real source must come back as `Ok` or a structured error — the
/// frontend has no panicking path on malformed input.
#[test]
fn mutated_sources_never_panic_the_frontend() {
    let base = b01_source().into_bytes();
    check_with("frontend_panic_freedom", 256, 0x50FA, |rng| {
        let mut bytes = base.clone();
        for _ in 0..rng.range_usize(1, 17) {
            match rng.below(3) {
                0 => {
                    let i = rng.below(bytes.len());
                    bytes[i] = (rng.next_u64() & 0xFF) as u8;
                }
                1 => {
                    bytes.truncate(rng.below(bytes.len()));
                    if bytes.is_empty() {
                        bytes.push(b'(');
                    }
                }
                _ => {
                    let i = rng.below(bytes.len() + 1);
                    bytes.insert(i, (rng.next_u64() & 0x7F) as u8);
                }
            }
        }
        let src = String::from_utf8_lossy(&bytes);
        if let Ok(m) = parse(&src) {
            let _ = m.lower();
        }
    });
}

/// `tests/data/chain_a_net.v` and `chain_b4_net.v` are the Verilog
/// export of the built-in chains (`dsim`'s unit tests cannot reach
/// `dft`, so they read these files). Regenerate a stale file by writing
/// `Module::from_circuit(circuit).to_source()` over it.
#[test]
fn exported_chain_netlists_are_current() {
    for (file, circuit) in [
        ("chain_a_net.v", ChainA::new().circuit().clone()),
        ("chain_b4_net.v", ChainB::new(4).circuit().clone()),
    ] {
        let path = format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
        let on_disk = std::fs::read_to_string(&path).expect("exported netlist");
        assert_eq!(
            on_disk,
            Module::from_circuit(&circuit).to_source(),
            "{file} is stale"
        );
    }
}

/// The transition test set the server's chain B jobs run, pinned as a
/// CRC-32 of its `Debug` rendering (tests, `|`, untestable faults).
#[test]
fn served_chain_b_transition_atpg_is_pinned() {
    let chain = ChainB::new(4);
    let (tests, untestable) = TimeExpansion::new(chain.circuit()).generate_all();
    let digest = rt::exec::crc32(format!("{tests:?}|{untestable:?}").as_bytes());
    assert_eq!((tests.len(), untestable.len()), (39, 1));
    assert_eq!(digest, 0xc9b7_c18d);
}
