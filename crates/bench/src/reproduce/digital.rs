//! Gate-level experiments: the digital blocks' fault coverage, coverage-
//! guided fuzzing and the Verilog netlist campaign.

use conform::coverage::set_coverage;
use conform::fuzz::{fuzz, FuzzConfig};
use dft::architecture::TestableLink;
use dft::campaign::NetlistCampaign;
use dft::chain_b::ChainB;
use dsim::atpg::random_vectors;
use dsim::blocks::divider::Divider;
use dsim::blocks::fsm::ControlFsm;
use dsim::blocks::lock_counter::LockCounter;
use dsim::circuit::Circuit;
use dsim::podem::generate_all;
use dsim::stuck_at::scan_coverage;
use dsim::transition::{transition_coverage, two_pattern_tests};

use super::section;
use crate::report::{markdown_table, percent};
use crate::Csv;

/// §IV: 100 % stuck-at (random and PODEM) and transition coverage of
/// every digital block.
pub(super) fn coverage() -> String {
    let link = TestableLink::paper();
    let blocks: [(&str, &Circuit, usize, u64); 6] = [
        ("UP/DN ring counter", link.ring_counter().circuit(), 256, 1),
        ("switch matrix", link.switch_matrix().circuit(), 512, 2),
        ("clock divider", link.divider().circuit(), 256, 3),
        ("lock detector", link.lock_detector().circuit(), 256, 4),
        ("control FSM", link.control_fsm().circuit(), 256, 5),
        ("Alexander PD", link.phase_detector().circuit(), 256, 6),
    ];
    let rows: Vec<Vec<String>> = blocks
        .iter()
        .map(|&(name, circuit, patterns, seed)| {
            let vectors = random_vectors(circuit, patterns, seed);
            let (podem_vectors, untestable) = generate_all(circuit);
            let transition = transition_coverage(circuit, &two_pattern_tests(&vectors));
            vec![
                name.to_string(),
                (2 * circuit.net_count()).to_string(),
                percent(scan_coverage(circuit, &vectors).coverage()),
                format!(
                    "{} ({} vec)",
                    percent(scan_coverage(circuit, &podem_vectors).coverage()),
                    podem_vectors.len()
                ),
                untestable.len().to_string(),
                percent(transition.coverage()),
            ]
        })
        .collect();
    let body = format!(
        "Single stuck-at coverage under scan with random and PODEM vectors,\n\
         and launch-on-capture transition coverage (the coarse loop runs at\n\
         the divided clock, within scan frequencies). The paper claims\n\
         100 % for both.\n\n{}",
        markdown_table(
            &[
                "block",
                "faults",
                "stuck-at (random)",
                "stuck-at (PODEM)",
                "untestable",
                "transition"
            ],
            &rows
        )
    );
    section("Digital fault coverage", &body)
}

/// Coverage-guided fuzzing against random-pattern baselines on the
/// digital chains, as `fuzz_coverage.csv`.
pub(super) fn fuzz_coverage() -> String {
    let chains: [(&str, Circuit, usize, u64); 4] = [
        (
            "scan chain B (4-phase)",
            ChainB::new(4).circuit().clone(),
            4,
            41,
        ),
        ("divider", Divider::new(3).circuit().clone(), 2, 43),
        ("lock counter", LockCounter::new(3).circuit().clone(), 2, 47),
        ("control FSM", ControlFsm::new().circuit().clone(), 2, 53),
    ];
    let cfg = FuzzConfig {
        seed: 0xFACADE,
        generations: 12,
        candidates_per_generation: 32,
    };
    let mut csv = Csv::new(&[
        "chain",
        "total_points",
        "baseline_points",
        "fuzzed_points",
        "gain",
        "accepted",
    ]);
    for (name, circuit, baseline_n, seed) in &chains {
        let baseline = random_vectors(circuit, *baseline_n, *seed);
        let base = set_coverage(circuit, &baseline);
        let report = fuzz(circuit, &baseline, &cfg);
        csv.row(&[
            name.to_string(),
            base.total().to_string(),
            base.points().to_string(),
            report.coverage.points().to_string(),
            report.gain().to_string(),
            report.accepted.to_string(),
        ]);
    }
    csv.as_str().to_string()
}

/// Runs each netlist campaign (stuck-at through the PPSFP kernel,
/// transition through launch-on-capture ATPG) and renders the results
/// as a markdown table and as a `netlist_campaign.csv` document.
///
/// # Panics
///
/// Panics if a campaign leaves faults unsimulated.
pub fn netlist_rows(campaigns: &[NetlistCampaign]) -> (String, String) {
    let mut rows = Vec::new();
    let mut csv = Csv::new(&[
        "circuit",
        "nets",
        "gates",
        "ffs",
        "sa_faults",
        "sa_detected",
        "sa_coverage",
        "tr_faults",
        "tr_detected",
        "tr_untestable",
        "tr_coverage",
        "loc_tests",
    ]);
    for campaign in campaigns {
        let result = campaign.run();
        assert!(
            result.is_complete(),
            "netlist campaign {} left faults unsimulated",
            campaign.name()
        );
        let c = campaign.circuit();
        let (sa_total, sa_detected) = result.stuck_at();
        let (tr_total, tr_detected) = result.transition();
        rows.push(vec![
            campaign.name().to_string(),
            format!("{}/{}/{}", c.net_count(), c.gate_count(), c.dff_count()),
            format!(
                "{} ({sa_detected}/{sa_total})",
                percent(result.stuck_at_coverage())
            ),
            format!(
                "{} ({tr_detected}/{tr_total})",
                percent(result.transition_coverage())
            ),
            result.untestable.len().to_string(),
            campaign.tests().len().to_string(),
        ]);
        csv.row(&[
            campaign.name().to_string(),
            c.net_count().to_string(),
            c.gate_count().to_string(),
            c.dff_count().to_string(),
            sa_total.to_string(),
            sa_detected.to_string(),
            format!("{:.4}", result.stuck_at_coverage()),
            tr_total.to_string(),
            tr_detected.to_string(),
            result.untestable.len().to_string(),
            format!("{:.4}", result.transition_coverage()),
            campaign.tests().len().to_string(),
        ]);
    }
    let table = markdown_table(
        &[
            "circuit",
            "nets/gates/FFs",
            "stuck-at (256 random)",
            "transition (LoC ATPG)",
            "untestable",
            "tests",
        ],
        &rows,
    );
    (table, csv.as_str().to_string())
}

/// The netlist frontend's acceptance set: the hand-built chains pushed
/// through the Verilog serializer and parser, plus the vendored `b01`.
fn acceptance_set() -> Vec<NetlistCampaign> {
    let chains: [(&str, Circuit); 4] = [
        ("chain_b", ChainB::new(4).circuit().clone()),
        ("divider", Divider::new(3).circuit().clone()),
        ("lock_counter", LockCounter::new(3).circuit().clone()),
        ("control_fsm", ControlFsm::new().circuit().clone()),
    ];
    let mut campaigns: Vec<NetlistCampaign> = chains
        .into_iter()
        .map(|(name, circuit)| {
            let mut module = dsim::verilog::Module::from_circuit(&circuit);
            module.name = name.to_string();
            NetlistCampaign::from_verilog(&module.to_source()).expect("round-tripped chain")
        })
        .collect();
    let b01 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/b01_net.v");
    let source = std::fs::read_to_string(b01).expect("vendored benchmark netlist");
    campaigns.push(NetlistCampaign::from_verilog(&source).expect("b01 compiles"));
    campaigns
}

/// The acceptance set's `netlist_campaign.csv`.
pub(super) fn netlist_csv() -> String {
    netlist_rows(&acceptance_set()).1
}
