//! Coverage-guided scan-vector fuzzing.
//!
//! A generational fuzzer over [`ScanVector`]s: each generation derives a
//! fixed number of candidates from the current corpus by seeded mutation
//! (bit flips, splicing, fresh random fill, PRBS fill, rotate-and-invert
//! — the ATPG-aware search the scan-instrumentation literature shows
//! moves coverage), evaluates their node-activation footprints, and
//! accepts exactly the candidates that activate a point no earlier
//! vector reached.
//!
//! # Determinism contract
//!
//! Candidate `k` of generation `g` is derived from the substream
//! `Rng::seed_from_stream(seed, g·cpg + k)` and mutates the corpus as it
//! stood at the *start* of the generation; footprints are evaluated on the
//! packed simulator ([`dsim::bitpar`]) in 64-candidate blocks and merged
//! in candidate order. The resulting corpus is therefore a pure function
//! of the circuit, the baseline and the configuration — same seed, same
//! corpus.
//!
//! # Examples
//!
//! ```
//! use conform::fuzz::{fuzz, FuzzConfig};
//! use dft::chain_b::ChainB;
//! use dsim::atpg::random_vectors;
//!
//! let chain = ChainB::new(4);
//! let baseline = random_vectors(chain.circuit(), 4, 7);
//! let a = fuzz(chain.circuit(), &baseline, &FuzzConfig::smoke(1));
//! let b = fuzz(chain.circuit(), &baseline, &FuzzConfig::smoke(1));
//! assert_eq!(a.corpus, b.corpus, "same seed, same corpus");
//! ```

use dsim::circuit::Circuit;
use dsim::logic::Logic;
use dsim::scan::ScanVector;
use link::prbs::Prbs;
use rt::rng::Rng;

use crate::coverage::{batch_footprints, set_coverage, vector_coverage, NodeCoverage};

/// Fuzzer run parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Master seed; every candidate derives from a substream of it.
    pub seed: u64,
    /// Number of generations.
    pub generations: usize,
    /// Candidates derived and evaluated per generation.
    pub candidates_per_generation: usize,
}

impl FuzzConfig {
    /// A bounded smoke configuration: small enough for a tier-1 gate,
    /// large enough to demonstrate coverage gain on the paper's chains.
    pub fn smoke(seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            generations: 6,
            candidates_per_generation: 24,
        }
    }
}

/// Fuzzer outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Baseline vectors plus every accepted mutant, in acceptance order.
    pub corpus: Vec<ScanVector>,
    /// Accumulated node-activation coverage of the corpus.
    pub coverage: NodeCoverage,
    /// Coverage points the baseline alone activated.
    pub baseline_points: usize,
    /// Mutants accepted (each strictly grew the point set).
    pub accepted: usize,
    /// Candidate footprints evaluated.
    pub executions: usize,
}

impl FuzzReport {
    /// Coverage points gained over the baseline.
    pub fn gain(&self) -> usize {
        self.coverage.points() - self.baseline_points
    }
}

/// Runs the coverage-guided fuzzer over `circuit`, growing `baseline`
/// (typically an ATPG vector set) by accepted mutants.
///
/// # Panics
///
/// Panics if a baseline vector's `pi`/`load` lengths do not match the
/// circuit.
pub fn fuzz(circuit: &Circuit, baseline: &[ScanVector], cfg: &FuzzConfig) -> FuzzReport {
    let mut coverage = set_coverage(circuit, baseline);
    let baseline_points = coverage.points();
    let mut corpus: Vec<ScanVector> = baseline.to_vec();
    if corpus.is_empty() {
        // Mutation needs a parent: seed with the all-zero vector.
        let zero = ScanVector {
            pi: vec![Logic::Zero; circuit.inputs().len()],
            load: vec![Logic::Zero; circuit.dff_count()],
        };
        coverage.merge(&vector_coverage(circuit, &zero));
        corpus.push(zero);
    }

    let _span = rt::obs::span("conform.fuzz");
    let cpg = cfg.candidates_per_generation;
    let mut accepted = 0;
    let mut executions = 0;
    for g in 0..cfg.generations {
        // Derive all candidates from the generation-start corpus so the
        // candidate list is independent of intra-generation acceptances.
        let candidates: Vec<(ScanVector, &'static str)> = (0..cpg)
            .map(|k| {
                let mut rng = Rng::seed_from_stream(cfg.seed, (g * cpg + k) as u64);
                mutate(circuit, &corpus, &mut rng)
            })
            .collect();
        let vectors: Vec<ScanVector> = candidates.iter().map(|(v, _)| v.clone()).collect();
        // Packed evaluation: 64 candidates per gate-level walk;
        // footprints come back in candidate order.
        let footprints = batch_footprints(circuit, &vectors);
        executions += candidates.len();
        let mut admitted_this_gen = 0u64;
        for ((cand, op), footprint) in candidates.iter().zip(&footprints) {
            rt::obs::count(&format!("fuzz.derived.{op}"), 1);
            if footprint.adds_over(&coverage) {
                coverage.merge(footprint);
                corpus.push(cand.clone());
                accepted += 1;
                admitted_this_gen += 1;
                // Mutation efficacy: which operator produced the admit.
                rt::obs::count(&format!("fuzz.accepted.{op}"), 1);
                rt::obs::count("fuzz.corpus_admissions", 1);
            }
        }
        // Per-generation coverage frontier: how far the point set has
        // advanced after this generation's admissions.
        rt::obs::record("fuzz.frontier_points", coverage.points() as u64);
        rt::obs::log::debug(
            "fuzz",
            format!(
                "gen={g} admitted={admitted_this_gen} frontier={} corpus={}",
                coverage.points(),
                corpus.len()
            ),
        );
    }
    rt::obs::count("fuzz.generations", cfg.generations as u64);
    rt::obs::count("fuzz.executions", executions as u64);
    rt::obs::gauge("fuzz.corpus_size", corpus.len() as i64);
    rt::obs::log::info(
        "fuzz",
        format!(
            "done generations={} executions={executions} accepted={accepted} points={}",
            cfg.generations,
            coverage.points()
        ),
    );

    FuzzReport {
        corpus,
        coverage,
        baseline_points,
        accepted,
        executions,
    }
}

/// Flattens a vector to its controllable bits, `pi` first.
fn bits_of(v: &ScanVector) -> Vec<Logic> {
    v.pi.iter().chain(v.load.iter()).copied().collect()
}

/// Rebuilds a vector from flattened bits.
fn vector_of(circuit: &Circuit, bits: &[Logic]) -> ScanVector {
    let pi = circuit.inputs().len();
    ScanVector {
        pi: bits[..pi].to_vec(),
        load: bits[pi..].to_vec(),
    }
}

fn flip(b: Logic) -> Logic {
    match b {
        Logic::Zero => Logic::One,
        Logic::One => Logic::Zero,
        Logic::X => Logic::One,
    }
}

/// Derives one candidate from the corpus: pick a parent, pick a mutation.
/// Returns the candidate together with the mutation operator's tag (the
/// metrics layer's `fuzz.derived.*` / `fuzz.accepted.*` key suffix).
fn mutate(circuit: &Circuit, corpus: &[ScanVector], rng: &mut Rng) -> (ScanVector, &'static str) {
    let parent = &corpus[rng.below(corpus.len())];
    let mut bits = bits_of(parent);
    if bits.is_empty() {
        return (parent.clone(), "clone");
    }
    let op = match rng.below(5) {
        0 => {
            // Flip one to three random bits.
            for _ in 0..rng.range_usize(1, 4) {
                let i = rng.below(bits.len());
                bits[i] = flip(bits[i]);
            }
            "flip"
        }
        1 => {
            // Splice: prefix from the parent, suffix from another corpus
            // member.
            let donor = bits_of(&corpus[rng.below(corpus.len())]);
            let cut = rng.below(bits.len());
            bits[cut..].copy_from_slice(&donor[cut..]);
            "splice"
        }
        2 => {
            // Fresh uniform random fill.
            for b in bits.iter_mut() {
                *b = Logic::from_bool(rng.next_bool());
            }
            "fresh"
        }
        3 => {
            // PRBS-7 fill from a random nonzero LFSR seed — the BIST-style
            // stimulus the paper's at-speed tier uses.
            let seed = rng.range_usize(1, 128) as u32;
            let mut prbs = Prbs::new(7, 6, seed);
            for b in bits.iter_mut() {
                *b = Logic::from_bool(prbs.next_bit());
            }
            "prbs"
        }
        _ => {
            // Rotate the parent's bits and invert a random run.
            let r = rng.below(bits.len());
            bits.rotate_left(r);
            let start = rng.below(bits.len());
            let len = rng.range_usize(1, bits.len() + 1);
            for i in 0..len.min(bits.len() - start) {
                bits[start + i] = flip(bits[start + i]);
            }
            "rotate"
        }
    };
    (vector_of(circuit, &bits), op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::circuit::GateKind;

    /// A circuit with a hard-to-reach point: a wide AND only an
    /// all-ones load activates.
    fn wide_and() -> Circuit {
        let mut c = Circuit::new("wide-and");
        let qs: Vec<_> = (0..6)
            .map(|i| {
                let q = c.net(format!("q{i}"));
                c.dff(q, q);
                q
            })
            .collect();
        let y = c.net("y");
        c.gate(GateKind::And, &qs, y);
        c.output(y);
        c
    }

    #[test]
    fn empty_baseline_is_seeded_with_zero_vector() {
        let c = wide_and();
        let report = fuzz(&c, &[], &FuzzConfig::smoke(3));
        assert!(!report.corpus.is_empty());
        assert!(report.coverage.points() > 0);
    }

    #[test]
    fn accepted_mutants_strictly_grow_coverage() {
        let c = wide_and();
        let report = fuzz(&c, &[], &FuzzConfig::smoke(3));
        // Re-walk the corpus: every vector past the seed must add points.
        let mut acc = NodeCoverage::for_circuit(&c);
        for v in &report.corpus {
            let f = vector_coverage(&c, v);
            assert!(f.adds_over(&acc), "corpus member adds nothing");
            acc.merge(&f);
        }
        assert_eq!(acc, report.coverage);
    }

    #[test]
    fn mutation_is_deterministic_per_substream() {
        let c = wide_and();
        let corpus = vec![ScanVector {
            pi: vec![],
            load: vec![Logic::Zero; 6],
        }];
        let a = mutate(&c, &corpus, &mut Rng::seed_from_stream(9, 4));
        let b = mutate(&c, &corpus, &mut Rng::seed_from_stream(9, 4));
        assert_eq!(a, b, "vector and operator tag must both be stable");
    }

    #[test]
    fn executions_are_counted() {
        let c = wide_and();
        let cfg = FuzzConfig::smoke(1);
        let report = fuzz(&c, &[], &cfg);
        assert_eq!(
            report.executions,
            cfg.generations * cfg.candidates_per_generation
        );
    }
}
