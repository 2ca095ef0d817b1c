//! The execution layer is invisible in the results: every
//! [`ExecPolicy`] combination of worker threads × SIMD lane width ×
//! fault-equivalence collapsing produces reports bit-identical to the
//! single-thread scalar reference — tallies, per-fault rows, per-FU
//! tallies and detection-latency histograms alike — on all three
//! campaign shapes (gate-level operator, unrolled datapath,
//! cycle-accurate sequential).
//!
//! Thread counts include a prime (7) so block boundaries never align
//! with the universe size, and exceed a typical core count, so the
//! work-stealing path (not just the home-block path) is on trial.
//!
//! The cone axis: the engine evaluates each faulty machine over its
//! fault group's fanout cone only. The combinational shapes' per-fault
//! rows are pinned against a cone-free full-pass oracle under every
//! drop policy, lane width and collapse setting.

#[path = "../../sim/tests/full_pass/mod.rs"]
mod full_pass;

use scdp_campaign::{
    datapath_input_plan, Backend, CampaignReport, DatapathScenario, DfgSource, DropPolicy,
    ExecPolicy, FaultDuration, InputPlan, InputSpace, Lanes, Scenario,
};
use scdp_core::{Operator, Technique};
use scdp_netlist::gen::{self_checking, SelfCheckingSpec};
use scdp_netlist::StuckAtLine;
use scdp_sim::Engine;

const THREADS: [usize; 4] = [1, 2, 4, 7];
const LANES: [Lanes; 3] = [Lanes::L1, Lanes::L4, Lanes::L8];

/// Byte-comparable form: wall clock zeroed, everything else verbatim.
fn canonical(mut report: CampaignReport) -> String {
    report.elapsed_ms = 0;
    assert!(report.telemetry.is_none(), "comparisons run telemetry-free");
    report.to_json()
}

/// Runs `build` under every threads × lanes × collapse combination and
/// pins each report byte-for-byte against the single-thread scalar
/// uncollapsed reference.
fn assert_exec_invariant(shape: &str, build: impl Fn(ExecPolicy) -> CampaignReport) {
    let reference = canonical(build(ExecPolicy::new().threads(1).lanes(Lanes::L1)));
    for threads in THREADS {
        for lanes in LANES {
            for collapse in [false, true] {
                let exec = ExecPolicy::new()
                    .threads(threads)
                    .lanes(lanes)
                    .collapse(collapse);
                assert_eq!(
                    reference,
                    canonical(build(exec)),
                    "{shape}: {threads} threads, {lanes:?}, collapse={collapse}"
                );
            }
        }
    }
}

#[test]
fn gate_level_operator_reports_are_execution_invariant() {
    assert_exec_invariant("gate", |exec| {
        Scenario::new(Operator::Add, 3)
            .technique(Technique::Both)
            .campaign()
            .backend(Backend::GateLevel)
            .exec(exec)
            .run()
            .expect("gate campaign")
    });
}

#[test]
fn datapath_reports_are_execution_invariant() {
    let space = InputSpace::Sampled {
        per_fault: 96,
        seed: 0xD1CE,
    };
    assert_exec_invariant("datapath", |exec| {
        DatapathScenario::new(DfgSource::Dot, 2)
            .technique(Technique::Tech1)
            .campaign()
            .input_space(space)
            .exec(exec)
            .run()
            .expect("datapath campaign")
    });
}

#[test]
fn sequential_reports_are_execution_invariant() {
    let space = InputSpace::Sampled {
        per_fault: 64,
        seed: 0x5EA,
    };
    assert_exec_invariant("sequential", |exec| {
        DatapathScenario::new(DfgSource::Dot, 2)
            .technique(Technique::Both)
            .seq_campaign()
            .duration(FaultDuration::Permanent)
            .input_space(space)
            .exec(exec)
            .run()
            .expect("sequential campaign")
    });
}

/// The latency histogram is the sequential shape's most
/// execution-order-sensitive field: transient faults detected at
/// different cycles per vector batch would scramble it under any
/// nondeterministic merge. Pin it explicitly across the grid.
#[test]
fn sequential_transient_latency_histograms_are_execution_invariant() {
    let space = InputSpace::Sampled {
        per_fault: 64,
        seed: 0x7AB5,
    };
    assert_exec_invariant("transient", |exec| {
        DatapathScenario::new(DfgSource::Dot, 2)
            .technique(Technique::Tech1)
            .seq_campaign()
            .duration(FaultDuration::Transient { cycle: 1 })
            .input_space(space)
            .exec(exec)
            .run()
            .expect("transient campaign")
    });
}

/// Drop policies interact with lane width (a dropped fault stops
/// consuming batches mid-stream): the drop point must land on the
/// same batch index at every lane width and thread count.
#[test]
fn drop_policies_are_execution_invariant() {
    use scdp_campaign::DropPolicy;
    for drop in [DropPolicy::OnDetect, DropPolicy::OnEscape] {
        let reference = canonical(
            Scenario::new(Operator::Add, 3)
                .campaign()
                .backend(Backend::GateLevel)
                .exec(
                    ExecPolicy::new()
                        .threads(1)
                        .lanes(Lanes::L1)
                        .drop_policy(drop),
                )
                .run()
                .expect("reference"),
        );
        for threads in THREADS {
            for lanes in LANES {
                let exec = ExecPolicy::new()
                    .threads(threads)
                    .lanes(lanes)
                    .drop_policy(drop);
                let report = Scenario::new(Operator::Add, 3)
                    .campaign()
                    .backend(Backend::GateLevel)
                    .exec(exec)
                    .run()
                    .expect("gate campaign");
                assert_eq!(
                    reference,
                    canonical(report),
                    "{drop:?}: {threads} threads, {lanes:?}"
                );
            }
        }
    }
}

/// Pins `build`'s per-fault rows against the full-pass oracle over
/// `groups` under every drop policy × lane width × collapse setting.
fn assert_cone_matches_full_pass(
    shape: &str,
    engine: &Engine,
    groups: &[Vec<StuckAtLine>],
    plan: InputPlan,
    build: impl Fn(ExecPolicy) -> CampaignReport,
) {
    for drop in [
        DropPolicy::Never,
        DropPolicy::OnDetect,
        DropPolicy::OnEscape,
    ] {
        let oracle = full_pass::full_pass_outcomes::<1>(engine, groups, plan, drop);
        for lanes in LANES {
            for collapse in [false, true] {
                let exec = ExecPolicy::new()
                    .threads(2)
                    .lanes(lanes)
                    .drop_policy(drop)
                    .collapse(collapse);
                let rows: Vec<_> = build(exec)
                    .per_fault
                    .iter()
                    .map(|r| (r.tally, r.detected, r.escaped, r.dropped_after))
                    .collect();
                let want: Vec<_> = oracle
                    .iter()
                    .map(|o| (o.tally, o.detected, o.escaped, o.dropped_after))
                    .collect();
                assert_eq!(
                    rows, want,
                    "{shape}: cone vs full pass, {drop:?}, {lanes:?}, collapse={collapse}"
                );
            }
        }
    }
}

#[test]
fn gate_level_rows_match_the_full_pass_oracle() {
    let (op, width, technique) = (Operator::Sub, 3, Technique::Both);
    let dp = self_checking(SelfCheckingSpec {
        op,
        technique,
        width,
    });
    let groups: Vec<_> = dp
        .local_sites()
        .into_iter()
        .flat_map(|site| [false, true].map(|v| dp.correlated_fault(site, v)))
        .collect();
    let engine = Engine::new(&dp.netlist);
    assert_cone_matches_full_pass("gate", &engine, &groups, InputPlan::Exhaustive, |exec| {
        Scenario::new(op, width)
            .technique(technique)
            .campaign()
            .backend(Backend::GateLevel)
            .exec(exec)
            .run()
            .expect("gate campaign")
    });
}

#[test]
fn datapath_rows_match_the_full_pass_oracle() {
    let scenario = DatapathScenario::new(DfgSource::Dot, 2).technique(Technique::Tech1);
    let dp = scenario.elaborate();
    let (groups, _) = dp.fault_universe();
    let engine = Engine::new(&dp.netlist);
    let space = InputSpace::Sampled {
        per_fault: 200,
        seed: 0xC04E,
    };
    let plan = datapath_input_plan(space, dp.netlist.input_bits()).expect("sampled plan");
    assert_cone_matches_full_pass("datapath", &engine, &groups, plan, |exec| {
        scenario
            .clone()
            .campaign()
            .input_space(space)
            .exec(exec)
            .run()
            .expect("datapath campaign")
    });
}
