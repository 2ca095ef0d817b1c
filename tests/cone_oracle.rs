//! Cross-layer guard for cone-restricted faulty evaluation: the w4
//! unrolled FIR datapath campaign, run end to end through the
//! `scdp-campaign` surface, yields per-fault rows equal to a full-pass
//! oracle (every faulty machine re-evaluates the whole netlist) over
//! the same elaborated netlist, fault universe and input plan.

#[path = "../crates/sim/tests/full_pass/mod.rs"]
mod full_pass;

use scdp::campaign::{
    datapath_input_plan, DatapathScenario, DfgSource, DropPolicy, ExecPolicy, InputSpace,
};
use scdp::Technique;
use scdp_sim::Engine;

#[test]
fn fir_w4_campaign_matches_full_pass_oracle() {
    let scenario = DatapathScenario::new(DfgSource::Fir, 4).technique(Technique::Tech1);
    let dp = scenario.elaborate();
    let (groups, _) = dp.fault_universe();
    let engine = Engine::new(&dp.netlist);
    let space = InputSpace::Sampled {
        per_fault: 256,
        seed: 0x0F14,
    };
    let plan = datapath_input_plan(space, dp.netlist.input_bits()).expect("sampled plan");
    for drop in [DropPolicy::Never, DropPolicy::OnEscape] {
        let report = scenario
            .clone()
            .campaign()
            .input_space(space)
            .exec(ExecPolicy::new().threads(2).drop_policy(drop))
            .run()
            .expect("FIR campaign");
        let oracle = full_pass::full_pass_outcomes::<4>(&engine, &groups, plan, drop);
        assert_eq!(report.per_fault.len(), oracle.len(), "{drop:?}");
        assert!(oracle.iter().any(|o| o.escaped), "the oracle sees escapes");
        for (i, (row, o)) in report.per_fault.iter().zip(&oracle).enumerate() {
            assert_eq!(
                (row.tally, row.detected, row.escaped, row.dropped_after),
                (o.tally, o.detected, o.escaped, o.dropped_after),
                "{drop:?}: fault group {i}"
            );
        }
    }
}
