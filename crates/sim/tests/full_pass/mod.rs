//! Full-pass reference campaign: every faulty machine re-evaluates the
//! whole netlist through the public [`Engine::eval_wide_into`] and is
//! graded with [`Engine::compare_wide`], one group after another on
//! one thread. It shares no code with `EngineCampaign`'s cone-restricted
//! inner loop, so it is the oracle that loop is checked against.
//!
//! Test targets in other crates include this file with
//! `#[path = ".../crates/sim/tests/full_pass/mod.rs"] mod full_pass;`.

use scdp_netlist::StuckAtLine;
use scdp_sim::{DropPolicy, Engine, FaultOutcome, InputPlan};

/// Per-group outcomes of a full-pass campaign over `groups` at `L`
/// limbs: per wide batch the good machine is evaluated once, then every
/// live group's faulty machine in full, tallied limb by limb in
/// scalar-batch order with the same drop rule as the campaign driver.
#[must_use]
pub fn full_pass_outcomes<const L: usize>(
    engine: &Engine,
    groups: &[Vec<StuckAtLine>],
    plan: InputPlan,
    drop: DropPolicy,
) -> Vec<FaultOutcome> {
    let groups: Vec<Vec<StuckAtLine>> = groups
        .iter()
        .map(|g| {
            let mut lines = g.clone();
            lines.sort_by_key(|f| (f.site.gate, f.site.pin));
            lines
        })
        .collect();
    let mut outcomes = vec![FaultOutcome::default(); groups.len()];
    let mut live: Vec<usize> = (0..groups.len()).collect();
    let mut good = Vec::new();
    let mut faulty = Vec::new();
    for wide in plan.wide_stream::<L>(engine.input_bits()) {
        engine.eval_wide_into(&wide, &[], &mut good);
        live.retain(|&k| {
            engine.eval_wide_into(&wide, &groups[k], &mut faulty);
            let v = engine.compare_wide(&good, &faulty, wide.mask);
            let o = &mut outcomes[k];
            for limb in 0..wide.limbs {
                let (cs, cd, ed, eu) = v.limb(limb).counts();
                o.tally.correct_silent += cs;
                o.tally.correct_detected += cd;
                o.tally.error_detected += ed;
                o.tally.error_undetected += eu;
                o.detected |= cd + ed > 0;
                o.escaped |= eu > 0;
                let decided = match drop {
                    DropPolicy::Never => false,
                    DropPolicy::OnDetect => o.detected,
                    DropPolicy::OnEscape => o.escaped,
                };
                if decided {
                    o.dropped_after = Some(o.tally.total());
                    return false;
                }
            }
            true
        });
    }
    outcomes
}
