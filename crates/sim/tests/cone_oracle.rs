//! The cone-restricted campaign driver is exact: per-fault outcomes of
//! `EngineCampaign` — which re-evaluates only each group's fanout cone
//! over a buffer seeded from the good machine — equal a full-pass
//! oracle built on the public `Engine::eval_wide_into` +
//! `compare_wide`, on random netlists and random multi-line groups
//! (stem and pin faults, faults on `Input` and `Const` gates, empty
//! groups, stuck-at twins sharing a cone), under every drop policy,
//! lane width and a non-trivial thread count.

mod full_pass;

use full_pass::full_pass_outcomes;
use scdp_netlist::{GateKind, Netlist, NetlistBuilder, StuckAtLine, StuckSite};
use scdp_obs::Recorder;
use scdp_rng::{Rng, Xoshiro256StarStar};
use scdp_sim::{DropPolicy, Engine, EngineCampaign, InputPlan, Lanes};
use std::sync::Arc;

const DROPS: [DropPolicy; 3] = [
    DropPolicy::Never,
    DropPolicy::OnDetect,
    DropPolicy::OnEscape,
];
const LANES: [Lanes; 4] = [Lanes::L1, Lanes::L4, Lanes::L8, Lanes::Auto];

/// A random combinational netlist with a `ris` result bus and an
/// `error` bus built from duplication checks (`n XOR NOT NOT n`), so
/// the good machine never alarms while faults on the check paths do.
fn random_netlist(rng: &mut impl Rng, inputs: u32, gates: usize) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut nets = b.input_bus("x", inputs);
    for _ in 0..gates {
        let a = nets[rng.gen_range(nets.len() as u64) as usize];
        let c = nets[rng.gen_range(nets.len() as u64) as usize];
        let n = match rng.gen_range(10) {
            0 => b.and(a, c),
            1 => b.or(a, c),
            2 => b.xor(a, c),
            3 => b.nand(a, c),
            4 => b.nor(a, c),
            5 => b.xnor(a, c),
            6 => b.not(a),
            7 => b.buf(a),
            8 => b.constant(rng.gen_bool()),
            // A reconvergent pair: more fanout, overlapping cones.
            _ => {
                let t = b.xor(a, c);
                b.and(t, a)
            }
        };
        nets.push(n);
    }
    let ris: Vec<_> = (0..5)
        .map(|_| nets[rng.gen_range(nets.len() as u64) as usize])
        .collect();
    let mut checks = Vec::new();
    for _ in 0..3 {
        let n = nets[rng.gen_range(nets.len() as u64) as usize];
        let nn = b.not(n);
        let copy = b.not(nn);
        checks.push(b.xor(n, copy));
    }
    b.output("ris", &ris);
    b.output("error", &checks);
    b.finish()
}

fn line(gate: usize, pin: Option<u8>, value: bool) -> StuckAtLine {
    StuckAtLine::new(StuckSite { gate, pin }, value)
}

/// A random valid line on a random gate.
fn any_line(rng: &mut impl Rng, nl: &Netlist) -> StuckAtLine {
    let gate = rng.gen_range(nl.gates().len() as u64) as usize;
    random_line(rng, nl, gate)
}

/// A random valid line on `gate`: stem, or one of its pins.
fn random_line(rng: &mut impl Rng, nl: &Netlist, gate: usize) -> StuckAtLine {
    let pins = nl.gates()[gate].kind.pins();
    let pin = (pins > 0 && rng.gen_bool()).then(|| rng.gen_range(u64::from(pins)) as u8);
    line(gate, pin, rng.gen_bool())
}

/// A random universe: single lines with their stuck-at twin next to
/// them (a shared cone), multi-line groups with repeated gates, stem
/// faults on every `Input`/`Const` kind present, and empty groups.
fn random_groups(rng: &mut impl Rng, nl: &Netlist) -> Vec<Vec<StuckAtLine>> {
    let mut groups = vec![Vec::new()];
    for _ in 0..12 {
        let f = any_line(rng, nl);
        groups.push(vec![f]);
        groups.push(vec![StuckAtLine::new(f.site, !f.value)]);
    }
    for _ in 0..10 {
        let len = 2 + rng.gen_range(4) as usize;
        let mut group: Vec<StuckAtLine> = (0..len).map(|_| any_line(rng, nl)).collect();
        // A second line on an already-faulted gate (stem + pin mixes).
        let again = group[0].site.gate;
        group.push(random_line(rng, nl, again));
        groups.push(group);
    }
    for kind in [
        GateKind::Input,
        GateKind::Const(false),
        GateKind::Const(true),
    ] {
        if let Some(g) = nl.gates().iter().position(|g| g.kind == kind) {
            groups.push(vec![line(g, None, !matches!(kind, GateKind::Const(true)))]);
            groups.push(vec![line(g, None, true), random_line(rng, nl, g + 1)]);
        }
    }
    groups.push(Vec::new());
    groups
}

fn random_plan(rng: &mut impl Rng) -> InputPlan {
    if rng.gen_bool() {
        InputPlan::Exhaustive
    } else {
        // Partial limbs and partial wide batches at every width.
        let vectors = 1 + rng.gen_range(700);
        InputPlan::Sampled {
            vectors,
            seed: rng.next_u64(),
        }
    }
}

#[test]
fn cone_campaign_matches_full_pass_oracle() {
    let mut rng = Xoshiro256StarStar::from_seed(0xC04E5);
    for case in 0..24 {
        let inputs = 2 + rng.gen_range(8) as u32;
        let gates = 10 + rng.gen_range(120) as usize;
        let nl = random_netlist(&mut rng, inputs, gates);
        let engine = Engine::new(&nl);
        let groups = random_groups(&mut rng, &nl);
        let plan = random_plan(&mut rng);
        for drop in DROPS {
            let oracle = full_pass_outcomes::<1>(&engine, &groups, plan, drop);
            for lanes in LANES {
                let summary = EngineCampaign::over(&engine, groups.clone())
                    .plan(plan)
                    .drop_policy(drop)
                    .lanes(lanes)
                    .threads(3)
                    .run();
                assert_eq!(
                    summary.per_fault, oracle,
                    "case {case} ({inputs} inputs, {gates} gates, {plan:?}): {drop:?} {lanes:?}"
                );
            }
        }
    }
}

/// `engine.gates_evaluated` is Σ cone size × limbs tallied: the cone of
/// an output-only gate is that gate alone, and an empty group costs
/// nothing.
#[test]
fn gates_evaluated_counts_cone_work() {
    let mut b = NetlistBuilder::new("chain");
    let x = b.input_bus("x", 2);
    let y = b.and(x[0], x[1]);
    let z = b.not(y);
    b.output("ris", &[z]);
    let engine = Engine::new(&b.finish());
    let run = |groups: Vec<Vec<StuckAtLine>>, lanes: Lanes| {
        let rec = Arc::new(Recorder::new());
        let _ = EngineCampaign::over(&engine, groups)
            .plan(InputPlan::Sampled {
                vectors: 200,
                seed: 7,
            })
            .lanes(lanes)
            .threads(1)
            .recorder(Arc::clone(&rec))
            .run();
        rec.snapshot().counter("engine.gates_evaluated")
    };
    for lanes in LANES {
        // 200 vectors = 4 limbs tallied per group.
        assert_eq!(run(vec![vec![line(3, None, true)]], lanes), Some(4));
        assert_eq!(run(vec![vec![line(0, None, true)]], lanes), Some(3 * 4));
        assert_eq!(run(vec![Vec::new()], lanes), Some(0));
    }
}
