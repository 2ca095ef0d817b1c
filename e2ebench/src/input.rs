//! The benchmark's inputs: one campaign description per operation,
//! generated from the workload seed, and the per-workload mixes.
//!
//! A [`CampaignInput`] is everything the program receives for one
//! operation. It becomes a [`CampaignJob`] for the library path
//! (`CampaignRunner`) and a spec document for the `serve` path.

use scdp_campaign::{
    duration_label, technique_label, CampaignJob, DatapathScenario, DfgSource, ExecPolicy,
    FaultDuration, InputSpace,
};
use scdp_core::Technique;
use scdp_rng::{Rng, SplitMix64};

/// What one campaign grades.
#[derive(Clone, Debug)]
pub enum Target {
    /// An unrolled whole-datapath campaign over a builtin DFG.
    Datapath(&'static str),
    /// A cycle-accurate datapath campaign over a builtin DFG.
    Sequential(&'static str, FaultDuration),
}

/// One generated campaign: scenario, input plan and execution knobs.
#[derive(Clone, Debug)]
pub struct CampaignInput {
    pub target: Target,
    pub width: u32,
    pub technique: Technique,
    /// Sampled input vectors per fault.
    pub samples: u64,
    /// Input-stream seed.
    pub seed: u64,
    pub collapse: bool,
    pub prune: bool,
    pub shards: u32,
    pub threads: usize,
}

impl CampaignInput {
    /// The scenario identity without seed or execution knobs: inputs
    /// with equal keys elaborate the same netlist.
    pub fn key(&self) -> String {
        let t = technique_label(self.technique);
        match &self.target {
            Target::Datapath(w) => format!("dp:{w}/{t}/w{}", self.width),
            Target::Sequential(w, _) => format!("seq:{w}/{t}/w{}", self.width),
        }
    }

    /// The campaign as a library job.
    pub fn job(&self, telemetry: bool) -> CampaignJob {
        let space = InputSpace::Sampled {
            per_fault: self.samples,
            seed: self.seed,
        };
        let exec = ExecPolicy::new()
            .threads(self.threads)
            .collapse(self.collapse)
            .prune(self.prune)
            .telemetry(telemetry);
        match &self.target {
            Target::Datapath(w) => CampaignJob::Datapath(
                self.datapath_scenario(w)
                    .campaign()
                    .input_space(space)
                    .exec(exec),
            ),
            Target::Sequential(w, duration) => CampaignJob::Sequential(
                self.datapath_scenario(w)
                    .seq_campaign()
                    .duration(*duration)
                    .input_space(space)
                    .exec(exec),
            ),
        }
    }

    pub fn datapath_scenario(&self, workload: &str) -> DatapathScenario {
        let source = DfgSource::from_label(workload).expect("builtin workload label");
        DatapathScenario::new(source, self.width).technique(self.technique)
    }

    /// The campaign as a `POST /jobs` spec document. The wire format
    /// has no `prune` key, so served campaigns never prune.
    pub fn spec_json(&self) -> String {
        let target = match &self.target {
            Target::Datapath(w) => format!(r#""kind":"datapath","workload":"{w}""#),
            Target::Sequential(w, d) => format!(
                r#""kind":"sequential","workload":"{w}","duration":"{}""#,
                duration_label(*d)
            ),
        };
        format!(
            r#"{{{target},"width":{},"technique":"{}","samples":{},"seed":{},"collapse":{},"threads":{},"shards":{}}}"#,
            self.width,
            technique_label(self.technique),
            self.samples,
            self.seed,
            self.collapse,
            self.threads,
            self.shards,
        )
    }
}

/// The workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Fir8Comb,
    Fir8Seq,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Fir8Comb, Workload::Fir8Seq];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fir8Comb => "fir8_comb",
            Workload::Fir8Seq => "fir8_seq",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Seeded generator of a workload's campaigns.
///
/// Every workload has a fixed *mix*: the multiset of campaign shapes
/// one round grades. Both phases walk the mix in whole rounds, each in
/// a seeded order and with fresh input seeds, so every run of a
/// workload grades the same shapes in the same proportions and only the
/// input vectors and the order change with the seed. Each mix has an odd
/// number of shapes, so a median over whole rounds falls inside one
/// shape's samples rather than in the gap between two shapes' costs.
pub struct Inputs {
    workload: Workload,
    rng: SplitMix64,
    threads: usize,
    /// Cycle count of the sequential w8 FIR machine (for mid-schedule
    /// transients).
    fir8_cycles: u32,
    round: Vec<CampaignInput>,
    served: Vec<CampaignInput>,
}

impl Inputs {
    /// `threads` is the worker count of every campaign.
    pub fn new(workload: Workload, seed: u64, threads: usize) -> Inputs {
        let fir8_cycles = if workload == Workload::Fir8Seq {
            DatapathScenario::new(DfgSource::Fir, 8)
                .technique(Technique::Tech1)
                .elaborate_seq()
                .total_cycles
        } else {
            0
        };
        Inputs {
            workload,
            rng: SplitMix64::new(seed ^ 0x5CD9_BE7C),
            threads,
            fir8_cycles,
            round: Vec::new(),
            served: Vec::new(),
        }
    }

    fn input(&self, target: Target, width: u32, technique: Technique) -> CampaignInput {
        CampaignInput {
            target,
            width,
            technique,
            samples: 256,
            seed: 0,
            collapse: false,
            prune: false,
            shards: 1,
            threads: self.threads,
        }
    }

    /// The workload's mix in canonical order.
    fn mix(&self) -> Vec<CampaignInput> {
        match self.workload {
            // The unrolled w8 FIR datapath on its FU fault universe,
            // analysis off.
            Workload::Fir8Comb => vec![self.input(Target::Datapath("fir"), 8, Technique::Tech1)],
            // The sequential w8 FIR, permanent faults and transients a
            // third and two thirds into the schedule in turn, collapse
            // and prune on, sharded three ways.
            Workload::Fir8Seq => [
                FaultDuration::Permanent,
                FaultDuration::Transient {
                    cycle: self.fir8_cycles / 3,
                },
                FaultDuration::Transient {
                    cycle: self.fir8_cycles * 2 / 3,
                },
            ]
            .into_iter()
            .map(|d| CampaignInput {
                collapse: true,
                prune: true,
                shards: 3,
                ..self.input(Target::Sequential("fir", d), 8, Technique::Tech1)
            })
            .collect(),
        }
    }

    /// Pops the next campaign of `round`, refilling it with a shuffled
    /// copy of the mix when empty, and gives it a fresh input seed.
    fn next(&mut self, served: bool) -> CampaignInput {
        let empty = if served {
            self.served.is_empty()
        } else {
            self.round.is_empty()
        };
        if empty {
            let mut mix = self.mix();
            if served {
                // The spec format has no `prune` key.
                for i in &mut mix {
                    i.prune = false;
                }
            }
            self.rng.shuffle(&mut mix);
            if served {
                self.served = mix;
            } else {
                self.round = mix;
            }
        }
        let round = if served {
            &mut self.served
        } else {
            &mut self.round
        };
        let mut input = round.pop().expect("round refilled above");
        input.seed = self.rng.next_u64() >> 1;
        input
    }

    /// The next campaign of the library phase.
    pub fn next_runner(&mut self) -> CampaignInput {
        self.next(false)
    }

    /// The next fresh campaign of the serve phase.
    pub fn next_served(&mut self) -> CampaignInput {
        self.next(true)
    }

    /// `true` between library-phase rounds.
    pub fn round_done(&self) -> bool {
        self.round.is_empty()
    }

    /// `true` between serve-phase rounds.
    pub fn served_round_done(&self) -> bool {
        self.served.is_empty()
    }

    /// A fixed (seed-independent) campaign used to warm up a run: the
    /// mix's first entry.
    pub fn warmup(&self) -> CampaignInput {
        let mut input = self.mix().swap_remove(0);
        input.seed = 0xBE7C_0000;
        input
    }
}
