//! Campaign configuration and the unified `run()` entry point.

use crate::collapse::CollapsePlan;
use crate::error::CampaignError;
use crate::obs::RunCtx;
use crate::prune::PrunePlan;
use crate::report::{drop_label, CampaignReport, DeduceDetails, FaultRecord};
use crate::scenario::{
    allocation_label, realisation_label, technique_label, Backend, FaultModel, Scenario,
};
use crate::shard::{self, ShardInfo, ShardPlan};
use scdp_core::{Allocation, Operator};
use scdp_coverage::{AdderFaultModel, InputSpace, OperatorKind, Tally, TechIndex, TechTally};
use scdp_netlist::gen::{
    self_checking, self_checking_add_with, AdderRealisation, SelfCheckingSpec,
};
use scdp_netlist::{Netlist, StuckAtLine};
use scdp_obs::EventSink;
use scdp_sim::{DropPolicy, Engine, InputPlan, Lanes};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Maximum supported operand width (the functional cell models cap at
/// 32 bits).
pub const MAX_WIDTH: u32 = 32;

/// How a campaign *executes*, as opposed to *what* it simulates: the
/// worker-thread cap, SIMD lane width, fault-drop policy, equivalence
/// collapsing, deductive pruning, and telemetry capture. One `ExecPolicy` is shared —
/// field for field — by every spec builder ([`CampaignSpec`],
/// [`crate::DatapathCampaignSpec`], [`crate::SeqDatapathCampaignSpec`]),
/// so execution tuning written for one backend carries unchanged to the
/// others.
///
/// # Example
///
/// ```
/// use scdp_campaign::{Backend, ExecPolicy, Lanes, Scenario};
/// use scdp_core::Operator;
///
/// let exec = ExecPolicy::new().threads(2).lanes(Lanes::Auto);
/// let report = Scenario::new(Operator::Add, 3)
///     .campaign()
///     .backend(Backend::GateLevel)
///     .exec(exec)
///     .run()
///     .expect("gate level");
/// assert!(report.coverage() > 0.9);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker-thread cap for the work-stealing pool (`None` = all
    /// available cores). Validated against zero at `run()` time.
    pub threads: Option<usize>,
    /// Packed-engine lane width: how many 64-bit limbs each simulated
    /// word carries ([`Lanes::Auto`] fits it to the plan's vectors per
    /// fault). Results are bit-identical at every width.
    pub lanes: Lanes,
    /// When faults leave the simulated universe (gate level only).
    pub drop: DropPolicy,
    /// When `true`, the gate-level engine simulates only one
    /// representative per fault-equivalence class and fans verdicts
    /// back out — reports stay bit-identical, wall clock shrinks.
    pub collapse: bool,
    /// When `true`, the deductive pre-classifier (`scdp-analyze`'s
    /// `PrunedUniverse` / `DominatorChains`) settles provably
    /// untestable faults from a fault-free baseline probe and defers
    /// dominated faults behind their dominators — reports stay
    /// bit-identical, wall clock shrinks; the report carries a
    /// presence-driven `deduce` section with the breakdown.
    pub prune: bool,
    /// When `true`, the report carries a presence-driven `telemetry`
    /// section ([`scdp_obs::TelemetrySnapshot`]): engine counters and
    /// histograms, pool/scheduling observations, per-stage span
    /// timings.
    pub telemetry: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecPolicy {
    /// The default policy: all cores, auto lane width, no dropping, no
    /// collapsing, no pruning, no telemetry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: None,
            lanes: Lanes::Auto,
            drop: DropPolicy::Never,
            collapse: false,
            prune: false,
            telemetry: false,
        }
    }

    /// Caps the worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Selects the packed-engine lane width.
    #[must_use]
    pub fn lanes(mut self, lanes: Lanes) -> Self {
        self.lanes = lanes;
        self
    }

    /// Selects the drop policy (gate-level backend only).
    #[must_use]
    pub fn drop_policy(mut self, drop: DropPolicy) -> Self {
        self.drop = drop;
        self
    }

    /// Enables fault-equivalence collapsing (gate-level backend only).
    #[must_use]
    pub fn collapse(mut self, enabled: bool) -> Self {
        self.collapse = enabled;
        self
    }

    /// Enables deductive pruning (gate-level backends only): provably
    /// untestable faults are settled from a fault-free baseline probe
    /// without simulation, and — for combinational detection
    /// campaigns — dominated faults are deferred behind their
    /// dominators and settled whenever the dominator stays silent.
    /// Reports (tallies, per-fault rows, shard geometry, fingerprints)
    /// stay bit-identical to the unpruned run; the `deduce.*`
    /// telemetry counters and the report's `deduce` section record
    /// what was saved.
    #[must_use]
    pub fn prune(mut self, enabled: bool) -> Self {
        self.prune = enabled;
        self
    }

    /// Embeds a telemetry snapshot in the report.
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }
}

/// Configures *how* a [`Scenario`] is analysed and runs it.
///
/// # Example
///
/// ```
/// use scdp_campaign::{Backend, ExecPolicy, Scenario};
/// use scdp_core::{Operator, Technique};
///
/// let scenario = Scenario::new(Operator::Add, 3).technique(Technique::Both);
/// // The same scenario drives both engines.
/// let functional = scenario.campaign().run().expect("functional");
/// let gate = scenario
///     .campaign()
///     .backend(Backend::GateLevel)
///     .exec(ExecPolicy::new().threads(2))
///     .run()
///     .expect("gate level");
/// assert!(functional.coverage() > 0.9);
/// assert!(gate.coverage() > 0.9);
/// ```
///
/// Invalid configurations are reported as typed errors, not panics:
///
/// ```
/// use scdp_campaign::{CampaignError, Scenario};
/// use scdp_core::Operator;
///
/// let err = Scenario::new(Operator::Add, 99).campaign().run().unwrap_err();
/// assert!(matches!(err, CampaignError::WidthOutOfRange { width: 99, .. }));
/// ```
#[derive(Clone)]
pub struct CampaignSpec {
    /// The scenario under analysis.
    pub scenario: Scenario,
    /// The executing engine.
    pub backend: Backend,
    /// The fault universe to inject.
    pub fault_model: FaultModel,
    /// The input-space strategy.
    pub space: InputSpace,
    /// How the campaign executes: threads, lanes, dropping, collapsing,
    /// telemetry.
    pub exec: ExecPolicy,
    /// Restricts the run to one shard of a partitioned universe:
    /// `(index, count)` of a [`ShardPlan`] over the fault universe.
    /// `None` runs the whole universe.
    pub shard: Option<(u32, u32)>,
    /// Optional structured event sink observing the run's lifecycle
    /// and span closures ([`scdp_obs::ObsEvent`]).
    pub events: Option<EventSink>,
}

impl fmt::Debug for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignSpec")
            .field("scenario", &self.scenario)
            .field("backend", &self.backend)
            .field("fault_model", &self.fault_model)
            .field("space", &self.space)
            .field("exec", &self.exec)
            .field("shard", &self.shard)
            .field("events", &self.events.as_ref().map(|_| ".."))
            .finish()
    }
}

impl CampaignSpec {
    /// Starts a campaign specification with the paper's defaults:
    /// functional backend, canonical fault model, exhaustive inputs,
    /// and the default [`ExecPolicy`].
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            backend: Backend::Functional,
            fault_model: FaultModel::Auto,
            space: InputSpace::Exhaustive,
            exec: ExecPolicy::new(),
            shard: None,
            events: None,
        }
    }

    /// Selects the executing backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the fault model.
    #[must_use]
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.fault_model = model;
        self
    }

    /// Selects the input space.
    #[must_use]
    pub fn input_space(mut self, space: InputSpace) -> Self {
        self.space = space;
        self
    }

    /// Replaces the execution policy wholesale: threads, lanes, drop
    /// policy, collapsing and telemetry in one value. This supersedes
    /// the per-knob setters (`threads`, `drop_policy`, `collapse`,
    /// `telemetry`), which remain as deprecated shims.
    #[must_use]
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the drop policy (gate-level backend only).
    #[deprecated(
        since = "0.1.0",
        note = "use `exec(ExecPolicy::new().drop_policy(..))`"
    )]
    #[must_use]
    pub fn drop_policy(mut self, drop: DropPolicy) -> Self {
        self.exec.drop = drop;
        self
    }

    /// Caps the worker thread count (validated by [`CampaignSpec::run`]).
    #[deprecated(since = "0.1.0", note = "use `exec(ExecPolicy::new().threads(..))`")]
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.exec.threads = Some(threads);
        self
    }

    /// Restricts the run to shard `index` of a `count`-way
    /// [`ShardPlan`] over the fault universe (validated by
    /// [`CampaignSpec::run`]). The report then carries a `shard`
    /// section and serialises as `scdp.campaign.report/v4`; merging all
    /// `count` shards reproduces the unsharded report bit for bit.
    #[must_use]
    pub fn shard(mut self, index: u32, count: u32) -> Self {
        self.shard = Some((index, count));
        self
    }

    /// Fingerprint of this campaign's configuration — the value sharded
    /// runs stamp into [`ShardInfo::plan_hash`] so checkpoints from
    /// different campaigns can never be resumed or merged into one
    /// sweep. Stable across processes (label-based, not hash-seeded).
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        let s = &self.scenario;
        let width = s.width.to_string();
        let space = shard::space_part(self.space);
        shard::config_fingerprint([
            "operator",
            s.op_label(),
            &width,
            technique_label(s.technique),
            allocation_label(s.allocation),
            realisation_label(s.realisation),
            self.backend.label(),
            self.fault_model.resolve(self.backend).label(),
            &space,
            drop_label(self.exec.drop),
        ])
    }

    /// Installs a structured event sink, called on the driver thread:
    /// lifecycle events plus a [`scdp_obs::ObsEvent::SpanClosed`] per
    /// run stage.
    #[must_use]
    pub fn events(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Embeds a telemetry snapshot in the report (presence-driven
    /// `telemetry` section; off by default so reports stay
    /// byte-reproducible).
    #[deprecated(since = "0.1.0", note = "use `exec(ExecPolicy::new().telemetry(..))`")]
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.exec.telemetry = enabled;
        self
    }

    /// Simulates only one representative per fault-equivalence class
    /// (static collapsing via `scdp-analyze`) and fans verdicts back
    /// out to the full universe. The report — tallies, per-fault rows,
    /// shard geometry — stays bit-identical to the uncollapsed run;
    /// only wall clock and the `collapse.*` telemetry counters change.
    /// Gate-level backend only; intentionally excluded from
    /// [`CampaignSpec::config_fingerprint`] so collapsed and
    /// uncollapsed checkpoints stay interchangeable.
    #[deprecated(since = "0.1.0", note = "use `exec(ExecPolicy::new().collapse(..))`")]
    #[must_use]
    pub fn collapse(mut self, enabled: bool) -> Self {
        self.exec.collapse = enabled;
        self
    }

    /// Runs the campaign on the selected backend.
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] instead of panicking for every
    /// invalid configuration: width out of range, zero threads,
    /// unsupported operator/fault-model/drop-policy combinations, and
    /// exhaustive spaces too large to enumerate.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let model = self.validate()?;
        let ctx = RunCtx::start(
            self.backend,
            model,
            self.events.clone(),
            self.exec.telemetry,
        );
        let mut report = match self.backend {
            Backend::Functional => self.run_functional(model, &ctx),
            Backend::GateLevel => self.run_gate(model, &ctx),
        }?;
        ctx.finish(&mut report);
        Ok(report)
    }

    /// Validates the configuration and resolves the fault model.
    fn validate(&self) -> Result<FaultModel, CampaignError> {
        let s = &self.scenario;
        if s.width == 0 || s.width > MAX_WIDTH {
            return Err(CampaignError::WidthOutOfRange {
                width: s.width,
                max: MAX_WIDTH,
            });
        }
        if self.exec.threads == Some(0) {
            return Err(CampaignError::ZeroThreads);
        }
        if let Some((index, count)) = self.shard {
            if count == 0 {
                return Err(CampaignError::ZeroShards);
            }
            if index >= count {
                return Err(CampaignError::ShardIndexOutOfRange { index, count });
            }
        }
        let model = self.fault_model.resolve(self.backend);
        match self.backend {
            Backend::Functional => {
                if self.exec.collapse {
                    return Err(CampaignError::UnsupportedCollapse {
                        backend: self.backend,
                    });
                }
                if self.exec.prune {
                    return Err(CampaignError::UnsupportedPrune {
                        backend: self.backend,
                    });
                }
                if self.exec.drop != DropPolicy::Never {
                    return Err(CampaignError::UnsupportedDropPolicy {
                        backend: self.backend,
                    });
                }
                if model == FaultModel::Structural {
                    return Err(CampaignError::UnsupportedFaultModel {
                        model,
                        backend: self.backend,
                        detail: "structural stuck-ats exist only on generated netlists",
                    });
                }
            }
            Backend::GateLevel => {
                if s.op == Operator::Div {
                    return Err(CampaignError::UnsupportedOperator {
                        op: s.op,
                        backend: self.backend,
                    });
                }
                if s.realisation != AdderRealisation::RippleCarry && s.op != Operator::Add {
                    return Err(CampaignError::UnsupportedRealisation {
                        realisation: s.realisation,
                        op: s.op,
                    });
                }
                if model == FaultModel::Cell {
                    return Err(CampaignError::UnsupportedFaultModel {
                        model,
                        backend: self.backend,
                        detail: "truth-table cell faults exist only in the functional models",
                    });
                }
                if model == FaultModel::FaGate
                    && (s.op == Operator::Mul || s.realisation != AdderRealisation::RippleCarry)
                {
                    return Err(CampaignError::UnsupportedFaultModel {
                        model,
                        backend: self.backend,
                        detail: "the functional-twin universe needs a ripple-carry \
                                 full-adder chain",
                    });
                }
                if self.space == InputSpace::Exhaustive && 2 * s.width >= 64 {
                    return Err(CampaignError::ExhaustiveSpaceTooLarge { width: s.width });
                }
            }
        }
        Ok(model)
    }

    /// Dispatches to the functional classifier of `scdp-coverage`.
    fn run_functional(
        &self,
        model: FaultModel,
        ctx: &RunCtx,
    ) -> Result<CampaignReport, CampaignError> {
        let s = &self.scenario;
        let kind = match s.op {
            Operator::Add => OperatorKind::Add,
            Operator::Sub => OperatorKind::Sub,
            Operator::Mul => OperatorKind::Mul,
            Operator::Div => OperatorKind::Div,
        };
        let adder_model = match model {
            FaultModel::Cell => AdderFaultModel::Cell,
            _ => AdderFaultModel::Gate,
        };
        // The engine-room constructor's `assert!`s cannot fire because
        // `validate()` ran first.
        let mut builder = scdp_coverage::CampaignBuilder::over(kind, s.width)
            .adder_model(adder_model)
            .allocation(s.allocation)
            .input_space(self.space);
        if let Some(t) = self.exec.threads {
            builder = builder.threads(t);
        }
        let shard = match self.shard {
            None => None,
            Some((index, count)) => {
                let plan = ShardPlan::new(builder.universe_size() as u64, count)?;
                plan.check_index(index)?;
                let range = plan.range(index);
                builder = builder.fault_range(range.start as usize..range.end as usize);
                Some(ShardInfo {
                    index,
                    count,
                    fault_start: range.start,
                    fault_end: range.end,
                    total_faults: plan.total_faults(),
                    plan_hash: self.config_fingerprint(),
                })
            }
        };
        let sim = ctx.span("simulate");
        let result = builder.run();
        sim.close();
        let selected = s.tech_index();
        let per_fault: Vec<FaultRecord> = result
            .per_fault
            .iter()
            .map(|tally| {
                let t = *tally.of(selected);
                FaultRecord {
                    tally: t,
                    detected: t.alarms() > 0,
                    escaped: t.error_undetected > 0,
                    dropped_after: None,
                }
            })
            .collect();
        Ok(CampaignReport {
            scenario: *s,
            backend: Backend::Functional,
            fault_model: model,
            space: self.space,
            drop: self.exec.drop,
            simulated: result.tally.of(selected).total(),
            tally: result.tally,
            filled: TechIndex::ALL.to_vec(),
            per_fault,
            elapsed_ms: 0,
            datapath: None,
            sequential: None,
            shard,
            deduce: None,
            telemetry: None,
        })
    }

    /// Compiles the scenario's netlist and dispatches to the
    /// bit-parallel engine of `scdp-sim`.
    fn run_gate(&self, model: FaultModel, ctx: &RunCtx) -> Result<CampaignReport, CampaignError> {
        let s = &self.scenario;
        let compile = ctx.span("compile");
        let dp = match s.op {
            Operator::Add => self_checking_add_with(s.width, s.technique, s.realisation),
            Operator::Sub | Operator::Mul => self_checking(SelfCheckingSpec {
                op: s.op,
                technique: s.technique,
                width: s.width,
            }),
            Operator::Div => unreachable!("rejected by validate()"),
        };
        let correlated = s.allocation == Allocation::SingleUnit;
        let groups = match model {
            FaultModel::Structural => {
                let mut groups = Vec::new();
                for site in dp.local_sites() {
                    for value in [false, true] {
                        groups.push(if correlated {
                            dp.correlated_fault(site, value)
                        } else {
                            dp.nominal_fault(site, value)
                        });
                    }
                }
                groups
            }
            FaultModel::FaGate => {
                dp.fa_gate_fault_groups(correlated)
                    .ok_or(CampaignError::UnsupportedFaultModel {
                        model,
                        backend: self.backend,
                        detail: "this datapath retains no full-adder cell maps",
                    })?
            }
            _ => unreachable!("rejected by validate()"),
        };
        let engine = Engine::new(&dp.netlist);
        compile.close();
        ctx.netlist_compiled(dp.netlist.name(), dp.netlist.gate_count(), groups.len());
        let universe = groups.len() as u64;
        let shard = match self.shard {
            None => None,
            Some((index, count)) => {
                let plan = ShardPlan::new(universe, count)?;
                plan.check_index(index)?;
                let range = plan.range(index);
                Some(ShardInfo {
                    index,
                    count,
                    fault_start: range.start,
                    fault_end: range.end,
                    total_faults: plan.total_faults(),
                    plan_hash: self.config_fingerprint(),
                })
            }
        };
        let covered: Range<u64> = shard
            .as_ref()
            .map_or(0..universe, |si| si.fault_start..si.fault_end);
        let (per_fault, col, simulated, deduce) = run_gate_groups(
            ctx,
            &dp.netlist,
            &engine,
            groups,
            covered,
            InputPlan::from_space(self.space),
            &self.exec,
        )?;
        let tally_span = ctx.span("tally");
        let selected = s.tech_index();
        let mut tally = Tally::default();
        tally.tech[selected as usize] = col;
        tally_span.close();
        Ok(CampaignReport {
            scenario: *s,
            backend: Backend::GateLevel,
            fault_model: model,
            space: self.space,
            drop: self.exec.drop,
            tally,
            filled: vec![selected],
            per_fault,
            simulated,
            elapsed_ms: 0,
            datapath: None,
            sequential: None,
            shard,
            deduce,
            telemetry: None,
        })
    }
}

/// Shared gate-level driver for combinational fault-group universes
/// (operator and datapath campaigns): runs `groups` on `engine` over
/// `covered` (the whole universe or one shard's slice) and returns the
/// covered per-fault rows plus their summed tally and situation count.
///
/// With `exec.collapse` the engine sees only one representative group
/// per equivalence class intersecting `covered` (selected by
/// [`CollapsePlan`]); each representative's verdict is then cloned to
/// every covered member. The rows — and therefore everything derived
/// from them — are bit-identical to the uncollapsed run because the
/// engine replays the same deterministic batch stream for every group.
///
/// With `exec.prune` a [`PrunePlan`] additionally settles engine groups
/// deductively: untestable groups take the fault-free baseline probe
/// outcome, dominated singleton lines defer behind their dominator root
/// and settle with the baseline when that root simulated completely
/// silent — any root that did not stays bit-exact via a second engine
/// pass over just the unsettled lines. The returned [`DeduceDetails`]
/// records the breakdown and which rows were settled without
/// simulation.
pub(crate) fn run_gate_groups(
    ctx: &RunCtx,
    netlist: &Netlist,
    engine: &Engine,
    groups: Vec<Vec<StuckAtLine>>,
    covered: Range<u64>,
    plan: InputPlan,
    exec: &ExecPolicy,
) -> Result<(Vec<FaultRecord>, TechTally, u64, Option<DeduceDetails>), CampaignError> {
    let universe = groups.len();
    let sharded = covered != (0..universe as u64);
    let collapse_plan = exec
        .collapse
        .then(|| CollapsePlan::build(netlist, &groups, covered.clone()));
    if let Some(cp) = &collapse_plan {
        ctx.record_collapse(universe, cp.rep_groups.len(), cp.classes_total);
    }
    let sim_groups = match &collapse_plan {
        Some(cp) => cp.rep_groups.clone(),
        None => groups,
    };
    let ranged = sharded && collapse_plan.is_none();
    let scope: Range<usize> = if ranged {
        covered.start as usize..covered.end as usize
    } else {
        0..sim_groups.len()
    };
    let prune_plan = exec.prune.then(|| {
        let span = ctx.span("deduce");
        let pp = PrunePlan::build(netlist, &sim_groups, scope.clone());
        span.close();
        pp
    });
    // Deferred groups are the only ones that might re-simulate in a
    // second pass; keep copies before the engine takes the universe.
    let deferred_groups: HashMap<usize, Vec<StuckAtLine>> = prune_plan
        .as_ref()
        .map(|pp| {
            pp.deferred
                .iter()
                .map(|&(u, _)| (u, sim_groups[u].clone()))
                .collect()
        })
        .unwrap_or_default();
    let mut campaign = scdp_sim::EngineCampaign::over(engine, sim_groups)
        .plan(plan)
        .drop_policy(exec.drop)
        .lanes(exec.lanes);
    if let Some(pp) = &prune_plan {
        campaign = campaign.skip_resolved(pp.skip());
    }
    if let Some(rec) = ctx.recorder() {
        campaign = campaign.recorder(rec);
    }
    if let Some(t) = exec.threads {
        campaign = campaign.threads(t);
    }
    if ranged {
        campaign = campaign.fault_range(scope.clone());
    }
    campaign.check().map_err(|e| CampaignError::FaultSpec {
        message: e.to_string(),
    })?;
    let sim = ctx.span("simulate");
    let summary = campaign.run();
    sim.close();
    let mut outcomes = summary.per_fault;
    // Deductive settling: skipped entries already carry the fault-free
    // baseline outcome; deferred ones keep it only when their root's
    // simulated outcome *is* that (silent, undropped) baseline, and are
    // re-simulated otherwise — each group's outcome is independent of
    // its neighbours, so the second pass reproduces the unpruned rows
    // bit for bit.
    let mut deduced = vec![false; scope.len()];
    let mut deduce = None;
    if let Some(pp) = &prune_plan {
        for &u in &pp.untestable {
            deduced[u - scope.start] = true;
        }
        let baseline = summary.baseline.as_ref();
        let silent_baseline = baseline.is_some_and(|b| {
            b.tally.correct_detected == 0
                && b.tally.error_detected == 0
                && b.tally.error_undetected == 0
                && b.dropped_after.is_none()
        });
        let mut unsettled: Vec<usize> = Vec::new();
        for &(u, anc) in &pp.deferred {
            let settled = silent_baseline && Some(&outcomes[anc - scope.start]) == baseline;
            if settled {
                deduced[u - scope.start] = true;
            } else {
                unsettled.push(u);
            }
        }
        if !unsettled.is_empty() {
            let rerun: Vec<Vec<StuckAtLine>> = unsettled
                .iter()
                .map(|&u| deferred_groups[&u].clone())
                .collect();
            // No recorder here: pass-1 situation counters already cover
            // the whole scope (baseline-filled rows included), keeping
            // `engine.situations` equal to the report's `simulated`.
            let mut pass2 = scdp_sim::EngineCampaign::over(engine, rerun)
                .plan(plan)
                .drop_policy(exec.drop)
                .lanes(exec.lanes);
            if let Some(t) = exec.threads {
                pass2 = pass2.threads(t);
            }
            let second = pass2.run();
            for (k, &u) in unsettled.iter().enumerate() {
                outcomes[u - scope.start] = second.per_fault[k].clone();
            }
        }
        let untestable = pp.untestable.len() as u64;
        let dominated = (pp.deferred.len() - unsettled.len()) as u64;
        let simulated = scope.len() as u64 - untestable - dominated;
        ctx.record_deduce(untestable, dominated, simulated);
        deduce = Some(DeduceDetails {
            untestable,
            dominated,
            simulated,
            rows: Vec::new(),
        });
    }
    let record = |f: &scdp_sim::FaultOutcome| FaultRecord {
        tally: f.tally,
        detected: f.detected,
        escaped: f.escaped,
        dropped_after: f.dropped_after,
    };
    let per_fault: Vec<FaultRecord> = match &collapse_plan {
        Some(cp) => cp.slot_of.iter().map(|&s| record(&outcomes[s])).collect(),
        None => outcomes.iter().map(record).collect(),
    };
    if let Some(d) = &mut deduce {
        d.rows = match &collapse_plan {
            Some(cp) => cp
                .slot_of
                .iter()
                .enumerate()
                .filter(|&(_, &s)| deduced[s])
                .map(|(i, _)| i as u64)
                .collect(),
            None => deduced
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d)
                .map(|(i, _)| i as u64)
                .collect(),
        };
    }
    let mut col = TechTally::default();
    let mut simulated = 0u64;
    for r in &per_fault {
        col += r.tally;
        simulated += r.tally.total();
    }
    Ok((per_fault, col, simulated, deduce))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_core::Technique;
    use std::sync::Arc;

    #[test]
    fn validation_rejects_bad_configs() {
        let err = Scenario::new(Operator::Add, 0)
            .campaign()
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::WidthOutOfRange { .. }));

        let err = Scenario::new(Operator::Add, 4)
            .campaign()
            .exec(ExecPolicy::new().threads(0))
            .run()
            .unwrap_err();
        assert_eq!(err, CampaignError::ZeroThreads);

        let err = Scenario::new(Operator::Add, 4)
            .campaign()
            .exec(ExecPolicy::new().drop_policy(DropPolicy::OnDetect))
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedDropPolicy { .. }));

        let err = Scenario::new(Operator::Div, 4)
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedOperator { .. }));

        let err = Scenario::new(Operator::Add, 4)
            .campaign()
            .fault_model(FaultModel::Structural)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedFaultModel { .. }));

        let err = Scenario::new(Operator::Mul, 4)
            .campaign()
            .backend(Backend::GateLevel)
            .fault_model(FaultModel::FaGate)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedFaultModel { .. }));

        let err = Scenario::new(Operator::Sub, 4)
            .realisation(AdderRealisation::CarrySave)
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedRealisation { .. }));

        let err = Scenario::new(Operator::Add, 32)
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::ExhaustiveSpaceTooLarge { .. }));
    }

    #[test]
    fn functional_report_fills_all_columns() {
        let r = Scenario::new(Operator::Add, 2)
            .technique(Technique::Tech1)
            .campaign()
            .run()
            .unwrap();
        assert_eq!(r.filled.len(), 3);
        assert_eq!(r.four_way().total(), 64 * 16, "64 faults x 16 input pairs");
        assert!(r.column(TechIndex::Both).is_some());
        assert_eq!(r.fault_count(), 64);
    }

    #[test]
    fn gate_report_fills_the_selected_column() {
        let r = Scenario::new(Operator::Add, 2)
            .technique(Technique::Tech1)
            .campaign()
            .backend(Backend::GateLevel)
            .exec(ExecPolicy::new().threads(2))
            .run()
            .unwrap();
        assert_eq!(r.filled, vec![TechIndex::Tech1]);
        assert!(r.column(TechIndex::Both).is_none());
        assert!(r.coverage() > 0.8);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_setters_are_equivalent_to_exec_policy() {
        let scenario = Scenario::new(Operator::Add, 3);
        let legacy = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .threads(2)
            .drop_policy(DropPolicy::OnDetect)
            .collapse(true)
            .telemetry(true);
        let unified = scenario.campaign().backend(Backend::GateLevel).exec(
            ExecPolicy::new()
                .threads(2)
                .drop_policy(DropPolicy::OnDetect)
                .collapse(true)
                .telemetry(true),
        );
        assert_eq!(legacy.exec, unified.exec, "shims must mutate ExecPolicy");
        let a = legacy.run().unwrap();
        let b = unified.run().unwrap();
        assert!(a.same_results(&b));
        assert_eq!(
            legacy.config_fingerprint(),
            unified.config_fingerprint(),
            "fingerprints must agree across the old and new surface"
        );
    }

    #[test]
    fn event_sink_sees_lifecycle_and_spans() {
        use scdp_obs::ObsEvent;
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&seen);
        let sink: EventSink = Arc::new(move |e: &ObsEvent| {
            tap.lock().unwrap().push(e.kind().to_string());
        });
        let r = Scenario::new(Operator::Add, 2)
            .campaign()
            .backend(Backend::GateLevel)
            .events(sink)
            .exec(ExecPolicy::new().telemetry(true))
            .run()
            .unwrap();
        let kinds = seen.lock().unwrap().clone();
        assert_eq!(kinds.first().map(String::as_str), Some("campaign_started"));
        assert!(kinds.contains(&"netlist_compiled".to_string()));
        assert!(
            kinds.iter().filter(|k| *k == "span").count() >= 4,
            "compile/simulate/tally/root spans expected, got {kinds:?}"
        );
        assert_eq!(kinds.last().map(String::as_str), Some("campaign_finished"));
        let tel = r.telemetry.as_ref().expect("telemetry requested");
        assert!(tel.span("campaign/simulate").is_some());
        assert_eq!(tel.counter("engine.faults"), Some(r.fault_count()));
        assert_eq!(tel.counter("engine.situations"), Some(r.simulated));
    }

    #[test]
    fn reports_without_telemetry_stay_plain() {
        let r = Scenario::new(Operator::Add, 2)
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap();
        assert!(r.telemetry.is_none(), "telemetry is opt-in");
        assert!(!r.to_json().contains("\"telemetry\""));
    }

    #[test]
    fn thread_count_does_not_change_gate_results() {
        let scenario = Scenario::new(Operator::Mul, 2);
        let a = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .exec(ExecPolicy::new().threads(1))
            .run()
            .unwrap();
        let b = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .exec(ExecPolicy::new().threads(4))
            .run()
            .unwrap();
        assert!(a.same_results(&b));
    }

    #[test]
    fn dropping_works_through_the_unified_api() {
        let scenario = Scenario::new(Operator::Add, 4);
        let full = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap();
        let dropped = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .exec(ExecPolicy::new().drop_policy(DropPolicy::OnDetect))
            .run()
            .unwrap();
        assert!(dropped.simulated < full.simulated);
        for (f, d) in full.per_fault.iter().zip(&dropped.per_fault) {
            assert_eq!(f.detected, d.detected, "dropping must not change verdicts");
        }
    }
}
