//! Per-layer numbers of a traced run.
//!
//! Spans come from outside the program: the benchmark timestamps the
//! runner's event stream and shard callbacks, and places each
//! `SpanClosed` event's interval (`compile`, `deduce`, `simulate`,
//! `tally`, …) inside the shard that emitted it. Counters come from the
//! merged report's `telemetry` section. Where one public call covers
//! two layers, the split is derived: the fault-free (good) machine's
//! share of `simulate` wall time is one timed fault-free pass over the
//! same input plan times the pool's block count (each block re-runs the
//! good machine over the whole plan), divided by the pool's worker
//! count (blocks run in parallel), and the faulty share is the rest.

use crate::input::{CampaignInput, Target};
use crate::runner::{Mark, OpTrace, PassTrace};
use crate::serve::ServeResult;
use crate::stats;
use crate::trace::SpanRec;
use scdp_analyze::CollapsedUniverse;
use scdp_campaign::{ObsEvent, ShardState};
use scdp_netlist::{Netlist, StuckAtLine};
use scdp_sim::{
    Engine, FaultDuration, InputPlan, Lanes, SeqCampaign, SeqEngine, SeqFaultGroup, WideBatch,
};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Limbs per wide word at `Lanes::Auto`, the campaigns' lane width.
const LIMBS: usize = Lanes::Auto.limbs();

/// Static properties of one scenario's netlist.
struct Props {
    netlist: Netlist,
    cycles: Option<u32>,
    gates: usize,
    /// Mean fraction of the netlist's gates in a fault group's fanout
    /// cone (transitive readers of the faulted gates).
    cone_frac: f64,
    /// One `CollapsedUniverse::build` + `collapse_groups`.
    collapse_s: f64,
}

/// Elaborates each scenario once per run and caches what the
/// per-layer split needs.
#[derive(Default)]
pub struct Analyzer {
    props: HashMap<String, Props>,
    good: HashMap<(String, u64), f64>,
}

fn build(input: &CampaignInput) -> (Netlist, Vec<Vec<StuckAtLine>>, Option<u32>) {
    match &input.target {
        Target::Datapath(w) => {
            let dp = input.datapath_scenario(w).elaborate();
            let (groups, _) = dp.fault_universe();
            (dp.netlist, groups, None)
        }
        Target::Sequential(w, _) => {
            let dp = input.datapath_scenario(w).elaborate_seq();
            let (groups, _) = dp.fault_universe();
            (dp.netlist, groups, Some(dp.total_cycles))
        }
    }
}

fn cone_frac(netlist: &Netlist, groups: &[Vec<StuckAtLine>]) -> f64 {
    let readers = netlist.readers();
    let n = readers.len();
    let mut seen = vec![0u32; n];
    let mut stack = Vec::new();
    let mut total = 0.0;
    for (stamp, group) in (1u32..).zip(groups) {
        let mut count = 0usize;
        for line in group {
            let g = line.site.gate;
            if seen[g] != stamp {
                seen[g] = stamp;
                count += 1;
                stack.push(g);
            }
        }
        while let Some(g) = stack.pop() {
            for &(r, _) in &readers[g] {
                if seen[r] != stamp {
                    seen[r] = stamp;
                    count += 1;
                    stack.push(r);
                }
            }
        }
        total += count as f64 / n as f64;
    }
    total / groups.len().max(1) as f64
}

/// Repeats `f` for at least 2 ms (and three times) and returns the mean
/// seconds per call.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < 3 || start.elapsed() < Duration::from_millis(2) {
        f();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

impl Analyzer {
    fn props(&mut self, input: &CampaignInput) -> &Props {
        self.props.entry(input.key()).or_insert_with(|| {
            let (netlist, groups, cycles) = build(input);
            let start = Instant::now();
            let cu = CollapsedUniverse::build(&netlist);
            black_box(cu.collapse_groups(&groups));
            let collapse_s = start.elapsed().as_secs_f64();
            Props {
                gates: netlist.gate_count(),
                cone_frac: cone_frac(&netlist, &groups),
                collapse_s,
                cycles,
                netlist,
            }
        })
    }

    /// Seconds of one fault-free pass over a plan of `input.samples`
    /// vectors at the campaigns' lane width.
    fn good_pass_s(&mut self, input: &CampaignInput) -> f64 {
        let key = (input.key(), input.samples);
        if let Some(&s) = self.good.get(&key) {
            return s;
        }
        let plan = InputPlan::Sampled {
            vectors: input.samples,
            seed: 1,
        };
        let props = self.props(input);
        let secs = match props.cycles {
            None => {
                let engine = Engine::new(&props.netlist);
                let batches: Vec<WideBatch<LIMBS>> =
                    plan.wide_stream::<LIMBS>(engine.input_bits()).collect();
                let mut values = Vec::new();
                time_per_call(|| {
                    for b in &batches {
                        engine.eval_wide_into(b, &[], &mut values);
                    }
                    black_box(&values);
                })
            }
            Some(cycles) => {
                // The sequential engine's wide pass is private: time a
                // one-thread campaign over a single empty fault group,
                // which runs the good machine and one identical
                // "faulty" machine per batch, and halve it.
                let engine = SeqEngine::new(&props.netlist);
                let empty = SeqFaultGroup::new(Vec::new(), FaultDuration::Permanent);
                let campaign = SeqCampaign::new(&engine, vec![empty], cycles)
                    .plan(plan)
                    .threads(1);
                time_per_call(|| {
                    black_box(campaign.run());
                }) / 2.0
            }
        };
        self.good.insert(key, secs);
        secs
    }
}

/// Maps a campaign span path to its layer span name.
fn layer_of(path: &str) -> Option<&'static str> {
    Some(match path {
        "campaign/elaborate" => "netlist.elaborate",
        "campaign/compile" => "sim.compile",
        "campaign/deduce" => "analyze.deduce",
        "campaign/simulate" => "sim.simulate",
        "campaign/tally" => "report.tally",
        _ => return None,
    })
}

/// Sums over the traced operations of one run.
#[derive(Default)]
pub struct Layers {
    ops: f64,
    sum: BTreeMap<&'static str, f64>,
    /// Matched untraced/traced wall times, for the tracing overhead.
    untraced_s: f64,
    traced_s: f64,
    pub spans: Vec<SpanRec>,
}

impl Layers {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sum.entry(key).or_insert(0.0) += v;
    }

    fn get(&self, key: &str) -> f64 {
        self.sum.get(key).copied().unwrap_or(0.0)
    }

    /// Records the wall times of one operation run both ways.
    pub fn pair(&mut self, untraced_s: f64, traced_s: f64) {
        self.untraced_s += untraced_s;
        self.traced_s += traced_s;
    }

    /// Folds one traced operation in.
    pub fn record(
        &mut self,
        input: &CampaignInput,
        op: &OpTrace,
        analyzer: &mut Analyzer,
        epoch: Instant,
        op_id: u64,
    ) {
        let good_pass_s = analyzer.good_pass_s(input);
        let props = analyzer.props(input);
        let (gates, cone, collapse_one, cycles) =
            (props.gates, props.cone_frac, props.collapse_s, props.cycles);
        let seq = cycles.is_some();
        self.ops += 1.0;
        let leaves = self.write_spans(&op.write, epoch, op_id);
        self.resume_spans(&op.resume, epoch, op_id);

        let tel = op.report.telemetry.clone().unwrap_or_default();
        let c = |name: &str| tel.counter(name).unwrap_or(0) as f64;
        let compiles = tel.span("campaign/compile").map_or(0, |s| s.count) as f64;
        let simulate_s = tel.span("campaign/simulate").map_or(0, |s| s.total_ns) as f64 * 1e-9;
        let prefix = if seq { "seq" } else { "engine" };
        let batches = c(&format!("{prefix}.fault_batches"));
        let blocks = c("pool.blocks");
        let (mut busy_ns, mut workers) = (0.0, 0.0f64);
        for counter in &tel.counters {
            if counter.name.starts_with("pool.w") && counter.name.ends_with(".busy_ns") {
                busy_ns += counter.value as f64;
                workers += 1.0;
            }
        }

        // Lane accounting at `Lanes::Auto`: a fault's plan spans `lpf`
        // 64-lane limbs, evaluated `LIMBS` at a time in `wpf` passes.
        let lpf = input.samples.div_ceil(64);
        let wpf = lpf.div_ceil(LIMBS as u64);
        let faults_evaluated = batches / lpf as f64;
        let wide_evals = faults_evaluated * wpf as f64;
        // Wall time, like `simulate_s`: the blocks' good-machine passes
        // are spread over the pool's workers. Not clamped, so a split
        // that overshoots `simulate_s` shows as a negative faulty share.
        let good_s = blocks * good_pass_s / workers.max(1.0);
        let faulty_s = simulate_s - good_s;

        self.add("elaborate_s", leaves.elaborate_s);
        self.add("gates", gates as f64);
        self.add("cone_frac", cone);
        self.add("compile_s", leaves.compile_s);
        if input.collapse {
            self.add("collapse_s", collapse_one * compiles);
            // Every shard counts the whole universe as `sites_before`
            // but only its own representatives as `sites_after`.
            self.add(
                "collapse_before",
                c("collapse.sites_before") / compiles.max(1.0),
            );
            self.add("collapse_after", c("collapse.sites_after"));
        }
        self.add("deduce_s", leaves.deduce_s);
        if let Some(d) = &op.report.deduce {
            self.add("settled", (d.untestable + d.dominated) as f64);
            self.add(
                "settle_scope",
                (d.untestable + d.dominated + d.simulated) as f64,
            );
        }
        self.add("good_s", good_s);
        self.add("good_passes", blocks);
        self.add("faulty_s", faulty_s);
        self.add("fault_batches", batches);
        self.add(
            "gate_evals",
            gates as f64 * wide_evals * f64::from(cycles.unwrap_or(1)),
        );
        self.add("lanes_used", faults_evaluated * input.samples as f64);
        self.add("lanes_total", wide_evals * (64 * LIMBS) as f64);
        self.add("busy_ns", busy_ns);
        self.add("capacity_ns", workers * simulate_s * 1e9);
        self.add("blocks", blocks);
        self.add("steals", c("pool.steals"));
        if seq {
            self.add("seq_cycles", c("seq.cycles_evaluated"));
            self.add("seq_good_s", good_s);
            self.add("seq_faulty_s", faulty_s);
        }
        self.add("tally_s", leaves.tally_s);
        self.add("to_json_s", leaves.to_json_s);
        self.add("from_json_s", op.from_json_s);
        self.add("merge_s", leaves.merge_s);
        self.add("bytes", op.bytes as f64);
        self.add("shard_s", leaves.shard_s);
        self.add("shards", leaves.shards);
        self.add("write_s", leaves.write_s);
        self.add("setup_repeats", compiles);
        self.add("resume_s", (op.resume.end - op.resume.start).as_secs_f64());
        self.add("op_s", (op.write.end - op.write.start).as_secs_f64());
        self.add("leaf_s", leaves.total());
    }

    /// Spans of the write pass; returns its leaf-layer totals.
    fn write_spans(&mut self, pass: &PassTrace, epoch: Instant, op: u64) -> Leaves {
        let mut spans = Vec::new();
        let mut leaves = Leaves::default();
        spans.push(SpanRec::new(
            "runner.campaign",
            epoch,
            pass.start,
            pass.end,
            None,
            op,
        ));
        let mut started: HashMap<u32, Instant> = HashMap::new();
        let mut finished: HashMap<u32, Instant> = HashMap::new();
        let mut children: Vec<(&'static str, Instant, Instant)> = Vec::new();
        let mut elaborating: Option<Instant> = None;
        let mut first = true;
        let mut last_hook = pass.start;
        for (t, mark) in &pass.log {
            match mark {
                Mark::Event(ObsEvent::ShardStarted { shard, .. }) => {
                    started.insert(*shard, *t);
                    // The runner elaborates a datapath machine once, at
                    // its first fresh shard, before that shard's
                    // campaign starts.
                    if first {
                        elaborating = Some(*t);
                    }
                    first = false;
                }
                Mark::Event(ObsEvent::CampaignStarted { .. }) => {
                    if let Some(a) = elaborating.take() {
                        children.push(("netlist.elaborate", a, *t));
                    }
                }
                Mark::Event(ObsEvent::SpanClosed { path, elapsed_ns }) => {
                    if let Some(name) = layer_of(path) {
                        let a = t
                            .checked_sub(Duration::from_nanos(*elapsed_ns))
                            .unwrap_or(*t);
                        children.push((name, a, *t));
                    }
                }
                Mark::Event(ObsEvent::ShardFinished { shard, state, .. }) if state == "ran" => {
                    let a = started.get(shard).copied().unwrap_or(pass.start);
                    let parent = spans.len();
                    spans.push(SpanRec::new("runner.shard", epoch, a, *t, Some(0), op));
                    leaves.shard_s += (*t - a).as_secs_f64();
                    leaves.shards += 1.0;
                    for (name, a, b) in children.drain(..) {
                        let secs = (b - a).as_secs_f64();
                        match name {
                            "netlist.elaborate" => leaves.elaborate_s += secs,
                            "sim.compile" => leaves.compile_s += secs,
                            "analyze.deduce" => leaves.deduce_s += secs,
                            "sim.simulate" => leaves.simulate_s += secs,
                            _ => leaves.tally_s += secs,
                        }
                        spans.push(SpanRec::new(name, epoch, a, b, Some(parent), op));
                    }
                    finished.insert(*shard, *t);
                }
                Mark::Shard(index, ShardState::Ran) => {
                    if let Some(&f) = finished.get(index) {
                        spans.push(SpanRec::new(
                            "runner.checkpoint_write",
                            epoch,
                            f,
                            *t,
                            Some(0),
                            op,
                        ));
                        leaves.write_s += (*t - f).as_secs_f64();
                    }
                    last_hook = *t;
                }
                _ => {}
            }
        }
        spans.push(SpanRec::new(
            "report.merge",
            epoch,
            last_hook,
            pass.ran,
            Some(0),
            op,
        ));
        spans.push(SpanRec::new(
            "report.to_json",
            epoch,
            pass.ran,
            pass.end,
            Some(0),
            op,
        ));
        leaves.merge_s = (pass.ran - last_hook).as_secs_f64();
        leaves.to_json_s = (pass.end - pass.ran).as_secs_f64();
        crate::trace::extend(&mut self.spans, spans);
        leaves
    }

    /// Spans of the resume pass: one `runner.load` per resumed shard
    /// (from the previous shard's verdict to its own), the merge and
    /// the JSON rendering.
    fn resume_spans(&mut self, pass: &PassTrace, epoch: Instant, op: u64) {
        let mut spans = vec![SpanRec::new(
            "runner.resume",
            epoch,
            pass.start,
            pass.end,
            None,
            op,
        )];
        let mut prev = pass.start;
        for (t, mark) in &pass.log {
            if let Mark::Event(ObsEvent::ShardFinished { state, .. }) = mark {
                if state == "resumed" {
                    spans.push(SpanRec::new("runner.load", epoch, prev, *t, Some(0), op));
                    prev = *t;
                }
            }
        }
        spans.push(SpanRec::new(
            "report.merge",
            epoch,
            prev,
            pass.ran,
            Some(0),
            op,
        ));
        spans.push(SpanRec::new(
            "report.to_json",
            epoch,
            pass.ran,
            pass.end,
            Some(0),
            op,
        ));
        crate::trace::extend(&mut self.spans, spans);
    }

    /// The per-layer metrics: `(name, value, unit)`. Times and counts
    /// are per library-phase operation unless named otherwise; a layer
    /// that does not run on the workload reads 0.
    pub fn metrics(&self, serve: &ServeResult) -> Vec<(&'static str, f64, &'static str)> {
        let ops = self.ops.max(1.0);
        let per = |k: &str| self.get(k) / ops;
        let ratio = |a: &str, b: &str| {
            let d = self.get(b);
            if d > 0.0 {
                self.get(a) / d
            } else {
                0.0
            }
        };
        let jobs = &serve.jobs;
        let misses: Vec<f64> = jobs.iter().filter(|j| !j.hit).map(|j| j.queue_ms).collect();
        let total = |hit_only: bool| -> Vec<f64> {
            jobs.iter()
                .filter(|j| j.hit || !hit_only)
                .map(|j| j.total_ms)
                .collect()
        };
        let hits = jobs.iter().filter(|j| j.hit).count() as f64;
        let overhead = if self.untraced_s > 0.0 {
            self.traced_s / self.untraced_s - 1.0
        } else {
            0.0
        };
        vec![
            ("netlist.elaborate_s", per("elaborate_s"), "s"),
            ("netlist.gates", per("gates"), "count"),
            ("sim.compile_s", per("compile_s"), "s"),
            ("analyze.collapse_s", per("collapse_s"), "s"),
            ("analyze.deduce_s", per("deduce_s"), "s"),
            (
                "analyze.collapse_ratio",
                ratio("collapse_before", "collapse_after"),
                "ratio",
            ),
            (
                "analyze.settled_frac",
                ratio("settled", "settle_scope"),
                "fraction",
            ),
            ("sim.good_s", per("good_s"), "s"),
            ("sim.good_passes", per("good_passes"), "count"),
            ("sim.faulty_s", per("faulty_s"), "s"),
            ("sim.fault_batches", per("fault_batches"), "count"),
            ("sim.gate_evals", per("gate_evals"), "count"),
            (
                "sim.lane_fill",
                ratio("lanes_used", "lanes_total"),
                "fraction",
            ),
            ("sim.cone_frac", per("cone_frac"), "fraction"),
            (
                "pool.busy_frac",
                ratio("busy_ns", "capacity_ns"),
                "fraction",
            ),
            ("pool.blocks", per("blocks"), "count"),
            ("pool.steals", per("steals"), "count"),
            ("seq.cycles_evaluated", per("seq_cycles"), "count"),
            ("seq.good_s", per("seq_good_s"), "s"),
            ("seq.faulty_s", per("seq_faulty_s"), "s"),
            ("report.tally_s", per("tally_s"), "s"),
            ("report.to_json_s", per("to_json_s"), "s"),
            ("report.from_json_s", per("from_json_s"), "s"),
            ("report.merge_s", per("merge_s"), "s"),
            ("report.bytes", per("bytes"), "bytes"),
            ("runner.shard_s", ratio("shard_s", "shards"), "s"),
            ("runner.checkpoint_write_s", ratio("write_s", "shards"), "s"),
            ("runner.resume_s", per("resume_s"), "s"),
            ("runner.setup_repeats", per("setup_repeats"), "count"),
            (
                "serve.submit_ms",
                stats::mean(&jobs.iter().map(|j| j.submit_ms).collect::<Vec<_>>()),
                "ms",
            ),
            ("serve.queue_ms", stats::mean(&misses), "ms"),
            ("serve.job_p50_ms", stats::median(&total(false)), "ms"),
            ("serve.hit_p50_ms", stats::median(&total(true)), "ms"),
            (
                "serve.fetch_ms",
                stats::mean(&jobs.iter().map(|j| j.fetch_ms).collect::<Vec<_>>()),
                "ms",
            ),
            (
                "serve.cache_hit_frac",
                hits / (jobs.len().max(1) as f64),
                "fraction",
            ),
            ("serve.http_errors", serve.http_errors as f64, "count"),
            ("trace.overhead_frac", overhead, "fraction"),
            (
                "trace.unaccounted_frac",
                1.0 - ratio("leaf_s", "op_s"),
                "fraction",
            ),
        ]
    }
}

/// Leaf-layer totals of one write pass.
#[derive(Default)]
struct Leaves {
    elaborate_s: f64,
    compile_s: f64,
    deduce_s: f64,
    simulate_s: f64,
    tally_s: f64,
    write_s: f64,
    merge_s: f64,
    to_json_s: f64,
    shard_s: f64,
    shards: f64,
}

impl Leaves {
    fn total(&self) -> f64 {
        self.elaborate_s
            + self.compile_s
            + self.deduce_s
            + self.simulate_s
            + self.tally_s
            + self.write_s
            + self.merge_s
            + self.to_json_s
    }
}
