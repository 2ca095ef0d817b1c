//! End-to-end campaign benchmark for `scdp`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fir8_comb --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process generates every input from `--seed`, drives the public
//! library API (`CampaignRunner` over `scdp-campaign`/`scdp-sim`/
//! `scdp-analyze`) and an in-process `scdp-serve` server for
//! `--seconds`, checks every result and prints each metric by name and
//! unit. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod checks;
mod host;
mod input;
mod layers;
mod runner;
mod serve;
mod stats;
mod trace;

use input::{CampaignInput, Inputs, Workload};
use scdp_campaign::CampaignRunner;
use scdp_rng::{Rng, SplitMix64};
use scdp_serve::{client, Server, ServerConfig, ServerHandle};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Slices a run is cut into. Each slice runs the library phase, then
/// the serve phase, so every metric samples the whole run rather than
/// one stretch of it: on a shared host the speed drifts over seconds.
const SLICES: u32 = 9;

/// Share of each slice for the library phase; the serve phase gets the
/// rest.
const LIBRARY_SHARE: f64 = 0.7;

/// Spare set-ups timed (and torn down) at the start of each slice.
/// With the run's own set-up they give `setup_s` its median over
/// `1 + SLICES * SPARE_SETUPS` samples spread over the whole run.
const SPARE_SETUPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = checks::PINNED_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("seconds"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join("|")))?,
        seed,
        seconds,
        trace,
    })
}

/// Everything a run sets up before its first timed operation.
struct Env {
    dir: PathBuf,
    server: ServerHandle,
    addr: String,
    inputs: Inputs,
    client: serve::Client,
}

fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Input generation, a fresh working directory, the server and a
/// warm-up campaign on both paths.
fn setup(args: &Args, nproc: usize, k: usize) -> Result<Env, String> {
    let dir = out_root().join(format!(
        "{}-{}-{k}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let inputs = Inputs::new(args.workload, args.seed, nproc);
    let client_seed = SplitMix64::new(args.seed).next_u64();
    let client = serve::Client::new(Inputs::new(args.workload, client_seed, nproc));
    // One closed-loop client keeps at most one job in flight, so a hit
    // never waits for a CPU behind another campaign and a miss never
    // queues; one worker suffices. Served campaigns run on `nproc`
    // threads like library ones (workers x campaign threads = nproc):
    // on a 2-vCPU host a one-thread campaign's time depended on which
    // vCPU it landed on.
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.join("serve"),
        workers: 1,
    })
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr().to_string();

    let warm = inputs.warmup();
    let report = CampaignRunner::new(warm.job(false), warm.shards)
        .checkpoint_dir(dir.join("warmup"))
        .run()
        .map_err(|e| format!("warm-up campaign: {e}"))?
        .report
        .ok_or("warm-up campaign incomplete")?;
    std::hint::black_box(report.to_json());
    let submitted = client::submit(&addr, &warm.spec_json())?;
    serve::wait_done(&addr, &submitted.id, submitted.status).map_err(|(e, _)| e)?;
    client::fetch_report(&addr, &submitted.id)?;
    Ok(Env {
        dir,
        server,
        addr,
        inputs,
        client,
    })
}

fn teardown(env: Env) {
    env.server.shutdown();
    let _ = std::fs::remove_dir_all(&env.dir);
}

/// Operation counts and the first few failure messages.
#[derive(Default)]
struct Outcomes {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcomes {
    fn record(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// The library phase of one run, kept across slices.
struct Library<'a> {
    args: &'a Args,
    ckpt: PathBuf,
    epoch: Instant,
    outcomes: Outcomes,
    campaign_s: Vec<f64>,
    resume_s: Vec<f64>,
    simulated: u64,
    layers: layers::Layers,
    analyzer: layers::Analyzer,
    /// Scenario keys already checked against an unsharded run.
    references: HashSet<String>,
    /// Campaigns graded so far.
    n: u64,
}

impl Library<'_> {
    /// Grades campaigns until `deadline`; with `finish_round`, also to
    /// the end of the current round.
    fn run(&mut self, inputs: &mut Inputs, deadline: Instant, finish_round: bool) {
        loop {
            self.grade(&inputs.next_runner());
            self.n += 1;
            if Instant::now() >= deadline && (!finish_round || inputs.round_done()) {
                break;
            }
        }
    }

    /// One operation: write and resume `input`, checked. A traced run
    /// executes it both ways, alternating which goes first; the pair
    /// gives the tracing overhead.
    fn grade(&mut self, input: &CampaignInput) {
        let n = self.n;
        let reference = self.references.insert(input.key());
        let runs: &[bool] = match (self.args.trace, n % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut walls = [0.0f64; 2];
        for (i, &traced) in runs.iter().enumerate() {
            let dir = self.ckpt.join(format!("{n}-{}", u8::from(traced)));
            let done = match runner::execute(input, &dir, traced, reference && i == 0) {
                Ok(done) => done,
                Err(e) => {
                    self.outcomes.record(Some(e));
                    self.outcomes
                        .record(Some("resume skipped: write pass failed".into()));
                    continue;
                }
            };
            let mut write_error = done.write_error;
            if self.args.seed == checks::PINNED_SEED && n == 0 && write_error.is_none() {
                write_error = checks::check_pin(
                    self.args.workload.name(),
                    checks::Pin::FirstCampaign,
                    done.digest,
                )
                .err();
            }
            self.outcomes.record(write_error);
            self.outcomes.record(done.resume_error);
            walls[usize::from(traced)] = done.campaign_s + done.resume_s;
            match &done.trace {
                Some(t) => self
                    .layers
                    .record(input, t, &mut self.analyzer, self.epoch, n),
                None => {
                    self.campaign_s.push(done.campaign_s);
                    self.resume_s.push(done.resume_s);
                    self.simulated += done.simulated;
                }
            }
        }
        if self.args.trace {
            self.layers.pair(walls[0], walls[1]);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let host = host::host();
    let nproc = host.nproc;
    let name = args.workload.name();
    println!(
        "e2ebench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={nproc} cpu=\"{}\" rustc=\"{}\" git={}",
        host.cpu, host.rustc, host.git_rev
    );
    println!("sizing: campaigns on {nproc} threads; serve: 1 worker, 1 closed-loop client");

    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let env = setup(args, nproc, setup_s.len())?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok::<Env, String>(env)
    };
    let mut setup_s = Vec::new();
    let mut env = timed_setup(&mut setup_s)?;

    let epoch = Instant::now();
    let mut library = Library {
        args,
        ckpt: env.dir.join("ckpt"),
        epoch,
        outcomes: Outcomes::default(),
        campaign_s: Vec::new(),
        resume_s: Vec::new(),
        simulated: 0,
        layers: layers::Layers::default(),
        analyzer: layers::Analyzer::default(),
        references: HashSet::new(),
        n: 0,
    };
    let slice = Duration::from_secs_f64(args.seconds) / SLICES;
    for k in 0..SLICES {
        for _ in 0..SPARE_SETUPS {
            teardown(timed_setup(&mut setup_s)?);
        }
        let last = k + 1 == SLICES;
        let start = Instant::now();
        library.run(&mut env.inputs, start + slice.mul_f64(LIBRARY_SHARE), last);
        let start = Instant::now();
        env.client.run(
            &env.addr,
            start + slice.mul_f64(1.0 - LIBRARY_SHARE),
            last,
            name,
            args.seed == checks::PINNED_SEED,
            args.trace.then_some(epoch),
        );
    }
    let served = std::mem::take(&mut env.client.result);
    teardown(env);

    let mut outcomes = std::mem::take(&mut library.outcomes);
    outcomes.attempted += served.attempted;
    outcomes.failed += served.failed;
    outcomes.errors.extend(served.errors.iter().cloned());

    let metrics = if args.trace {
        let mut spans = std::mem::take(&mut library.layers.spans);
        trace::extend(&mut spans, served.spans.clone());
        let path = out_root().join(format!("spans-{name}-seed{}.jsonl", args.seed));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
        library.layers.metrics(&served)
    } else {
        end_to_end(&library, &served, &setup_s)
    };

    let failed_frac = outcomes.failed as f64 / outcomes.attempted.max(1) as f64;
    println!(
        "operations: attempted={} failed={} failed_frac={failed_frac}",
        outcomes.attempted, outcomes.failed
    );
    for e in outcomes.errors.iter().take(5) {
        println!("failure: {e}");
    }
    for (metric, value, unit) in &metrics {
        println!("{metric:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{metric}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcomes.failed == 0,
        outcomes.attempted,
        outcomes.failed,
        body.join(", ")
    );
    Ok(())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    library: &Library,
    served: &serve::ServeResult,
    setup_s: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let wall: f64 = library.campaign_s.iter().sum();
    let (tail_s, pct, n) = stats::tail(&library.campaign_s);
    println!("campaigns: n={n}; campaign_tail_s is p{pct:.1} of {n}");
    let all: Vec<f64> = served.jobs.iter().map(|j| j.total_ms).collect();
    let (hits, misses): (Vec<_>, Vec<_>) = served.jobs.iter().partition(|j| j.hit);
    let hits: Vec<f64> = hits.iter().map(|j| j.total_ms).collect();
    let misses: Vec<f64> = misses.iter().map(|j| j.total_ms).collect();
    println!(
        "resumes: n={} p50={:.6} s; resume_mean_s is their mean",
        library.resume_s.len(),
        stats::median(&library.resume_s)
    );
    let (job_tail, job_pct, jobs) = stats::tail(&all);
    println!(
        "jobs: n={jobs} hits={} misses={}; job_tail_ms is p{job_pct:.1} of {jobs}; \
         p50 {:.3} ms, hits p50 {:.3} ms (per-layer serve.job_p50_ms, serve.hit_p50_ms)",
        hits.len(),
        misses.len(),
        stats::median(&all),
        stats::median(&hits)
    );
    vec![
        ("setup_s", stats::median(setup_s), "s"),
        (
            "situations_per_s",
            library.simulated as f64 / wall.max(1e-9),
            "1/s",
        ),
        ("campaign_p50_s", stats::median(&library.campaign_s), "s"),
        ("campaign_tail_s", tail_s, "s"),
        ("resume_mean_s", stats::mean(&library.resume_s), "s"),
        ("job_tail_ms", job_tail, "ms"),
        ("miss_p50_ms", stats::median(&misses), "ms"),
        (
            "jobs_per_s",
            all.len() as f64 / served.wall_s.max(1e-9),
            "1/s",
        ),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}
