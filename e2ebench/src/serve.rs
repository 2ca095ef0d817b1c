//! The serve phase: a closed-loop client against an in-process
//! `scdp serve` on loopback. A fixed share of submissions repeat a spec
//! that already completed (cache hits); the rest are fresh (misses).

use crate::checks::{self, Pin};
use crate::input::Inputs;
use crate::trace::SpanRec;
use scdp_campaign::CampaignReport;
use scdp_serve::client;
use std::time::{Duration, Instant};

/// Hits per ten submissions: a cache-fronted server serves most
/// requests from its cache.
const HITS_PER_TEN: u64 = 7;

/// A hit repeats one of the last `RECENT` misses, in turn. Every miss is
/// then repeated about equally often, so in every run the hits carry the
/// same mix of shapes, and of report sizes, as the misses.
const RECENT: usize = 3;

/// One finished job as a client saw it.
pub struct JobSample {
    pub hit: bool,
    pub total_ms: f64,
    pub submit_ms: f64,
    pub queue_ms: f64,
    pub fetch_ms: f64,
}

#[derive(Default)]
pub struct ServeResult {
    pub jobs: Vec<JobSample>,
    pub attempted: u64,
    pub failed: u64,
    pub http_errors: u64,
    pub errors: Vec<String>,
    pub spans: Vec<SpanRec>,
    pub wall_s: f64,
}

struct Completed {
    spec: String,
    report: String,
}

/// Polls `id` until it leaves the queue and then until it is done;
/// returns the instant it was first seen out of the queue. The poll
/// interval starts at 100 µs and backs off to 1 ms, well below the
/// latency of any job. An error says whether it was an HTTP-level
/// failure.
pub fn wait_done(addr: &str, id: &str, mut status: String) -> Result<Instant, (String, bool)> {
    let mut dequeued = None;
    let mut pause = Duration::from_micros(100);
    loop {
        if status != "queued" && dequeued.is_none() {
            dequeued = Some(Instant::now());
        }
        match status.as_str() {
            "done" => return Ok(dequeued.unwrap_or_else(Instant::now)),
            "failed" => return Err((format!("job {id} failed"), false)),
            _ => {}
        }
        std::thread::sleep(pause);
        pause = (pause * 3 / 2).min(Duration::from_millis(1));
        status = client::job_status(addr, id).map_err(|e| (e, true))?.status;
    }
}

/// The closed-loop client. It keeps its state between calls to
/// [`Client::run`], so a run can interleave serve slices with library
/// slices.
pub struct Client {
    inputs: Inputs,
    /// Hits so far.
    hits: usize,
    /// Submissions so far.
    j: u64,
    /// The last `RECENT` misses, oldest first. Only these are repeated,
    /// so older reports are dropped and the benchmark's own memory does
    /// not grow with the run (it would show in `peak_rss_mb`).
    completed: Vec<Completed>,
    pub result: ServeResult,
}

impl Client {
    pub fn new(inputs: Inputs) -> Client {
        Client {
            inputs,
            hits: 0,
            j: 0,
            completed: Vec::new(),
            result: ServeResult::default(),
        }
    }

    /// Submits jobs until `deadline`; with `finish_round`, also until
    /// the current round of fresh campaigns is complete. `pin` asks for
    /// the first served report to be compared with its pinned digest.
    pub fn run(
        &mut self,
        addr: &str,
        deadline: Instant,
        finish_round: bool,
        workload: &str,
        pin: bool,
        epoch: Option<Instant>,
    ) {
        let start = Instant::now();
        while Instant::now() < deadline || (finish_round && !self.inputs.served_round_done()) {
            self.step(addr, workload, pin, epoch);
        }
        self.result.wall_s += start.elapsed().as_secs_f64();
    }

    /// One submission: a repeat of a recent miss for seven of every
    /// ten, a fresh campaign otherwise. `epoch` is set when tracing.
    fn step(&mut self, addr: &str, workload: &str, pin: bool, epoch: Option<Instant>) {
        let want_hit = (self.j * 3) % 10 < HITS_PER_TEN;
        let repeat = (want_hit && !self.completed.is_empty()).then(|| {
            let n = self.completed.len();
            self.hits += 1;
            &self.completed[n - 1 - self.hits % n]
        });
        let hit = repeat.is_some();
        let spec = match repeat {
            Some(c) => c.spec.clone(),
            None => self.inputs.next_served().spec_json(),
        };
        let op = self.j;
        self.j += 1;
        let out = &mut self.result;
        out.attempted += 1;
        let (t, report) = match job(addr, &spec, hit) {
            Ok(done) => done,
            Err((message, http)) => {
                out.failed += 1;
                out.http_errors += u64::from(http);
                out.errors.push(message);
                return;
            }
        };
        let verdict = match repeat {
            Some(c) => (report == c.report)
                .then_some(())
                .ok_or_else(|| "cache hit is not byte-identical to its miss".to_string()),
            None => check_miss(&report, pin && op == 0, workload),
        };
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        out.jobs.push(JobSample {
            hit,
            total_ms: ms(t[0], t[4]),
            submit_ms: ms(t[0], t[1]),
            queue_ms: ms(t[1], t[2]),
            fetch_ms: ms(t[3], t[4]),
        });
        if let Some(epoch) = epoch {
            let root = out.spans.len();
            out.spans
                .push(SpanRec::new("serve.job", epoch, t[0], t[4], None, op));
            for (name, a, b) in [
                ("serve.submit", t[0], t[1]),
                ("serve.queue", t[1], t[2]),
                ("serve.run", t[2], t[3]),
                ("serve.fetch", t[3], t[4]),
            ] {
                out.spans
                    .push(SpanRec::new(name, epoch, a, b, Some(root), op));
            }
        }
        match verdict {
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
            }
            Ok(()) if !hit => {
                if self.completed.len() == RECENT {
                    self.completed.remove(0);
                }
                self.completed.push(Completed { spec, report });
            }
            Ok(()) => {}
        }
    }
}

/// Submits `spec`, waits for it and fetches the report. Returns the
/// instants submit-start, submit-end, dequeued, done, fetched, and the
/// report bytes; an error carries whether it was an HTTP-level failure.
fn job(addr: &str, spec: &str, hit: bool) -> Result<([Instant; 5], String), (String, bool)> {
    let t0 = Instant::now();
    let submitted = client::submit(addr, spec).map_err(|e| (e, true))?;
    let t1 = Instant::now();
    let expected = if hit { "hit" } else { "miss" };
    if submitted.cache != expected {
        return Err((
            format!(
                "expected a cache {expected}, server said {}",
                submitted.cache
            ),
            false,
        ));
    }
    let dequeued = wait_done(addr, &submitted.id, submitted.status)?;
    let t3 = Instant::now();
    let report = client::fetch_report(addr, &submitted.id).map_err(|e| (e, true))?;
    let t4 = Instant::now();
    Ok(([t0, t1, dequeued.max(t1), t3, t4], report))
}

/// A miss must parse, be consistent and round-trip.
fn check_miss(text: &str, pinned: bool, workload: &str) -> Result<(), String> {
    let report = CampaignReport::from_json(text).map_err(|e| format!("served report: {e}"))?;
    checks::consistent(&report)?;
    checks::round_trips(&report, &report.to_json())?;
    if pinned {
        checks::check_pin(workload, Pin::FirstServed, checks::digest(&report))?;
    }
    Ok(())
}
