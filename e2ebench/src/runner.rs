//! The library phase: one operation is a campaign graded through
//! `CampaignRunner` into a fresh checkpoint directory (the write path),
//! followed by a second pass over the same directory (the resume path).

use crate::checks;
use crate::input::CampaignInput;
use scdp_campaign::{CampaignReport, CampaignRunner, ObsEvent, ShardState};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Something the runner reported while a traced operation ran.
#[derive(Clone, Debug)]
pub enum Mark {
    Event(ObsEvent),
    Shard(u32, ShardState),
}

pub type Log = Vec<(Instant, Mark)>;

/// Timestamps and runner callbacks of one traced pass.
pub struct PassTrace {
    pub start: Instant,
    /// `CampaignRunner::run` returned.
    pub ran: Instant,
    /// The report JSON is in hand.
    pub end: Instant,
    pub log: Log,
}

/// What a traced operation leaves for the per-layer analysis.
pub struct OpTrace {
    pub write: PassTrace,
    pub resume: PassTrace,
    /// The merged write-path report (with its telemetry section).
    pub report: CampaignReport,
    pub from_json_s: f64,
    /// Report JSON length without the telemetry section.
    pub bytes: usize,
}

/// One executed operation.
pub struct Executed {
    pub campaign_s: f64,
    pub resume_s: f64,
    pub simulated: u64,
    pub digest: u64,
    /// Check failures of the write pass and of the resume pass.
    pub write_error: Option<String>,
    pub resume_error: Option<String>,
    pub trace: Option<OpTrace>,
}

/// Runs the write pass and the resume pass of `input` under `dir`
/// (which must not exist yet; working directories are removed when the
/// run ends, outside the measurement) and checks both results. With
/// `reference`, the merged report is also compared with an unsharded
/// run of the same campaign. `Err` means the write pass itself failed.
pub fn execute(
    input: &CampaignInput,
    dir: &Path,
    traced: bool,
    reference: bool,
) -> Result<Executed, String> {
    let log: Arc<Mutex<Log>> = Arc::new(Mutex::new(Vec::new()));
    let mut runner = CampaignRunner::new(input.job(traced), input.shards).checkpoint_dir(dir);
    if traced {
        let events = Arc::clone(&log);
        let shards = Arc::clone(&log);
        runner = runner
            .events(Arc::new(move |e: &ObsEvent| {
                let now = Instant::now();
                events
                    .lock()
                    .expect("trace log lock")
                    .push((now, Mark::Event(e.clone())));
            }))
            .on_shard(Arc::new(move |index, _count, state| {
                let now = Instant::now();
                shards
                    .lock()
                    .expect("trace log lock")
                    .push((now, Mark::Shard(index, state)));
            }));
    }
    let take = |log: &Arc<Mutex<Log>>| std::mem::take(&mut *log.lock().expect("trace log lock"));

    let start = Instant::now();
    let outcome = runner.run().map_err(|e| e.to_string())?;
    let ran = Instant::now();
    let counts = outcome.counts();
    let report = outcome.report.ok_or("write pass left shards pending")?;
    let json = report.to_json();
    let end = Instant::now();
    let write = PassTrace {
        start,
        ran,
        end,
        log: take(&log),
    };

    let resume_start = Instant::now();
    let resumed = runner.run();
    let resume_ran = Instant::now();
    let resumed = resumed.map_err(|e| e.to_string()).and_then(|o| {
        let counts = o.counts();
        o.report
            .ok_or_else(|| "resume left shards pending".to_string())
            .map(|r| (r.to_json(), r, counts))
    });
    let resume_end = Instant::now();
    let resume = PassTrace {
        start: resume_start,
        ran: resume_ran,
        end: resume_end,
        log: take(&log),
    };

    // Checks, outside the timed passes.
    let shards = input.shards as usize;
    let mut from_json_s = 0.0;
    let write_error = (|| {
        if counts != (0, shards, 0) {
            return Err(format!("write pass shard states {counts:?}"));
        }
        checks::consistent(&report)?;
        let t = Instant::now();
        checks::round_trips(&report, &json)?;
        from_json_s = t.elapsed().as_secs_f64();
        if reference {
            let full = input.job(false).run().map_err(|e| e.to_string())?;
            if !report.same_results(&full) {
                return Err("sharded result differs from the unsharded run".into());
            }
        }
        Ok(())
    })()
    .err();
    let resume_error = match &resumed {
        Err(e) => Some(format!("resume: {e}")),
        Ok((_, _, counts)) if *counts != (shards, 0, 0) => {
            Some(format!("resume pass shard states {counts:?}"))
        }
        Ok((rjson, r, _)) if !r.same_results(&report) || *rjson != json => {
            Some("resumed report differs from the written one".into())
        }
        Ok(_) => None,
    };

    let digest = checks::digest(&report);
    let trace = traced.then(|| {
        let mut plain = report.clone();
        plain.telemetry = None;
        OpTrace {
            write,
            resume,
            bytes: plain.to_json().len(),
            report: report.clone(),
            from_json_s,
        }
    });
    Ok(Executed {
        campaign_s: (end - start).as_secs_f64(),
        resume_s: (resume_end - resume_start).as_secs_f64(),
        simulated: report.simulated,
        digest,
        write_error,
        resume_error,
        trace,
    })
}
