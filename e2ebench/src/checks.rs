//! Result checks. Every mismatch is one failed operation.

use scdp_campaign::{CampaignReport, TechTally};

/// Internal consistency of one report: the canonical tally equals the
/// sum of the per-fault rows, and `simulated` equals the sum of their
/// totals.
pub fn consistent(report: &CampaignReport) -> Result<(), String> {
    let mut sum = TechTally::default();
    let mut total = 0u64;
    for row in &report.per_fault {
        sum += row.tally;
        total += row.tally.total();
    }
    if sum != *report.four_way() {
        return Err("tally differs from the sum of per-fault rows".into());
    }
    if total != report.simulated {
        return Err(format!(
            "simulated {} differs from the per-fault total {total}",
            report.simulated
        ));
    }
    if report.simulated == 0 {
        return Err("report grades no situation".into());
    }
    Ok(())
}

/// `from_json(json)` must give the same results as `report`.
pub fn round_trips(report: &CampaignReport, json: &str) -> Result<CampaignReport, String> {
    let parsed = CampaignReport::from_json(json).map_err(|e| format!("from_json: {e}"))?;
    if !parsed.same_results(report) {
        return Err("from_json(to_json) changes the results".into());
    }
    Ok(parsed)
}

/// A digest of a report's results: FNV-1a over its JSON with the
/// wall-clock and telemetry fields cleared, so equal results give equal
/// digests on every host and thread count.
pub fn digest(report: &CampaignReport) -> u64 {
    let mut r = report.clone();
    r.elapsed_ms = 0;
    r.telemetry = None;
    fnv1a(r.to_json().as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The seed on which result digests are pinned.
pub const PINNED_SEED: u64 = 1;

/// Pinned digests on [`PINNED_SEED`]: `(workload, first library-phase
/// campaign, first served campaign of client 0)`.
const PINNED: [(&str, u64, u64); 2] = [
    ("fir8_comb", 0xa3e2_8d2b_cba8_15ad, 0x14c1_f469_1a84_2867),
    ("fir8_seq", 0x4a88_7ee1_e0eb_0f21, 0x908a_3975_3d90_d3b3),
];

/// Which pinned digest to compare against.
#[derive(Copy, Clone, Debug)]
pub enum Pin {
    FirstCampaign,
    FirstServed,
}

/// Compares `got` with the pinned digest of `workload`.
pub fn check_pin(workload: &str, pin: Pin, got: u64) -> Result<(), String> {
    let Some(&(_, campaign, served)) = PINNED.iter().find(|(w, _, _)| *w == workload) else {
        return Err(format!("no pinned digest for `{workload}`"));
    };
    let want = match pin {
        Pin::FirstCampaign => campaign,
        Pin::FirstServed => served,
    };
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{pin:?} digest {got:016x} differs from the pinned {want:016x}"
        ))
    }
}
