//! The host record printed with every run, and the process's peak RSS.

use std::process::{Command, Stdio};

pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub git_rev: String,
}

/// Runs `cmd` to completion and returns its trimmed stdout.
fn capture(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn host() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    // Stop git at the working directory: a checkout that is not a
    // repository must not report the rev of an enclosing one.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    let git_rev = capture(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu,
        rustc: capture(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into()),
        git_rev: git_rev.unwrap_or_else(|| "unavailable".into()),
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
