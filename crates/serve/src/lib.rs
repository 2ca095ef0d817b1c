//! `scdp-serve` — the campaign job server behind `scdp serve`.
//!
//! A long-running process that computes each graded campaign point
//! once and serves it many times: hand-rolled HTTP/1.1 + JSON over
//! [`std::net::TcpListener`] (no dependencies, consistent with the
//! workspace's offline policy) on a few long-lived connection handler
//! threads, a bounded worker pool executing
//! [`scdp_campaign::CampaignRunner`] jobs, and a content-addressed
//! result cache keyed by the job's configuration fingerprint.
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /jobs` | submit a spec; returns the job id and a cache verdict |
//! | `GET /jobs/<id>` | lifecycle state + per-shard progress |
//! | `GET /jobs/<id>/report` | the merged report, byte-verbatim |
//! | `GET /healthz` | liveness probe |
//!
//! Because the cache and the checkpoints share the job directory, a
//! killed server resumes its in-flight jobs on restart through the
//! runner's fingerprint-guarded resume — see [`server`] for the
//! on-disk layout.
//!
//! ```no_run
//! use scdp_serve::{Server, ServerConfig};
//!
//! let handle = Server::start(&ServerConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     dir: "scdp-jobs".into(),
//!     workers: 2,
//! })
//! .expect("bind");
//! println!("listening on {}", handle.addr());
//! handle.join();
//! ```

pub mod client;
pub mod http;
pub mod jobspec;
pub mod server;

pub use jobspec::JobSpec;
pub use server::{job_id, Server, ServerConfig, ServerHandle};
