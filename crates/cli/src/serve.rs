//! The `tclose serve` and `tclose request` subcommands.
//!
//! `serve` runs the long-lived daemon of `tclose-serve` over a
//! directory of model artifacts; `request` is the matching one-shot
//! client (ping, list, anonymize, audit, shutdown). Together they make
//! the service loop scriptable without any extra tooling — the CI
//! smoke job drives a full fit → serve → request → shutdown cycle with
//! nothing but these two commands.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use tclose_serve::{Client, ServeError, Server, ServerConfig};

use crate::args::Parsed;
use crate::commands::parse_backend;

/// `tclose serve`: run the anonymization daemon until a client sends
/// the shutdown op.
///
/// Prints its banner (bound address, loaded models) to stdout *before*
/// blocking, so callers can scrape the port — or pass `--addr-file` to
/// have the bound address written to a file once the socket is up.
/// Exits nonzero if the shutdown drain exceeds `--drain-timeout-ms`.
pub fn cmd_serve(p: &Parsed) -> Result<String, String> {
    let registry_dir = p.require("registry")?;
    if !Path::new(registry_dir).is_dir() {
        return Err(format!(
            "--registry {registry_dir:?} is not a directory; create it and `tclose fit` models into it"
        ));
    }
    let mut cfg = ServerConfig::new(registry_dir);
    if let Some(addr) = p.get("addr") {
        cfg.addr = addr.to_string();
    }
    cfg.backend = parse_backend(p)?;
    cfg.batch_workers = p.get_parsed("workers", cfg.batch_workers)?;
    cfg.queue_depth = p.get_parsed("queue", cfg.queue_depth)?;
    let timeout_ms: u64 = p.get_parsed("timeout-ms", cfg.request_timeout.as_millis() as u64)?;
    cfg.request_timeout = Duration::from_millis(timeout_ms);
    let drain_ms: u64 = p.get_parsed("drain-timeout-ms", 30_000u64)?;

    let handle = Server::start(cfg).map_err(|e| e.to_string())?;

    // The banner must reach the pipe before the blocking wait: main()
    // only prints this function's return value after we exit.
    let scan = handle.initial_scan();
    println!("serving on {}", handle.addr());
    println!(
        "registry {registry_dir} ({} model(s) loaded, {} rejected)",
        scan.loaded.len(),
        scan.rejected.len()
    );
    for id in &scan.loaded {
        println!("  model {id}");
    }
    for (id, err) in &scan.rejected {
        println!("  rejected {id}: {err}");
    }
    std::io::stdout().flush().ok();
    if let Some(path) = p.get("addr-file") {
        std::fs::write(path, format!("{}\n", handle.addr()))
            .map_err(|e| format!("cannot write --addr-file {path:?}: {e}"))?;
    }

    handle.wait_for_shutdown_request();
    match handle.shutdown(Duration::from_millis(drain_ms)) {
        Ok(stats) => Ok(format!(
            "shutdown complete: {} request(s) served, {} busy rejection(s), {} timeout(s)",
            stats.served, stats.busy_rejections, stats.timeouts
        )),
        Err(e @ ServeError::DrainTimeout { .. }) => Err(e.to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// `tclose request`: one request against a running daemon.
pub fn cmd_request(p: &Parsed) -> Result<String, String> {
    let addr = p.require("addr")?;
    let op = p.get("op").unwrap_or("ping");
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    match op {
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            Ok("pong".to_string())
        }
        "list" => {
            let models = client.list_models().map_err(|e| e.to_string())?;
            if models.is_empty() {
                return Ok("no models loaded".to_string());
            }
            Ok(models
                .iter()
                .map(|m| {
                    format!(
                        "{}  {}  k={} t={} fitted on {} records",
                        m.id, m.algorithm, m.k, m.t, m.n_records
                    )
                })
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "anonymize" => {
            let model = p.require("model")?;
            let input = p.require("input")?;
            let output = p.require("output")?;
            let csv =
                std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
            let (released, report) = client.anonymize(model, &csv).map_err(|e| e.to_string())?;
            std::fs::write(output, released).map_err(|e| format!("cannot write {output}: {e}"))?;
            Ok(format!(
                "released {} records to {output}\nachieved k          {}\nachieved t (EMD)    {:.5}\nclusters            {}",
                report.n_records, report.achieved_k, report.max_emd, report.n_clusters
            ))
        }
        "audit" => {
            let model = p.require("model")?;
            let input = p.require("input")?;
            let csv =
                std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
            let report = client.audit(model, &csv).map_err(|e| e.to_string())?;
            Ok(report.render(input))
        }
        "shutdown" => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            Ok("server is shutting down".to_string())
        }
        other => Err(format!(
            "unknown op {other:?} (expected ping|list|anonymize|audit|shutdown)"
        )),
    }
}
