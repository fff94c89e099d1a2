//! Service-level tests for the daemon: registry hot-reload, request
//! batching, arrival-order responses, backpressure, timeouts, and
//! drain-on-shutdown — all through the [`TestServer`] fixture over a
//! real loopback socket.

use std::time::Duration;

use tclose_core::{Algorithm, Anonymizer, ArtifactError, FittedAnonymizer, ModelArtifact};
use tclose_datasets::census::census_sized;
use tclose_microdata::csv::to_csv_string;
use tclose_microdata::Table;
use tclose_serve::protocol::{Request, Response};
use tclose_serve::{ClientError, ModelRegistry, TestServer};

fn fixture_table() -> Table {
    census_sized(42, 120)
}

fn fixture_artifact(k: usize, t: f64) -> ModelArtifact {
    let table = fixture_table();
    let fitted = Anonymizer::new(k, t)
        .algorithm(Algorithm::Merge)
        .fit(&table)
        .unwrap();
    ModelArtifact::from_fitted(&fitted)
}

fn fixture_csv() -> String {
    to_csv_string(&fixture_table()).unwrap()
}

/// The offline reference: exactly what `tclose apply` (non-stream)
/// would release for this artifact and input.
fn offline_release(artifact: &ModelArtifact) -> String {
    let out = FittedAnonymizer::from_artifact(artifact)
        .apply_shard(&fixture_table())
        .unwrap();
    to_csv_string(&out.table.drop_identifiers().unwrap()).unwrap()
}

#[test]
fn ping_and_empty_registry_list() {
    let server = TestServer::start();
    let mut client = server.client();
    client.ping().unwrap();
    assert!(client.list_models().unwrap().is_empty());
    server.shutdown().unwrap();
}

#[test]
fn anonymize_matches_offline_apply_and_audit_agrees() {
    let server = TestServer::start();
    let artifact = fixture_artifact(3, 0.45);
    server.install_model("census", &artifact);

    let mut client = server.client();
    let models = client.list_models().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].id, "census");
    assert_eq!(models[0].k, 3);
    assert_eq!(models[0].n_records, 120);

    let (csv, report) = client.anonymize("census", &fixture_csv()).unwrap();
    assert_eq!(
        csv,
        offline_release(&artifact),
        "serve diverged from offline apply"
    );
    assert!(report.achieved_k >= 3);
    assert_eq!(report.n_records, 120);

    let audit = client.audit("census", &csv).unwrap();
    assert_eq!(audit.n_records, 120);
    assert_eq!(audit.achieved_k, report.achieved_k);
    assert!(audit.achieved_l >= 1);
    server.shutdown().unwrap();
}

#[test]
fn unknown_model_is_a_request_error_not_a_connection_loss() {
    let server = TestServer::start();
    let mut client = server.client();
    match client.anonymize("nope", &fixture_csv()) {
        Err(ClientError::Remote { detail, .. }) => {
            assert!(detail.contains("unknown model"), "detail: {detail}")
        }
        other => panic!("expected Remote error, got {other:?}"),
    }
    // The connection survived the error.
    client.ping().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn malformed_csv_is_a_request_error_and_the_server_survives() {
    let server = TestServer::start();
    server.install_model("census", &fixture_artifact(3, 0.45));
    let mut client = server.client();
    match client.anonymize("census", "this,is\nnot_the,right,shape\n") {
        Err(ClientError::Remote { .. }) => {}
        other => panic!("expected Remote error, got {other:?}"),
    }
    // Same connection, valid request: still served.
    let (_csv, report) = client.anonymize("census", &fixture_csv()).unwrap();
    assert!(report.achieved_k >= 3);
    server.shutdown().unwrap();
}

#[test]
fn pipelined_requests_answer_in_arrival_order() {
    let server = TestServer::start();
    server.install_model("census", &fixture_artifact(3, 0.45));
    let mut client = server.client();
    let csv = fixture_csv();

    // Fire a burst without reading: ping / anonymize / ping / audit /
    // anonymize. Responses must come back in exactly this order even
    // though pings are answered inline and the rest are batched.
    let burst = vec![
        Request::Ping { id: 10 },
        Request::Anonymize {
            id: 11,
            model: "census".into(),
            csv: csv.clone(),
        },
        Request::Ping { id: 12 },
        Request::Audit {
            id: 13,
            model: "census".into(),
            csv: csv.clone(),
        },
        Request::Anonymize {
            id: 14,
            model: "census".into(),
            csv: csv.clone(),
        },
    ];
    for req in &burst {
        client.send(req).unwrap();
    }
    let ids: Vec<u64> = (0..burst.len())
        .map(|_| client.receive().unwrap().id())
        .collect();
    assert_eq!(
        ids,
        vec![10, 11, 12, 13, 14],
        "responses out of arrival order"
    );
    server.shutdown().unwrap();
}

#[test]
fn concurrent_clients_all_get_identical_releases() {
    let server = TestServer::start();
    let artifact = fixture_artifact(3, 0.45);
    server.install_model("census", &artifact);
    let reference = offline_release(&artifact);
    let addr = server.addr();
    let csv = fixture_csv();

    let releases: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let csv = csv.clone();
                scope.spawn(move || {
                    let mut client = tclose_serve::Client::connect(addr).unwrap();
                    let (out, _report) = client.anonymize("census", &csv).unwrap();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, release) in releases.iter().enumerate() {
        assert_eq!(release, &reference, "client {i} got a divergent release");
    }
    let stats = server.shutdown().unwrap();
    assert!(stats.served >= 8);
}

#[test]
fn queue_full_yields_busy_and_the_server_keeps_serving() {
    // One worker, queue depth 1: a running sleep plus one queued job
    // saturate the server; the third expensive request must be Busy.
    let server = TestServer::with_config(|cfg| {
        cfg.batch_workers = 1;
        cfg.queue_depth = 1;
    });
    let mut client = server.client();

    client.send(&Request::Sleep { id: 1, millis: 400 }).unwrap();
    // Let the batcher pop the first sleep so the queue is empty again.
    std::thread::sleep(Duration::from_millis(150));
    client.send(&Request::Sleep { id: 2, millis: 10 }).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    client.send(&Request::Sleep { id: 3, millis: 10 }).unwrap();

    // Arrival order holds even though the Busy verdict for #3 was
    // known long before #1 finished sleeping.
    match client.receive().unwrap() {
        Response::Pong { id } => assert_eq!(id, 1),
        other => panic!("expected Pong(1), got {other:?}"),
    }
    match client.receive().unwrap() {
        Response::Pong { id } => assert_eq!(id, 2),
        other => panic!("expected Pong(2), got {other:?}"),
    }
    match client.receive().unwrap() {
        Response::Busy { id, detail } => {
            assert_eq!(id, 3);
            assert!(detail.contains("queue full"), "detail: {detail}");
        }
        other => panic!("expected Busy(3), got {other:?}"),
    }

    // Backpressure is transient: once drained, requests succeed again.
    client.send(&Request::Sleep { id: 4, millis: 1 }).unwrap();
    match client.receive().unwrap() {
        Response::Pong { id } => assert_eq!(id, 4),
        other => panic!("expected Pong(4), got {other:?}"),
    }
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.busy_rejections, 1);
}

#[test]
fn queue_wait_past_the_deadline_times_out() {
    let server = TestServer::with_config(|cfg| {
        cfg.batch_workers = 1;
        cfg.queue_depth = 8;
        cfg.request_timeout = Duration::from_millis(50);
    });
    let mut client = server.client();

    // The sleep occupies the only worker for 300 ms; the ping-after
    // (as a queued sleep) waits well past its 50 ms budget.
    client.send(&Request::Sleep { id: 1, millis: 300 }).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    client.send(&Request::Sleep { id: 2, millis: 1 }).unwrap();

    match client.receive().unwrap() {
        Response::Pong { id } => assert_eq!(id, 1),
        other => panic!("expected Pong(1), got {other:?}"),
    }
    match client.receive().unwrap() {
        Response::TimedOut { id, detail } => {
            assert_eq!(id, 2);
            assert!(detail.contains("50 ms"), "detail: {detail}");
        }
        other => panic!("expected TimedOut(2), got {other:?}"),
    }
    // The server is still healthy after expiring a request.
    client.ping().unwrap();
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.timeouts, 1);
}

#[test]
fn hot_reload_picks_up_new_and_changed_artifacts() {
    let server = TestServer::start();
    let mut client = server.client();
    assert!(client.list_models().unwrap().is_empty());

    // Drop a model in after startup: the next scan loads it.
    let artifact = fixture_artifact(3, 0.45);
    server.install_model("census", &artifact);
    let models = client.list_models().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].k, 3);

    // Overwrite with a different fit: the stamp changes, so the next
    // scan reloads and requests see the new parameters.
    let retuned = fixture_artifact(5, 0.6);
    server.install_model("census", &retuned);
    let models = client.list_models().unwrap();
    assert_eq!(models[0].k, 5);
    let (csv, report) = client.anonymize("census", &fixture_csv()).unwrap();
    assert!(report.achieved_k >= 5);
    assert_eq!(csv, offline_release(&retuned));

    // Remove the file: the model unloads.
    std::fs::remove_file(server.registry_dir().join("census.json")).unwrap();
    assert!(client.list_models().unwrap().is_empty());
    match client.anonymize("census", &fixture_csv()) {
        Err(ClientError::Remote { detail, .. }) => {
            assert!(detail.contains("unknown model"), "detail: {detail}")
        }
        other => panic!("expected Remote error, got {other:?}"),
    }
    server.shutdown().unwrap();
}

#[test]
fn shutdown_drains_queued_work_before_exiting() {
    let server = TestServer::with_config(|cfg| {
        cfg.batch_workers = 1;
    });
    let mut client = server.client();

    // Queue real work, then ask for shutdown on a second connection
    // while it is still in flight.
    client.send(&Request::Sleep { id: 1, millis: 200 }).unwrap();
    client.send(&Request::Sleep { id: 2, millis: 100 }).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let mut second = server.client();
    second.shutdown_server().unwrap();

    // Both queued jobs still get their real responses: accepted work
    // is never dropped by shutdown.
    assert_eq!(client.receive().unwrap().id(), 1);
    assert_eq!(client.receive().unwrap().id(), 2);

    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 2);

    // And a request refused *during* shutdown says so (covered by the
    // failure-injection suite at the umbrella level too).
}

#[test]
fn registry_scan_reports_are_typed_and_path_bearing() {
    let dir = std::env::temp_dir().join(format!("tclose_serve_registry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let artifact = fixture_artifact(3, 0.45);
    artifact.save(&dir.join("good.json")).unwrap();
    std::fs::write(dir.join("bad.json"), "{ definitely not an artifact").unwrap();
    std::fs::write(dir.join("ignored.txt"), "not json at all").unwrap();
    // A well-formed model naming an ablation variant: only the paper's
    // three algorithms serve.
    let ablation = artifact
        .to_string_pretty()
        .replace("\"Alg1-merge\"", "\"Alg2-kfirst(add)\"");
    std::fs::write(dir.join("ablation.json"), ablation).unwrap();

    let (mut registry, report) =
        ModelRegistry::open(&dir, tclose_core::NeighborBackend::Auto).unwrap();
    assert_eq!(report.loaded, vec!["good".to_string()]);
    assert_eq!(report.rejected.len(), 2);
    let (ablation_id, err) = &report.rejected[0];
    assert_eq!(ablation_id, "ablation");
    assert!(
        matches!(err, ArtifactError::InvalidModel { .. }),
        "error: {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("ablation.json"), "message: {msg}");
    assert!(msg.contains("Alg2-kfirst(add)"), "message: {msg}");
    assert!(registry.get("ablation").is_none());
    let (bad_id, err) = &report.rejected[1];
    assert_eq!(bad_id, "bad");
    let err_path = err.path().expect("rejection must carry the offending path");
    assert!(err_path.ends_with("bad.json"), "path: {err_path}");
    assert!(err.to_string().contains("bad.json"), "message: {err}");
    assert!(registry.get("good").is_some());
    assert!(registry.get("bad").is_none());
    assert_eq!(registry.last_error("bad"), Some(err));

    // An unchanged directory scans to an empty report.
    assert!(registry.scan().unwrap().is_empty());

    // A corrupt overwrite of a healthy model keeps the old model
    // serving and records the new error.
    std::fs::write(dir.join("good.json"), "garbage now").unwrap();
    let report = registry.scan().unwrap();
    assert!(report.loaded.is_empty());
    assert_eq!(report.rejected.len(), 1);
    assert!(registry.get("good").is_some(), "healthy model was dropped");
    assert!(registry.last_error("good").is_some());

    // Restoring a valid artifact clears the error.
    artifact.save(&dir.join("good.json")).unwrap();
    let report = registry.scan().unwrap();
    assert_eq!(report.loaded, vec!["good".to_string()]);
    assert!(registry.last_error("good").is_none());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_refuses_compliance_bound_models() {
    let dir = std::env::temp_dir().join(format!(
        "tclose_serve_registry_compliance_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The daemon has no compliance engine: a model fitted under a
    // compliance policy must not serve, or releases would skip the
    // scrub the policy promises.
    let bound = fixture_artifact(3, 0.45).with_compliance_fingerprint("a".repeat(64));
    bound.save(&dir.join("bound.json")).unwrap();
    fixture_artifact(3, 0.45)
        .save(&dir.join("free.json"))
        .unwrap();

    let (registry, report) = ModelRegistry::open(&dir, tclose_core::NeighborBackend::Auto).unwrap();
    assert_eq!(report.loaded, vec!["free".to_string()]);
    assert_eq!(report.rejected.len(), 1);
    let (id, err) = &report.rejected[0];
    assert_eq!(id, "bound");
    let msg = err.to_string();
    assert!(msg.contains("compliance policy"), "message: {msg}");
    assert!(msg.contains("bound.json"), "message: {msg}");
    assert!(registry.get("bound").is_none());
    assert!(registry.get("free").is_some());
    assert_eq!(registry.last_error("bound"), Some(err));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sleep_op_is_rejected_when_test_ops_are_disabled() {
    let server = TestServer::with_config(|cfg| {
        cfg.enable_test_ops = false;
    });
    let mut client = server.client();
    match client
        .request(&Request::Sleep { id: 1, millis: 1 })
        .unwrap()
    {
        Response::Error { id, detail } => {
            assert_eq!(id, 1);
            assert!(detail.contains("test"), "detail: {detail}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown().unwrap();
}
