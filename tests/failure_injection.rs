//! Failure injection and degenerate-input behaviour across the stack:
//! everything a hostile or careless caller can throw at the pipeline must
//! produce a clean error or a well-defined degenerate result — never a
//! panic, never a silently wrong release.

use tclose::core::{Algorithm, Anonymizer, Error};
use tclose::microdata::csv::read_csv;
use tclose::microdata::{AttributeDef, AttributeRole, Schema, Table, Value};

fn schema() -> Schema {
    Schema::new(vec![
        AttributeDef::numeric("qi1", AttributeRole::QuasiIdentifier),
        AttributeDef::numeric("qi2", AttributeRole::QuasiIdentifier),
        AttributeDef::numeric("conf", AttributeRole::Confidential),
    ])
    .unwrap()
}

fn table_with(rows: &[(f64, f64, f64)]) -> Table {
    let mut t = Table::new(schema());
    for &(a, b, c) in rows {
        t.push_row(&[Value::Number(a), Value::Number(b), Value::Number(c)])
            .unwrap();
    }
    t
}

const ALL_ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Merge,
    Algorithm::KAnonymityFirst,
    Algorithm::TClosenessFirst,
];

#[test]
fn empty_table_is_a_clean_error_for_every_algorithm() {
    let empty = Table::new(schema());
    for alg in ALL_ALGORITHMS {
        let err = Anonymizer::new(2, 0.2)
            .algorithm(alg)
            .anonymize(&empty)
            .unwrap_err();
        assert!(matches!(err, Error::Microdata(_)), "{}: {err}", alg.name());
    }
}

#[test]
fn single_record_table_releases_one_singleton_class() {
    let t = table_with(&[(1.0, 2.0, 3.0)]);
    for alg in [
        Algorithm::Merge,
        Algorithm::KAnonymityFirst,
        Algorithm::TClosenessFirst,
    ] {
        let out = Anonymizer::new(2, 0.2)
            .algorithm(alg)
            .anonymize(&t)
            .unwrap();
        assert_eq!(out.report.n_clusters, 1);
        assert_eq!(out.report.min_cluster_size, 1);
        // the single class is the whole table, so its EMD is exactly 0
        assert_eq!(out.report.max_emd, 0.0);
    }
}

#[test]
fn constant_confidential_attribute_is_trivially_t_close() {
    let rows: Vec<(f64, f64, f64)> = (0..30)
        .map(|i| (i as f64, (i * 3 % 7) as f64, 42.0))
        .collect();
    let t = table_with(&rows);
    for alg in [
        Algorithm::Merge,
        Algorithm::KAnonymityFirst,
        Algorithm::TClosenessFirst,
    ] {
        let out = Anonymizer::new(3, 0.05)
            .algorithm(alg)
            .anonymize(&t)
            .unwrap();
        assert_eq!(out.report.max_emd, 0.0, "{}", alg.name());
        assert!(out.report.min_cluster_size >= 3);
    }
}

#[test]
fn constant_quasi_identifiers_still_release() {
    // All records identical in QI space: any partition is QI-valid; the
    // algorithms must not divide by zero in normalization.
    let rows: Vec<(f64, f64, f64)> = (0..24).map(|i| (5.0, 7.0, i as f64)).collect();
    let t = table_with(&rows);
    for alg in [Algorithm::Merge, Algorithm::TClosenessFirst] {
        let out = Anonymizer::new(4, 0.25)
            .algorithm(alg)
            .anonymize(&t)
            .unwrap();
        assert!(out.report.min_cluster_size >= 4, "{}", alg.name());
        assert!(out.report.max_emd <= 0.25 + 1e-9);
    }
}

#[test]
fn duplicate_records_are_handled() {
    // 10 copies of each of 3 distinct records.
    let mut rows = Vec::new();
    for _ in 0..10 {
        rows.push((1.0, 1.0, 10.0));
        rows.push((2.0, 2.0, 20.0));
        rows.push((3.0, 3.0, 30.0));
    }
    let t = table_with(&rows);
    let out = Anonymizer::new(5, 0.3).anonymize(&t).unwrap();
    assert_eq!(out.report.n_records, 30);
    assert!(out.report.min_cluster_size >= 5);
}

#[test]
fn extreme_t_values_behave() {
    let rows: Vec<(f64, f64, f64)> = (0..40)
        .map(|i| (i as f64, (i * i % 13) as f64, (i % 11) as f64))
        .collect();
    let t = table_with(&rows);

    // t = 1 never constrains → pure k-anonymous microaggregation.
    let loose = Anonymizer::new(4, 1.0).anonymize(&t).unwrap();
    assert!(loose.report.min_cluster_size >= 4);

    // near-zero t forces the single-cluster release (EMD 0).
    let strict = Anonymizer::new(4, 1e-12).anonymize(&t).unwrap();
    assert_eq!(strict.report.n_clusters, 1);
    assert_eq!(strict.report.max_emd, 0.0);
}

#[test]
fn invalid_parameters_are_rejected_before_any_work() {
    let t = table_with(&[(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]);
    for (k, tt) in [
        (0usize, 0.1f64),
        (2, 0.0),
        (2, -1.0),
        (2, 1.5),
        (2, f64::NAN),
    ] {
        let err = Anonymizer::new(k, tt).anonymize(&t).unwrap_err();
        assert!(
            matches!(err, Error::InvalidParams(_)),
            "k={k} t={tt}: {err}"
        );
    }
}

#[test]
fn non_finite_values_cannot_enter_a_table() {
    let mut t = Table::new(schema());
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = t
            .push_row(&[Value::Number(bad), Value::Number(0.0), Value::Number(0.0)])
            .unwrap_err();
        assert!(matches!(
            err,
            tclose::microdata::Error::NonFiniteValue { .. }
        ));
    }
    assert!(t.is_empty(), "no partial rows may survive");
}

#[test]
fn malformed_csv_is_rejected_with_line_numbers() {
    let cases = [
        ("qi1,qi2\n1,2\n", "header has 2 columns"), // wrong arity
        ("qi1,qi2,conf\n1,2\n", "record has 2 fields"), // ragged record
        ("qi1,qi2,conf\n1,x,3\n", "cannot parse"),  // non-numeric
        ("qi1,qi2,conf\n\"unterminated,2,3\n", "unterminated"),
    ];
    for (input, expect) in cases {
        let err = read_csv(input.as_bytes(), schema()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(expect), "input {input:?}: got {msg:?}");
    }
}

#[test]
fn missing_roles_produce_actionable_errors() {
    // no confidential attribute
    let s = Schema::new(vec![AttributeDef::numeric(
        "qi1",
        AttributeRole::QuasiIdentifier,
    )])
    .unwrap();
    let mut t = Table::new(s);
    t.push_row(&[Value::Number(1.0)]).unwrap();
    let err = Anonymizer::new(2, 0.2).anonymize(&t).unwrap_err();
    assert!(err.to_string().contains("confidential"), "{err}");

    // no quasi-identifier
    let s = Schema::new(vec![AttributeDef::numeric(
        "conf",
        AttributeRole::Confidential,
    )])
    .unwrap();
    let mut t = Table::new(s);
    t.push_row(&[Value::Number(1.0)]).unwrap();
    let err = Anonymizer::new(2, 0.2).anonymize(&t).unwrap_err();
    assert!(err.to_string().contains("quasi-identifier"), "{err}");
}

#[test]
fn identifiers_are_droppable_and_never_leak_via_release_helper() {
    let s = Schema::new(vec![
        AttributeDef::numeric("ssn", AttributeRole::Identifier),
        AttributeDef::numeric("qi", AttributeRole::QuasiIdentifier),
        AttributeDef::numeric("conf", AttributeRole::Confidential),
    ])
    .unwrap();
    let mut t = Table::new(s);
    for i in 0..10 {
        t.push_row(&[
            Value::Number(900_000_000.0 + i as f64),
            Value::Number((i % 3) as f64),
            Value::Number(i as f64),
        ])
        .unwrap();
    }
    let out = Anonymizer::new(2, 0.5).anonymize(&t).unwrap();
    let released = out.table.drop_identifiers().unwrap();
    assert_eq!(released.n_cols(), 2);
    assert!(released.schema().index_of("ssn").is_err());
}

// ---------------------------------------------------------------------
// Serving-path failure injection: everything a hostile or unlucky
// client (or a corrupted registry) can do to a running `tclose-serve`
// daemon must leave the server up and subsequent requests succeeding.

mod serve_faults {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    use tclose::core::{Algorithm, Anonymizer, ModelArtifact};
    use tclose::microdata::csv::to_csv_string;
    use tclose::microdata::Table;
    use tclose::serve::protocol::Request;
    use tclose::serve::{ClientError, Response, TestServer};

    fn fixture_table() -> Table {
        tclose::datasets::census::census_sized(11, 120)
    }

    fn fixture_artifact() -> ModelArtifact {
        let table = fixture_table();
        let fitted = Anonymizer::new(3, 0.45)
            .algorithm(Algorithm::Merge)
            .fit(&table)
            .unwrap();
        ModelArtifact::from_fitted(&fitted)
    }

    #[test]
    fn mid_request_client_disconnect_leaves_the_server_up() {
        let server = TestServer::start();
        server.install_model("m", &fixture_artifact());
        let csv = to_csv_string(&fixture_table()).unwrap();

        // Client A sends a request and slams the connection shut before
        // the response can be written.
        let mut doomed = server.client();
        doomed
            .send(&Request::Anonymize {
                id: 1,
                model: "m".into(),
                csv: csv.clone(),
            })
            .unwrap();
        drop(doomed);

        // Client B half-sends a frame (a truncated prefix) and vanishes
        // mid-frame.
        let mut half = TcpStream::connect(server.addr()).unwrap();
        half.write_all(&[0, 0]).unwrap();
        drop(half);

        // The server must survive both and keep serving new clients.
        let mut client = server.client();
        client.ping().unwrap();
        let (out, report) = client.anonymize("m", &csv).unwrap();
        assert!(report.achieved_k >= 3);
        assert!(!out.is_empty());
        server.shutdown().unwrap();
    }

    #[test]
    fn oversized_frame_is_rejected_without_harming_other_connections() {
        let server = TestServer::start();
        server.install_model("m", &fixture_artifact());

        // A hostile client declares a frame far past the cap; it gets a
        // typed error response and its connection is dropped.
        let mut hostile = TcpStream::connect(server.addr()).unwrap();
        hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
        hostile.flush().unwrap();

        // A well-behaved client on another connection is unaffected.
        let mut client = server.client();
        client.ping().unwrap();
        server.shutdown().unwrap();
    }

    #[test]
    fn corrupt_artifact_during_hot_reload_keeps_the_old_model_serving() {
        let server = TestServer::start();
        let artifact = fixture_artifact();
        server.install_model("m", &artifact);
        let csv = to_csv_string(&fixture_table()).unwrap();

        let mut client = server.client();
        let (before, _) = client.anonymize("m", &csv).unwrap();

        // Corruption lands in the registry while the server is live.
        server.install_raw("m", "{ this is no longer an artifact");

        // The previously healthy model keeps serving, byte-identically.
        let (after, _) = client.anonymize("m", &csv).unwrap();
        assert_eq!(before, after, "hot-reload corruption changed the release");
        assert_eq!(client.list_models().unwrap().len(), 1);

        // A *new* id that never loaded cleanly reports its typed error
        // (with the offending path) instead of serving anything.
        server.install_raw("broken", "also not an artifact");
        match client.anonymize("broken", &csv) {
            Err(ClientError::Remote { detail, .. }) => {
                assert!(detail.contains("failed to load"), "detail: {detail}");
                assert!(detail.contains("broken.json"), "detail: {detail}");
            }
            other => panic!("expected Remote error, got {other:?}"),
        }

        // Repairing the file restores service under the same id.
        server.install_model("broken", &artifact);
        let (repaired, _) = client.anonymize("broken", &csv).unwrap();
        assert_eq!(repaired, before);
        server.shutdown().unwrap();
    }

    #[test]
    fn queue_full_backpressure_is_explicit_and_recoverable() {
        let server = TestServer::with_config(|cfg| {
            cfg.batch_workers = 1;
            cfg.queue_depth = 1;
        });
        let mut client = server.client();

        // Saturate: one sleep running, one queued, then a burst that
        // must be refused with explicit Busy responses.
        client.send(&Request::Sleep { id: 1, millis: 300 }).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        client.send(&Request::Sleep { id: 2, millis: 10 }).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        for id in 3..6u64 {
            client.send(&Request::Sleep { id, millis: 10 }).unwrap();
        }

        let mut busy = 0;
        for _ in 1..6 {
            match client.receive().unwrap() {
                Response::Pong { .. } => {}
                Response::Busy { detail, .. } => {
                    busy += 1;
                    assert!(detail.contains("queue full"), "detail: {detail}");
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(busy >= 1, "saturation never produced a Busy response");

        // The overload was transient: the same connection gets served
        // once the queue drains.
        client.send(&Request::Sleep { id: 9, millis: 1 }).unwrap();
        match client.receive().unwrap() {
            Response::Pong { id } => assert_eq!(id, 9),
            other => panic!("expected Pong(9), got {other:?}"),
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.busy_rejections, busy);
    }
}
