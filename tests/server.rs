//! `starsimd` server integration: the wire protocol over real sockets,
//! admission control under saturation, deadline budgets that cancel
//! mid-pipeline yet resume bit-identically, the load-shedding ladder,
//! panic isolation, and the PR 3 chaos matrix through the server path
//! with concurrent tenants.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use starsim::gpu::{FaultKind, FaultPlan, VirtualGpu};
use starsim::sim::admission::{AdmissionConfig, ShedLevel};
use starsim::sim::protocol::{
    read_message, write_message, Message, RejectCode, SessionSpec, HEADER_LEN, MAGIC, MAX_STARS,
    PROTOCOL_VERSION,
};
use starsim::sim::server::{
    digest_fold, session_scene, Client, ServerConfig, ServerHandle, StarServer, DIGEST_SEED,
};
use starsim::sim::{AdaptiveSession, CancelToken, FrameSequencer, RetryPolicy, SessionSetup};

fn spec(tenant: &str) -> SessionSpec {
    SessionSpec {
        width: 128,
        height: 128,
        roi_side: 8,
        stars: 2_000,
        seed: 7,
        backend: 0,
        tenant: tenant.into(),
    }
}

fn boot(config: ServerConfig) -> ServerHandle {
    StarServer::bind("127.0.0.1:0", config).expect("bind test server")
}

fn render_done(client: &mut Client, session: u64, frames: u32, deadline_ms: u32) -> Message {
    client
        .render(session, frames, deadline_ms)
        .expect("render request")
}

#[test]
fn protocol_round_trips_over_a_real_socket() {
    let handle = boot(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let (session, hit) = client.open_session(&spec("tenant-a")).expect("open");
    assert!(!hit, "first open builds the table");

    let done = match render_done(&mut client, session, 3, 0) {
        Message::RenderDone(done) => done,
        other => panic!("expected RenderDone, got {other:?}"),
    };
    assert_eq!((done.requested, done.completed), (3, 3));
    assert!(!done.deadline_missed);
    assert_ne!(
        done.digest, DIGEST_SEED,
        "three frames folded into the digest"
    );

    // A second tenant with the same optics hits the shared cache.
    let mut other = Client::connect(handle.addr()).expect("connect 2");
    let (_, hit) = other.open_session(&spec("tenant-b")).expect("open 2");
    assert!(hit, "same config from another tenant is a cache hit");

    // Monitoring at full detail carries the per-tenant body.
    let monitor = client.monitor().expect("monitor");
    assert!(monitor.detail);
    assert_eq!(monitor.sessions, 2);
    assert!(monitor.body.contains("\"tenants\""), "{}", monitor.body);
    assert!(monitor.body.contains("tenant-a"), "{}", monitor.body);
    assert!(monitor.body.contains("\"lut_cache\""), "{}", monitor.body);

    client.close_session(session).expect("close");
    match render_done(&mut client, session, 1, 0) {
        Message::Reject { code, .. } => assert_eq!(code, RejectCode::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    handle.shutdown();
}

/// Writes `bytes` raw and expects a single reject reply followed by
/// connection close — the server answers a framing violation once and
/// hangs up without ever allocating the declared payload.
fn expect_framing_reject(addr: std::net::SocketAddr, bytes: &[u8], code: RejectCode) {
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream.write_all(bytes).expect("raw write");
    match read_message(&mut stream).expect("reject reply") {
        Message::Reject {
            code: got,
            retry_after_ms,
            ..
        } => {
            assert_eq!(got, code);
            assert_eq!(retry_after_ms, 0, "framing violations are not retryable");
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    // The stream is closed behind the reject.
    assert!(read_message(&mut stream).is_err());
}

#[test]
fn malformed_oversized_and_wrong_version_frames_are_rejected() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    // Wrong magic.
    let mut bad_magic = Vec::new();
    write_message(&mut bad_magic, &Message::Monitor).unwrap();
    bad_magic[0] = b'X';
    expect_framing_reject(addr, &bad_magic, RejectCode::BadRequest);

    // Wrong protocol version.
    let mut bad_version = Vec::new();
    write_message(&mut bad_version, &Message::Monitor).unwrap();
    bad_version[4] = 99;
    expect_framing_reject(addr, &bad_version, RejectCode::VersionUnsupported);

    // A header declaring a 2 GiB payload with nothing behind it: the
    // reject must come back immediately — the length check fires before
    // any allocation or payload read, so the server neither OOMs nor
    // blocks waiting for bytes that will never arrive.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&MAGIC);
    oversized.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    oversized.push(8); // Monitor
    oversized.extend_from_slice(&(2u32 << 30).to_le_bytes());
    assert_eq!(oversized.len(), HEADER_LEN);
    expect_framing_reject(addr, &oversized, RejectCode::BadRequest);

    // Structurally valid frames with nonsense content (an image over the
    // cap, an ROI larger than the image, a non-zero reserved backend
    // byte): rejected without killing the connection, and before the
    // server looks up or builds a table.
    let mut client = Client::connect(addr).expect("connect");
    let mut huge = spec("ok");
    huge.width = 1 << 20;
    let mut small = spec("ok");
    (small.width, small.height, small.roi_side) = (16, 16, 20);
    let mut reserved = spec("ok");
    reserved.backend = 1;
    for bad_spec in [huge, small, reserved] {
        match client
            .request(&Message::OpenSession(bad_spec))
            .expect("reply")
        {
            Message::Reject { code, .. } => assert_eq!(code, RejectCode::BadRequest),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
    let stats = handle.lut_cache().stats();
    assert_eq!((stats.misses, stats.len), (0, 0), "{stats:?}");
    // Hello with an unsupported payload version negotiates down to a
    // versioned reject, also without killing the connection.
    match client
        .request(&Message::Hello { version: 9 })
        .expect("reply")
    {
        Message::Reject { code, .. } => assert_eq!(code, RejectCode::VersionUnsupported),
        other => panic!("expected VersionUnsupported, got {other:?}"),
    }
    let (session, _) = client.open_session(&spec("ok")).expect("still serving");
    assert!(matches!(
        render_done(&mut client, session, 1, 0),
        Message::RenderDone(_)
    ));
    handle.shutdown();
}

#[test]
fn admission_rejects_under_saturation_with_a_retry_hint() {
    let config = ServerConfig {
        admission: AdmissionConfig {
            capacity: 1,
            retry_after_ms: 30,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = boot(config);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (session, _) = client.open_session(&spec("sat")).expect("open");

    let permit = handle.admission().try_admit().expect("saturate");
    match render_done(&mut client, session, 1, 0) {
        Message::Reject {
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(code, RejectCode::Saturated);
            assert_eq!(retry_after_ms, 30, "the hint is the configured back-off");
        }
        other => panic!("expected Saturated, got {other:?}"),
    }
    drop(permit);
    assert!(matches!(
        render_done(&mut client, session, 1, 0),
        Message::RenderDone(_)
    ));
    let stats = handle.admission().stats();
    assert!(stats.rejected >= 1);
    assert!(
        stats.depth <= stats.capacity,
        "depth is bounded by capacity"
    );
    handle.shutdown();
}

#[test]
fn sustained_saturation_climbs_the_shed_ladder_and_coarsens_monitoring() {
    let config = ServerConfig {
        admission: AdmissionConfig {
            capacity: 1,
            retry_after_ms: 1,
            shed_hold: 2,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = boot(config);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (session, _) = client.open_session(&spec("shed")).expect("open");

    let permit = handle.admission().try_admit().expect("saturate");
    // Every rejected request observes utilization 1.0; with hold 2 the
    // ladder escalates one level per two rejects.
    for _ in 0..4 {
        match render_done(&mut client, session, 1, 0) {
            Message::Reject { code, .. } => assert_eq!(code, RejectCode::Saturated),
            other => panic!("expected Saturated, got {other:?}"),
        }
    }
    assert!(handle.admission().shed_level() >= ShedLevel::CoarseMonitoring);
    let monitor = client.monitor().expect("monitor");
    assert!(!monitor.detail, "coarse monitoring sheds the detail body");
    assert!(monitor.body.is_empty());
    assert!(monitor.shed_level >= ShedLevel::CoarseMonitoring.index() as u8);

    // Load subsides: the ladder relaxes back down and renders still work.
    drop(permit);
    let done = loop {
        match render_done(&mut client, session, 1, 0) {
            Message::RenderDone(done) => break done,
            Message::Reject { .. } => continue,
            other => panic!("unexpected {other:?}"),
        }
    };
    assert_eq!(done.completed, 1);
    handle.shutdown();
}

/// Renders `frames` frames of `spec` in process — the open handler's
/// scene on a session of its own — and folds their bytes one at a time,
/// independently of the server's fold. Returns the digest and the share
/// of `+0.0` pixels.
fn inprocess_digest(spec: &SessionSpec, frames: usize) -> (u64, f64) {
    let config = spec.validate().expect("valid spec");
    let session = AdaptiveSession::open(VirtualGpu::gtx480(), config, SessionSetup::default())
        .expect("session");
    let (sky, camera, dynamics) = session_scene(spec).expect("scene");
    let server = ServerConfig::default();
    let mut seq = FrameSequencer::on_session(
        session,
        sky,
        camera,
        dynamics,
        server.exposure_s,
        server.frame_dt,
    )
    .expect("sequencer");
    let (mut digest, mut zeros, mut pixels) = (DIGEST_SEED, 0usize, 0usize);
    seq.run_frames_observed(frames, &CancelToken::new(), |frame| {
        for px in frame.pixels {
            digest = digest_fold(digest, &px.to_bits().to_le_bytes());
            zeros += usize::from(px.to_bits() == 0);
        }
        pixels += frame.pixels.len();
    })
    .expect("frames");
    (digest, zeros as f64 / pixels as f64)
}

/// Every other digest check compares one server reply with another; this
/// one holds the reply to FNV-1a over every completed frame's bytes, so a
/// fold that is wrong but consistent with itself (one that skipped `+0.0`
/// pixels, say) fails here. A sparse spec and a fully lit one, each as one
/// 3-frame burst and as a 1 + 2 split.
#[test]
fn served_digest_equals_an_independent_bytewise_fold() {
    let lit = SessionSpec {
        width: 64,
        height: 64,
        roi_side: 19,
        stars: MAX_STARS as u32,
        ..spec("lit")
    };
    // About as sparse as a wide-sky frame (81% of its pixels are +0.0
    // here, 85% there).
    let sparse = SessionSpec {
        stars: 20_000,
        ..spec("sparse")
    };
    for (spec, fully_lit) in [(sparse, false), (lit, true)] {
        let label = spec.tenant.clone();
        let (want, zero_share) = inprocess_digest(&spec, 3);
        if fully_lit {
            assert_eq!(zero_share, 0.0, "{label}: every pixel is lit");
        } else {
            assert!(zero_share > 0.5, "{label}: {zero_share} of pixels are +0.0");
        }

        let handle = boot(ServerConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");
        let (whole, _) = client.open_session(&spec).expect("open");
        let (split, _) = client.open_session(&spec).expect("open");
        let mut digests = Vec::new();
        for (session, frames) in [(whole, 3), (split, 1), (split, 2)] {
            match render_done(&mut client, session, frames, 0) {
                Message::RenderDone(done) => {
                    assert_eq!(done.completed, frames, "{label}");
                    digests.push(done.digest);
                }
                other => panic!("{label}: expected RenderDone, got {other:?}"),
            }
        }
        assert_eq!(digests[0], want, "{label}: 3-frame burst");
        assert_eq!(digests[2], want, "{label}: 1 + 2 split");
        handle.shutdown();
    }
}

#[test]
fn deadline_cancellation_mid_pipeline_is_bit_identically_resumable() {
    // Long enough that the burst outlasts the wire's 1 ms budget floor
    // even in a release build on one core (about 0.14 ms a frame).
    let frames: u32 = 64;
    let handle = boot(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The uninterrupted reference.
    let (reference, _) = client.open_session(&spec("deadline")).expect("open ref");
    let reference_done = match render_done(&mut client, reference, frames, 0) {
        Message::RenderDone(done) => done,
        other => panic!("expected RenderDone, got {other:?}"),
    };

    // Shrink the budget until a burst is genuinely cut mid-pipeline.
    let per_frame_ms = (reference_done.wall_us as f64 / 1e3 / f64::from(frames)).max(0.5);
    let mut budget_ms = (per_frame_ms * 3.0).max(2.0);
    let mut cut = None;
    for _ in 0..10 {
        let (session, _) = client.open_session(&spec("deadline")).expect("open");
        match render_done(&mut client, session, frames, budget_ms.max(1.0) as u32) {
            Message::RenderDone(done) if done.deadline_missed && done.completed > 0 => {
                assert!(done.completed < frames);
                cut = Some((session, done));
                break;
            }
            Message::RenderDone(done) => {
                budget_ms = if done.deadline_missed {
                    budget_ms * 2.0 // cut before the first frame — loosen
                } else {
                    budget_ms / 2.0 // finished inside the budget — tighten
                };
                client.close_session(session).expect("close");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let (session, done) = cut.expect("a budget in the sweep must cut mid-burst");
    assert!(handle.deadline_misses() >= 1);

    // Resume the remaining frames with no deadline: the cumulative digest
    // must land exactly on the uninterrupted session's.
    let resumed = match render_done(&mut client, session, frames - done.completed, 0) {
        Message::RenderDone(done) => done,
        other => panic!("expected RenderDone, got {other:?}"),
    };
    assert_eq!(resumed.completed, frames - done.completed);
    assert!(!resumed.deadline_missed);
    assert_eq!(
        resumed.digest, reference_done.digest,
        "deadline-cancelled burst must resume bit-identically"
    );
    handle.shutdown();
}

#[test]
fn a_client_triggered_panic_poisons_only_its_session() {
    let config = ServerConfig {
        panic_tenant: Some("evil".into()),
        ..ServerConfig::default()
    };
    let handle = boot(config);

    let mut good = Client::connect(handle.addr()).expect("connect good");
    let (good_session, _) = good.open_session(&spec("good")).expect("open good");
    assert!(matches!(
        render_done(&mut good, good_session, 1, 0),
        Message::RenderDone(_)
    ));

    let mut evil = Client::connect(handle.addr()).expect("connect evil");
    match evil
        .request(&Message::OpenSession(spec("evil")))
        .expect("panic becomes a reply, not a dead connection")
    {
        Message::Reject { code, message, .. } => {
            assert_eq!(code, RejectCode::Internal);
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("expected Internal reject, got {other:?}"),
    }
    assert_eq!(handle.handler_panics(), 1);

    // The panicking connection itself keeps serving…
    let (evil_session, _) = evil
        .open_session(&spec("reformed"))
        .expect("open after panic");
    assert!(matches!(
        render_done(&mut evil, evil_session, 1, 0),
        Message::RenderDone(_)
    ));
    // …and so does everyone else.
    assert!(matches!(
        render_done(&mut good, good_session, 1, 0),
        Message::RenderDone(_)
    ));
    handle.shutdown();
}

#[test]
fn drain_stops_admitting_and_acks_clean() {
    let handle = boot(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (session, _) = client.open_session(&spec("drain")).expect("open");
    assert!(matches!(
        render_done(&mut client, session, 1, 0),
        Message::RenderDone(_)
    ));

    assert_eq!(client.drain().expect("drain"), 0, "nothing in flight");
    match render_done(&mut client, session, 1, 0) {
        Message::Reject { code, .. } => assert_eq!(code, RejectCode::Draining),
        other => panic!("expected Draining, got {other:?}"),
    }
    match client
        .request(&Message::OpenSession(spec("late")))
        .expect("reply")
    {
        Message::Reject { code, .. } => assert_eq!(code, RejectCode::Draining),
        other => panic!("expected Draining, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn obsplane_scrapes_alerts_and_flight_records_over_the_wire() {
    let dir = std::env::temp_dir().join("starsimd_obsplane_itest");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        flight_dir: Some(dir.clone()),
        panic_tenant: Some("evil".into()),
        ..ServerConfig::default()
    };
    let handle = boot(config);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (session, _) = client.open_session(&spec("obs")).expect("open");
    assert!(matches!(
        render_done(&mut client, session, 2, 0),
        Message::RenderDone(_)
    ));

    // Metrics scrape: the exposition parses back and carries the render
    // counters plus the instance labels.
    let (snapshots, exposition) = client.metrics().expect("metrics");
    assert!(snapshots >= 1);
    let samples = starsim::sim::obsplane::parse_exposition(&exposition).expect("exposition parses");
    let frames = samples
        .iter()
        .find(|s| s.name == "starsim_server_frames_rendered")
        .expect("frames counter exposed");
    assert!(frames.value >= 2.0);
    assert!(
        frames
            .labels
            .iter()
            .any(|(k, v)| k == "device" && v == "gtx480"),
        "{:?}",
        frames.labels
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "starsim_server_requests_total"),
        "admission stats synced into the scrape"
    );

    // Alerts: a healthy server is Ok with a well-formed JSON body.
    let (state, body) = client.alerts().expect("alerts");
    assert_eq!(state, starsim::sim::SloState::Ok, "{body}");
    let doc = starsim::sim::telemetry::parse_json(&body).expect("alert body is JSON");
    assert_eq!(doc.get("state").and_then(|v| v.as_str()), Some("ok"));

    // The monitor rung summary is present (full detail here).
    let monitor = client.monitor().expect("monitor");
    assert!(
        monitor.rung_summary.contains("configured="),
        "{}",
        monitor.rung_summary
    );

    // The fleet utilization aggregate saw this session's launches.
    let util = handle.device_utilization();
    assert!(util.launches > 0);
    assert!(util.occupancy_mean() > 0.0 && util.occupancy_mean() <= 1.0);

    // A handler panic trips a flight-recorder dump with the full
    // request chain: the render entry correlates request → session →
    // launch range, the panic entry closes the story.
    match client
        .request(&Message::OpenSession(spec("evil")))
        .expect("panic becomes a reply")
    {
        Message::Reject { code, .. } => assert_eq!(code, RejectCode::Internal),
        other => panic!("expected Internal reject, got {other:?}"),
    }
    assert!(handle.obs().recorder().dump_count() >= 1);
    let dump_path = std::fs::read_dir(&dir)
        .expect("flight dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-"))
        })
        .expect("a flight dump was written");
    let text = std::fs::read_to_string(&dump_path).expect("read dump");
    let doc = starsim::sim::telemetry::parse_json(&text).expect("dump is valid JSON");
    let entries = doc
        .get("entries")
        .and_then(|v| v.as_array())
        .expect("entries array");
    let kind_of = |e: &starsim::sim::telemetry::JsonValue| {
        e.get("kind").and_then(|v| v.as_str()).map(str::to_string)
    };
    let render = entries
        .iter()
        .find(|e| kind_of(e) == Some("render".into()))
        .expect("render entry in the black box");
    assert!(render.get("request_id").and_then(|v| v.as_f64()).unwrap() > 0.0);
    assert_eq!(
        render.get("session").and_then(|v| v.as_f64()),
        Some(session as f64)
    );
    assert!(
        render.get("launch_past_last").and_then(|v| v.as_f64())
            > render.get("launch_first").and_then(|v| v.as_f64()),
        "the render is correlated to its kernel launches"
    );
    assert!(
        entries.iter().any(|e| kind_of(e) == Some("panic".into())),
        "the fault itself is in the black box"
    );
    // The dump embeds a loadable Chrome trace.
    assert!(doc
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(|v| v.as_array())
        .is_some());

    let _ = std::fs::remove_dir_all(&dir);
    handle.shutdown();
}

#[test]
fn chaos_matrix_recovers_bit_identically_through_the_server_with_concurrent_tenants() {
    const FRAMES: u32 = 6;

    // Clean reference digest (the scene is fixed by the spec, so one
    // uncontended clean run pins the expected pixels for every tenant).
    let clean = boot(ServerConfig::default());
    let mut client = Client::connect(clean.addr()).expect("connect clean");
    let (session, _) = client.open_session(&spec("clean")).expect("open clean");
    let expected = match render_done(&mut client, session, FRAMES, 0) {
        Message::RenderDone(done) => done.digest,
        other => panic!("expected RenderDone, got {other:?}"),
    };
    clean.shutdown();

    // A bind fault fires at the first open's texture bind, which the
    // retry policy covers like any frame.
    for kind in FaultKind::ALL {
        let plan = Arc::new(FaultPlan::single(kind, 1, 2).with_stall(Duration::from_millis(150)));
        let config = ServerConfig {
            fault_plan: Some(Arc::clone(&plan)),
            watchdog: Some(Duration::from_millis(40)),
            retry: Some(RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            }),
            ..ServerConfig::default()
        };
        let handle = boot(config);
        let addr = handle.addr();
        let digests: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = ["tenant-a", "tenant-b"]
                .into_iter()
                .map(|tenant| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let (session, _) = client.open_session(&spec(tenant)).expect("open");
                        match client.render(session, FRAMES, 0).expect("render") {
                            Message::RenderDone(done) => {
                                assert_eq!(done.completed, FRAMES, "{kind:?} ({tenant})");
                                done.digest
                            }
                            other => panic!("{kind:?} ({tenant}): unexpected {other:?}"),
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("tenant"))
                .collect()
        });
        for digest in digests {
            assert_eq!(
                digest, expected,
                "{kind:?}: server-path fault must recover bit-identically"
            );
        }
        // The server's devices run one worker per core: on a one-core host
        // a `StuckLane` spec has no lane to stall and stays pending.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pending = usize::from(kind == FaultKind::StuckLane && cores < 2);
        assert_eq!(
            plan.remaining(),
            pending,
            "{kind:?}: the fault must have fired"
        );
        handle.shutdown();
    }
}
