//! Streaming-pipeline shutdown under trace faults (the acceptance
//! criterion for ingestion hardening): feeding the streaming pipeline a
//! truncated or failing stream must return the decoder's *positioned*
//! error with every pipeline thread joined — never hang, never panic.
//! Each run executes on a watchdog thread with a hard timeout so a
//! shutdown regression fails the suite instead of wedging it.

use std::sync::mpsc;
use std::time::Duration;

use pic_mapping::MappingAlgorithm;
use pic_trace::codec::{encode_trace, Precision};
use pic_trace::fault::{truncation_points, FailAt, TruncateAt};
use pic_trace::{ParticleTrace, TraceMeta, TraceReader};
use pic_types::{Aabb, PicError, TraceErrorKind, Vec3};
use pic_workload::{generate_streaming_with_stats, DynamicWorkload, WorkloadConfig};

/// Generous bound: a healthy run over these tiny traces finishes in
/// milliseconds, so hitting it can only mean a stuck pipeline thread.
const WATCHDOG: Duration = Duration::from_secs(60);

fn small_trace(np: usize, t: usize) -> ParticleTrace {
    let meta = TraceMeta::new(np, 50, Aabb::unit(), "stream-fault");
    let mut tr = ParticleTrace::new(meta);
    for k in 0..t {
        let positions = (0..np)
            .map(|i| Vec3::new((i as f64 * 0.013) % 1.0, (k as f64 * 0.11) % 1.0, 0.5))
            .collect();
        tr.push_positions(positions).unwrap();
    }
    tr
}

fn cfg() -> WorkloadConfig {
    WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05)
}

/// The streaming front-end without its stats block.
fn generate_streaming<S: pic_trace::SampleSource + Send>(
    reader: S,
    cfg: &WorkloadConfig,
) -> pic_types::Result<DynamicWorkload> {
    generate_streaming_with_stats(reader, cfg, None).map(|(w, _)| w)
}

/// Run the full open-reader-then-stream path on its own thread; panic if
/// it neither returns nor errors within the watchdog window.
fn stream_with_watchdog(bytes: Vec<u8>, label: String) -> pic_types::Result<DynamicWorkload> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = TraceReader::new(&bytes[..]).and_then(|r| generate_streaming(r, &cfg()));
        // The watchdog may have given up; a dead receiver is fine.
        let _ = tx.send(result);
    });
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("streaming pipeline hung on {label}"))
}

fn assert_positioned(err: &PicError, label: &str) {
    let details = err
        .trace_details()
        .unwrap_or_else(|| panic!("{label}: unstructured error: {err}"));
    assert!(
        details.offset.is_some(),
        "{label}: error without byte offset: {err}"
    );
    assert!(
        err.to_string().contains("at byte"),
        "{label}: display misses offset: {err}"
    );
}

#[test]
fn truncation_at_every_boundary_errors_or_yields_prefix_without_hanging() {
    let tr = small_trace(40, 4);
    let desc_len = tr.meta().description.len();
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    let frame_len = 8 + 40 * 3 * 8;
    let header_len = 76 + desc_len;
    for cut in truncation_points(bytes.len(), desc_len, frame_len) {
        match stream_with_watchdog(bytes[..cut].to_vec(), format!("cut at byte {cut}")) {
            Ok(workload) => {
                // Only exact frame boundaries stream cleanly, and then the
                // workload covers exactly the surviving prefix.
                assert!(cut >= header_len, "cut {cut} streamed without a header");
                assert_eq!((cut - header_len) % frame_len, 0, "cut {cut} is mid-frame");
                assert_eq!(workload.samples(), (cut - header_len) / frame_len);
            }
            Err(e) => assert_positioned(&e, &format!("cut {cut}")),
        }
    }
}

#[test]
fn hard_io_fault_mid_stream_propagates_with_workers_joined() {
    let tr = small_trace(30, 5);
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    let fail_at = (bytes.len() / 2) as u64;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let faulty = FailAt::new(&bytes[..], fail_at, std::io::ErrorKind::BrokenPipe);
        let result = TraceReader::new(faulty).and_then(|r| generate_streaming(r, &cfg()));
        let _ = tx.send(result);
    });
    let err = rx
        .recv_timeout(WATCHDOG)
        .expect("streaming pipeline hung on a hard I/O fault")
        .expect_err("injected fault was swallowed");
    assert_positioned(&err, "hard fault");
    let details = err.trace_details().unwrap();
    assert_eq!(details.kind, TraceErrorKind::Io, "{err}");
    assert_eq!(
        details.source.as_ref().unwrap().kind(),
        std::io::ErrorKind::BrokenPipe
    );
}

#[test]
fn truncating_reader_mid_frame_is_a_positioned_error() {
    let tr = small_trace(25, 3);
    let bytes = encode_trace(&tr, Precision::F32).unwrap();
    // Cut inside the last frame's position payload.
    let cut = (bytes.len() - 10) as u64;
    let reader = TraceReader::new(TruncateAt::new(&bytes[..], cut)).unwrap();
    let err = generate_streaming(reader, &cfg()).unwrap_err();
    assert_positioned(&err, "mid-frame truncation");
    assert_eq!(
        err.trace_details().unwrap().kind,
        TraceErrorKind::TruncatedFrame
    );
}

#[test]
fn clean_stream_reports_accurate_ingest_stats() {
    let tr = small_trace(120, 6);
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    let reader = TraceReader::new(&bytes[..]).unwrap();
    let (workload, stats) = generate_streaming_with_stats(reader, &cfg(), None).unwrap();
    assert_eq!(workload.samples(), 6);
    assert_eq!(stats.frames_decoded, 6);
    assert_eq!(stats.bytes_read, bytes.len() as u64);
    assert!(stats.decode_seconds >= 0.0);
    assert!(
        stats.ghost_seconds > 0.0,
        "ghost kernel ran, timer stayed zero"
    );
    assert!(stats.merge_seconds >= 0.0);
}

#[test]
fn failed_stream_still_reports_no_stats_but_positions_error() {
    // Stats ride the Ok path only; the Err path must still carry the
    // decoder's position so operators can locate the corruption.
    let tr = small_trace(15, 4);
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    let cut = bytes.len() - 3;
    let reader = TraceReader::new(&bytes[..cut]).unwrap();
    let err = generate_streaming_with_stats(reader, &cfg(), None).unwrap_err();
    assert_positioned(&err, "stats path");
}
