//! F24 — Real wire: socket-byte accounting and framed-stream throughput
//! for the TCP transport.
//!
//! Three parts:
//!
//! 1. **Socket-byte accounting.** A known mix of PDP frames is sent over a
//!    real loopback connection and the transport's byte counters (actual
//!    socket traffic) are compared against the codec's `encoded_len`
//!    accounting (4-byte length prefix per frame, one 13-byte handshake
//!    per connection). Write and read sides must both land within 1% —
//!    the wire carries the codec's bytes and nothing else.
//! 2. **Federation wire cost.** A 3-node [`LiveNetwork`] over TCP answers
//!    a radius-2 query end-to-end; the row reports the real bytes and
//!    frames the whole exchange put on loopback sockets.
//! 3. **Codec/stream microbench.** Frames/sec for in-memory encode+decode
//!    vs the full framed-stream path (`write_frame` → `FrameReader`) —
//!    the cost the stream layer adds over the bare codec.
//!
//! Emits `BENCH_p2_wire.json`.

use crate::harness::{f2 as fmt2, timed, write_bench, Report};
use serde_json::json;
use std::time::{Duration, Instant};
use wsda_net::transport::FrameTransport;
use wsda_net::{NodeId, TcpTransport};
use wsda_pdp::framing::{write_frame, FrameReader};
use wsda_pdp::wire::{decode, encode, encoded_len};
use wsda_pdp::{Message, QueryLanguage, ResponseMode, Scope, TransactionId};
use wsda_updf::{LiveNetwork, RecoveryConfig, Topology};

/// Handshake bytes per established connection (magic + version + ids).
const HELLO_LEN: u64 = 13;

fn query_message(i: u64) -> Message {
    Message::Query {
        transaction: TransactionId::derive(0xF24, i),
        query: format!(r#"//service[load < 0.{:03}]/owner"#, 100 + (i % 100)),
        language: QueryLanguage::XQuery,
        scope: Scope { radius: Some(2), ..Scope::default() },
        response_mode: ResponseMode::Routed,
    }
}

fn results_message(i: u64) -> Message {
    Message::Results {
        transaction: TransactionId::derive(0xF24, i),
        seq: i,
        items: vec![
            format!("<owner>site-{i}.example.org</owner>"),
            format!("<owner>mirror-{i}.example.org</owner>"),
        ],
        last: i % 8 == 7,
        origin: "n1".to_owned(),
        cached: false,
    }
}

fn frame(message: &Message) -> Vec<u8> {
    let mut buf = bytes::BytesMut::new();
    write_frame(&mut buf, message).expect("bench frame within MAX_FRAME");
    buf.to_vec()
}

/// Part 1: pump `count` frames 0→1 over one real socket and compare the
/// transport's byte counters with the codec accounting.
fn socket_accounting(count: u64) -> (u64, u64, u64, u64) {
    let net = TcpTransport::new();
    let _a = net.register(NodeId(0));
    let b = net.register(NodeId(1));
    let mut accounted: u64 = 0;
    let mut sent: u64 = 0;
    for i in 0..count {
        let message = if i % 2 == 0 { query_message(i) } else { results_message(i) };
        accounted += 4 + encoded_len(&message);
        assert!(
            net.send_frame(NodeId(0), NodeId(1), frame(&message)),
            "loopback send must succeed"
        );
        sent += 1;
    }
    // Drain the receive side: every frame back out of the inbox.
    let mut received = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut reader = FrameReader::new();
    while received < sent && Instant::now() < deadline {
        if let Ok(envelope) = b.recv_timeout(Duration::from_millis(100)) {
            reader.extend(&envelope.message);
            while let Ok(Some(_)) = reader.next_message() {
                received += 1;
            }
        }
    }
    assert_eq!(received, sent, "every frame must arrive");
    // The reader's byte counter trails delivery by at most one poll.
    let expected = accounted + HELLO_LEN;
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.stats().read_bytes < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = net.stats();
    (accounted, stats.write_bytes, stats.read_bytes, stats.frames_out)
}

/// Relative deviation of `actual` from `expected`, as a fraction.
fn deviation(actual: u64, expected: u64) -> f64 {
    (actual as f64 - expected as f64).abs() / expected as f64
}

pub fn run(quick: bool) -> Report {
    let mut report = Report::new(
        "f24",
        "Real wire: TCP socket-byte accounting & framed-stream throughput",
        &["part", "frames", "accounted B", "socket B", "dev %", "Mframes/s"],
    );

    // ---- Part 1: socket bytes vs encoded_len accounting ----------------
    let count = if quick { 200 } else { 2_000 };
    let (accounted, written, read, frames_out) = socket_accounting(count);
    let expected = accounted + HELLO_LEN;
    let dev_w = deviation(written, accounted);
    let dev_r = deviation(read, accounted);
    assert!(
        dev_w <= 0.01,
        "socket write bytes must match codec accounting within 1%: wrote {written}, accounted {accounted}"
    );
    assert!(
        dev_r <= 0.01,
        "socket read bytes must match codec accounting within 1%: read {read}, accounted {accounted}"
    );
    assert_eq!(written, expected, "writes are exactly accounting + one handshake");
    assert_eq!(frames_out, count, "every frame crossed the socket");
    report.row(
        vec![
            "socket-accounting".into(),
            count.to_string(),
            accounted.to_string(),
            written.to_string(),
            fmt2(dev_w * 100.0),
            "-".into(),
        ],
        &json!({
            "part": "socket_accounting",
            "frames": count,
            "accounted_bytes": accounted,
            "write_bytes": written,
            "read_bytes": read,
            "write_deviation": dev_w,
            "read_deviation": dev_r,
        }),
    );

    // ---- Part 2: 3-node federation over real sockets --------------------
    let mut net =
        LiveNetwork::start_tcp(Topology::line(3), 3, 0xF24, RecoveryConfig::live_default());
    let full = net.query_full(
        NodeId(0),
        r#"//service[load < 0.5]/owner"#,
        Some(2),
        Duration::from_secs(20),
    );
    assert!(
        full.completeness.is_complete(),
        "the 3-node TCP federation must answer radius-2 complete: {:?}",
        full.completeness
    );
    let wire_bytes = net.metrics().family_sum("tcp_write_bytes_total");
    let wire_frames = net.metrics().family_sum("tcp_frames_out_total");
    assert!(wire_bytes > 0, "the query must have crossed real sockets");
    report.row(
        vec![
            "federation-query".into(),
            wire_frames.to_string(),
            "-".into(),
            wire_bytes.to_string(),
            "-".into(),
            "-".into(),
        ],
        &json!({
            "part": "federation_query",
            "nodes": 3,
            "radius": 2,
            "complete": true,
            "results": full.results.len(),
            "wire_bytes": wire_bytes,
            "wire_frames": wire_frames,
        }),
    );
    drop(net);

    // ---- Part 3: codec vs framed-stream throughput ----------------------
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let messages: Vec<Message> =
        (0..64).map(|i| if i % 2 == 0 { query_message(i) } else { results_message(i) }).collect();
    // In-memory: encode + decode, no framing, no stream reassembly.
    let (codec_ok, codec_s) = timed(|| {
        let mut ok = 0u64;
        for i in 0..iters {
            let m = &messages[(i % 64) as usize];
            let bytes = encode(m);
            if decode(&bytes).is_ok() {
                ok += 1;
            }
        }
        ok
    });
    assert_eq!(codec_ok, iters);
    // Framed stream: write_frame into a growing buffer, then FrameReader
    // re-splits and decodes the whole stream in chunks, as a socket reader
    // would.
    let batch: u64 = 64;
    let (stream_ok, stream_s) = timed(|| {
        let mut ok = 0u64;
        let mut rounds = iters / batch;
        while rounds > 0 {
            rounds -= 1;
            let mut buf = bytes::BytesMut::new();
            for m in &messages {
                write_frame(&mut buf, m).expect("bench frame");
            }
            let stream = buf.to_vec();
            let mut reader = FrameReader::new();
            for chunk in stream.chunks(4096) {
                reader.extend(chunk);
                while let Ok(Some(_)) = reader.next_message() {
                    ok += 1;
                }
            }
        }
        ok
    });
    assert_eq!(stream_ok, (iters / batch) * batch);
    // `timed` reports milliseconds.
    let codec_rate = codec_ok as f64 / (codec_s / 1000.0) / 1e6;
    let stream_rate = stream_ok as f64 / (stream_s / 1000.0) / 1e6;
    report.row(
        vec![
            "codec in-memory".into(),
            codec_ok.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            fmt2(codec_rate),
        ],
        &json!({
            "part": "codec_in_memory",
            "frames": codec_ok,
            "mframes_per_sec": codec_rate,
        }),
    );
    report.row(
        vec![
            "framed stream".into(),
            stream_ok.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            fmt2(stream_rate),
        ],
        &json!({
            "part": "framed_stream",
            "frames": stream_ok,
            "mframes_per_sec": stream_rate,
            "stream_vs_codec": stream_rate / codec_rate,
        }),
    );

    report.note(format!(
        "socket accounting: {count} alternating Query/Results frames over one real loopback \
         connection; 'accounted B' is Σ(4 + encoded_len) from the codec, 'socket B' is the \
         transport's write-side byte counter (read side deviates {:.3}%). The only \
         non-codec bytes on the wire are the {HELLO_LEN}-byte per-connection handshake. \
         federation-query: a 3-node line over real TCP sockets answering a radius-2 query \
         end-to-end ({} results, Complete) — 'socket B'/'frames' are the whole exchange's \
         write-side totals across all connections, protocol overhead included (acks, \
         retransmission timers idle). Microbench: frames/sec for the bare codec \
         (encode+decode) vs the full framed-stream path (write_frame → 4 KiB chunked \
         FrameReader reassembly → decode); the ratio is the stream layer's cost.",
        dev_r * 100.0,
        full.results.len(),
    ));
    write_bench(&mut report, "BENCH_p2_wire.json", quick);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_emits_rows_and_holds_accounting() {
        let report = run(true);
        assert_eq!(report.rows.len(), 4);
        assert!(report.notes.iter().any(|n| n.contains("BENCH_p2_wire.json")));
    }
}
