//! Fuzz-style robustness proptests for PDP stream framing and the wire
//! codec: arbitrary byte soup, truncated streams, and bit-flipped streams
//! must surface `WireError`s (or wait for more bytes) — never panic, never
//! loop, and never corrupt messages *before* the damage point.

use proptest::prelude::*;
use wsda_pdp::framing::{frame_is_query, write_frame, FrameReader};
use wsda_pdp::message::{Message, QueryLanguage, ResponseMode, Scope, TransactionId};
use wsda_pdp::wire::decode;

/// A pool of representative messages, parameterized so streams differ.
fn message(kind: u8, a: u64, s: &str) -> Message {
    match kind % 6 {
        0 => Message::Query {
            transaction: TransactionId(a as u128),
            query: s.to_owned(),
            language: QueryLanguage::XQuery,
            scope: Scope { radius: Some((a % 7) as u32), ..Scope::default() },
            response_mode: ResponseMode::Direct { originator: format!("n{}", a % 9) },
        },
        1 => Message::Results {
            transaction: TransactionId(a as u128),
            seq: a,
            items: vec![format!("<r>{s}</r>"), "<x/>".to_owned()],
            last: a.is_multiple_of(2),
            origin: format!("n{}", a % 5),
            cached: a.is_multiple_of(3),
        },
        2 => Message::Ack { transaction: TransactionId(a as u128), seq: a },
        3 => Message::Partial {
            transaction: TransactionId(a as u128),
            seq: a,
            items: vec![format!("<p>{s}</p>")],
            lost: a % 4 + 1,
        },
        4 => Message::Invite {
            transaction: TransactionId(a as u128),
            node: format!("n{}", a % 5),
            expected: a,
        },
        _ => Message::Ping,
    }
}

/// Drain a reader completely: count decoded messages until it either needs
/// more bytes or errors. The loop is bounded by construction — every
/// `Ok(Some(_))` consumes at least 4 buffered bytes.
fn drain(reader: &mut FrameReader) -> (usize, bool) {
    let mut decoded = 0;
    loop {
        match reader.next_message() {
            Ok(Some(_)) => decoded += 1,
            Ok(None) => return (decoded, false),
            Err(_) => return (decoded, true),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pure byte soup: the reader and raw decoder must reject or wait —
    /// never panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        chunk in 1usize..64,
    ) {
        let mut reader = FrameReader::new();
        for c in bytes.chunks(chunk) {
            reader.extend(c);
            let _ = drain(&mut reader);
        }
        let _ = decode(&bytes);
    }

    /// A valid stream truncated at an arbitrary byte offset: every message
    /// wholly before the cut decodes intact; the cut itself only ever
    /// produces "need more bytes" (a frame split mid-body) — never an
    /// error, because truncation cannot corrupt a length prefix.
    #[test]
    fn truncated_streams_decode_the_intact_prefix(
        seeds in proptest::collection::vec((0u8..6, 0u64..1000, "[a-z<>/]{0,24}"), 1..12),
        cut_permille in 0u32..=1000,
        chunk in 1usize..64,
    ) {
        let mut stream = bytes::BytesMut::new();
        let mut boundaries = Vec::new(); // end offset of each frame
        for (k, a, s) in &seeds {
            write_frame(&mut stream, &message(*k, *a, s)).unwrap();
            boundaries.push(stream.len());
        }
        let cut = (stream.len() as u64 * cut_permille as u64 / 1000) as usize;
        let whole = boundaries.iter().filter(|&&b| b <= cut).count();

        let mut reader = FrameReader::new();
        let mut decoded = 0;
        let mut errored = false;
        for c in stream[..cut].chunks(chunk.max(1)) {
            reader.extend(c);
            let (n, e) = drain(&mut reader);
            decoded += n;
            errored |= e;
            if errored { break; }
        }
        prop_assert!(!errored, "clean truncation must not produce a decode error");
        prop_assert_eq!(decoded, whole, "all wholly-delivered frames decode");
    }

    /// A valid stream with one flipped bit: messages before the damaged
    /// frame still decode; after the flip the reader either errors, waits,
    /// or (when the flip lands in a string body) yields altered messages —
    /// but never panics and never decodes *more* frames than the stream
    /// held.
    #[test]
    fn bit_flipped_streams_never_panic(
        seeds in proptest::collection::vec((0u8..6, 0u64..1000, "[a-z<>/]{0,24}"), 1..12),
        flip_pos in 0u64..u64::MAX,
        flip_bit in 0u8..8,
        chunk in 1usize..64,
    ) {
        let mut stream = bytes::BytesMut::new();
        for (k, a, s) in &seeds {
            write_frame(&mut stream, &message(*k, *a, s)).unwrap();
        }
        let total = seeds.len();
        let mut bytes = stream.to_vec();
        let idx = (flip_pos % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << flip_bit;

        let mut reader = FrameReader::new();
        let mut decoded = 0;
        for c in bytes.chunks(chunk) {
            reader.extend(c);
            let (n, e) = drain(&mut reader);
            decoded += n;
            if e { break; }
        }
        // A flipped length prefix can shift framing so later "frames" are
        // reinterpreted, but the byte budget bounds how many can appear.
        prop_assert!(decoded <= total + 1, "decoded {} from {} frames", decoded, total);
    }

    /// Torn reads: a socket can hand the stream back split at ANY byte
    /// offset. For every prefix split of a multi-message stream, feeding
    /// the two pieces must decode exactly the same message sequence as the
    /// unsplit stream — no loss, no reorder, no phantom frames.
    #[test]
    fn every_prefix_split_decodes_identically(
        seeds in proptest::collection::vec((0u8..6, 0u64..1000, "[a-z<>/]{0,24}"), 1..10),
    ) {
        let mut stream = bytes::BytesMut::new();
        for (k, a, s) in &seeds {
            write_frame(&mut stream, &message(*k, *a, s)).unwrap();
        }
        // Baseline: the unsplit stream.
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        let mut baseline = Vec::new();
        while let Some(m) = reader.next_message().unwrap() {
            baseline.push(m);
        }
        prop_assert_eq!(baseline.len(), seeds.len());

        for cut in 0..=stream.len() {
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            for piece in [&stream[..cut], &stream[cut..]] {
                reader.extend(piece);
                while let Some(m) = reader.next_message().unwrap() {
                    got.push(m);
                }
            }
            prop_assert_eq!(&got, &baseline, "split at byte {}", cut);
        }
    }

    /// The stream layer itself (the socket read path): `next_frame` splits
    /// torn/coalesced chunks into raw frames whose bytes re-decode to the
    /// original messages, and per-frame classification matches the message
    /// kinds regardless of how the stream was chunked.
    #[test]
    fn raw_frame_splitting_survives_arbitrary_chunking(
        seeds in proptest::collection::vec((0u8..6, 0u64..1000, "[a-z<>/]{0,24}"), 1..10),
        chunk in 1usize..64,
    ) {
        let mut stream = bytes::BytesMut::new();
        for (k, a, s) in &seeds {
            write_frame(&mut stream, &message(*k, *a, s)).unwrap();
        }
        let originals: Vec<Message> =
            seeds.iter().map(|(k, a, s)| message(*k, *a, s)).collect();

        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for c in stream.chunks(chunk) {
            reader.extend(c);
            while let Some(f) = reader.next_frame().unwrap() {
                frames.push(f);
            }
        }
        prop_assert_eq!(frames.len(), originals.len());
        for (frame, original) in frames.iter().zip(&originals) {
            // Classification per split frame matches the decoded kind.
            prop_assert_eq!(
                frame_is_query(frame),
                matches!(original, Message::Query { .. })
            );
            // The raw bytes decode back to the original message.
            prop_assert_eq!(&decode(&frame[4..]).unwrap(), original);
        }
    }
}
