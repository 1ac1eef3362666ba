//! Stream framing: delimiting PDP messages on a byte stream.
//!
//! The wire codec ([`crate::wire`]) encodes one message; real transports
//! (TCP in the original, the threaded channel transport here) carry a
//! *stream* of them. Frames are `u32` big-endian length prefixes followed
//! by the encoded message — the classic self-synchronizing layout the
//! thesis's BEEP/HTTP bindings provided.

use crate::message::Message;
use crate::wire::{decode, encode_into, encoded_len, WireError};
use bytes::{BufMut, BytesMut};
use std::ops::Range;

/// Largest accepted frame (matches the codec's sanity bound).
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Reader buffers above this capacity are candidates for reclaiming once
/// mostly drained, so a one-off huge frame does not pin its allocation for
/// the life of the connection.
const RECLAIM_CAPACITY: usize = 64 * 1024;

/// Check a would-be frame body length against [`MAX_FRAME`].
///
/// This is the encode-side mirror of the decode-side bound in
/// [`FrameReader`]: both sides reject the same sizes, so a frame we are
/// willing to write is always a frame the peer is willing to read.
pub fn checked_frame_len(body_len: u64) -> Result<u32, WireError> {
    if body_len > MAX_FRAME as u64 {
        return Err(WireError::LengthOverflow(body_len));
    }
    Ok(body_len as u32)
}

/// Append a framed message to `out`.
///
/// Fails with [`WireError::LengthOverflow`] if the encoded body would
/// exceed [`MAX_FRAME`]: the old unchecked `as u32` cast silently
/// truncated the length prefix for oversize bodies, which desyncs the
/// stream for every frame that follows. The length check runs against
/// [`encoded_len`] *before* encoding, so a rejected message costs no
/// allocation and leaves `out` untouched.
pub fn write_frame(out: &mut BytesMut, message: &Message) -> Result<(), WireError> {
    let declared = checked_frame_len(encoded_len(message))?;
    let start = out.len();
    out.put_u32(declared);
    encode_into(out, message);
    debug_assert_eq!(out.len() - start, 4 + declared as usize, "encoded_len mismatch");
    Ok(())
}

/// One framed message in its own exactly sized buffer — what a transport
/// sends. The body is encoded straight into place, never copied. Fails
/// like [`write_frame`], before allocating.
pub fn encode_frame(message: &Message) -> Result<Vec<u8>, WireError> {
    let declared = checked_frame_len(encoded_len(message))?;
    let mut frame = Vec::with_capacity(4 + declared as usize);
    frame.put_u32(declared);
    encode_into(&mut frame, message);
    debug_assert_eq!(frame.len(), 4 + declared as usize, "encoded_len mismatch");
    Ok(frame)
}

/// Whether a framed buffer carries a `Query` message, without decoding it.
///
/// The wire codec writes the message kind as the first body byte, so in a
/// framed buffer it sits right after the 4-byte length prefix. Transports
/// use this to classify query frames as sheddable under overload while
/// acks and results keep priority — a peek, not a parse, so it stays O(1)
/// regardless of frame size.
///
/// **The argument must be exactly one frame** (e.g. one element out of
/// [`FrameReader::next_frame`]), never a raw read buffer: TCP coalesces
/// writes, so a read chunk can hold several frames back to back and byte 4
/// only classifies the first of them.
pub fn frame_is_query(frame: &[u8]) -> bool {
    frame.len() > 4 && frame[4] == crate::wire::KIND_QUERY
}

/// Incrementally splits a byte stream into messages.
///
/// Feed arbitrary chunks with [`FrameReader::extend`]; drain complete
/// messages with [`FrameReader::next_message`]. Partial frames are
/// buffered; a declared length above [`MAX_FRAME`] is a protocol error.
///
/// Frames are read in place behind a read offset. The unread tail moves
/// to the front of the buffer at most once per [`FrameReader::extend`],
/// never once per frame, and a reader drained to the last byte holds no
/// allocation.
#[derive(Debug, Default)]
pub struct FrameReader {
    buffer: Vec<u8>,
    /// Bytes of `buffer` before this offset are consumed.
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buffer.drain(..self.start);
            self.start = 0;
        }
        self.buffer.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (for backpressure accounting).
    pub fn buffered(&self) -> usize {
        self.buffer.len() - self.start
    }

    /// Allocated capacity of the internal buffer (for retention tests and
    /// memory accounting).
    pub fn buffer_capacity(&self) -> usize {
        self.buffer.capacity()
    }

    /// Try to decode the next complete message. `Ok(None)` means more
    /// bytes are needed.
    pub fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        let Some(body) = self.next_body()? else {
            return Ok(None);
        };
        let message = decode(&self.buffer[body]);
        self.release();
        message.map(Some)
    }

    /// Try to split off the next complete frame as raw bytes — the 4-byte
    /// length prefix *plus* body, exactly as it travelled — without
    /// decoding it. `Ok(None)` means more bytes are needed.
    ///
    /// This is the socket-transport fast path: a receiver re-frames the
    /// stream into individual frames (so [`frame_is_query`] classifies
    /// each one correctly even when the kernel coalesced several writes
    /// into one read) and forwards the bytes untouched, leaving the decode
    /// to the consuming peer thread.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Some(body) = self.next_body()? else {
            return Ok(None);
        };
        let frame = self.buffer[body.start - 4..body.end].to_vec();
        self.release();
        Ok(Some(frame))
    }

    /// Consume the next complete frame and return its body's range in
    /// `buffer`, enforcing [`MAX_FRAME`]. The caller reads the body, then
    /// calls [`FrameReader::release`].
    fn next_body(&mut self) -> Result<Option<Range<usize>>, WireError> {
        let pending = &self.buffer[self.start..];
        if pending.len() < 4 {
            self.release();
            return Ok(None);
        }
        let declared = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if declared > MAX_FRAME {
            return Err(WireError::LengthOverflow(declared as u64));
        }
        let body = self.start + 4..self.start + 4 + declared as usize;
        if body.end > self.buffer.len() {
            self.release();
            return Ok(None);
        }
        self.start = body.end;
        Ok(Some(body))
    }

    /// Give back memory the unread bytes do not need. A drained buffer is
    /// freed outright. An oversized one that is mostly drained (after a
    /// one-off large frame passed through) keeps only a right-sized copy
    /// of its unread tail; a buffer that is still mostly full is left
    /// alone.
    fn release(&mut self) {
        let unread = self.buffered();
        if unread == 0 {
            *self = Self::default();
        } else if self.buffer.capacity() > RECLAIM_CAPACITY && unread * 4 < self.buffer.capacity() {
            self.buffer = self.buffer[self.start..].to_vec();
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{QueryLanguage, ResponseMode, Scope, TransactionId};

    fn samples() -> Vec<Message> {
        vec![
            Message::Query {
                transaction: TransactionId::derive(4, 4),
                query: "//service".into(),
                language: QueryLanguage::XQuery,
                scope: Scope::default(),
                response_mode: ResponseMode::Routed,
            },
            Message::Ping,
            Message::Results {
                transaction: TransactionId::derive(4, 5),
                seq: 0,
                items: vec!["<a/>".into()],
                last: true,
                origin: "n1".into(),
                cached: false,
            },
            Message::Close { transaction: TransactionId::derive(4, 6) },
        ]
    }

    #[test]
    fn roundtrip_stream() {
        let mut stream = BytesMut::new();
        for m in samples() {
            write_frame(&mut stream, &m).unwrap();
        }
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        let mut got = Vec::new();
        while let Some(m) = reader.next_message().unwrap() {
            got.push(m);
        }
        assert_eq!(got, samples());
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut stream = BytesMut::new();
        for m in samples() {
            write_frame(&mut stream, &m).unwrap();
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for b in stream.iter() {
            reader.extend(&[*b]);
            while let Some(m) = reader.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, samples());
    }

    #[test]
    fn split_across_arbitrary_chunks() {
        let mut stream = BytesMut::new();
        for m in samples() {
            write_frame(&mut stream, &m).unwrap();
        }
        for chunk_size in [1usize, 3, 7, 16, 64, 1024] {
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                reader.extend(chunk);
                while let Some(m) = reader.next_message().unwrap() {
                    got.push(m);
                }
            }
            assert_eq!(got, samples(), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut reader = FrameReader::new();
        reader.extend(&(MAX_FRAME + 1).to_be_bytes());
        assert!(matches!(reader.next_message(), Err(WireError::LengthOverflow(_))));
    }

    #[test]
    fn incomplete_frame_waits() {
        let mut stream = BytesMut::new();
        write_frame(&mut stream, &Message::Ping).unwrap();
        let mut reader = FrameReader::new();
        reader.extend(&stream[..stream.len() - 1]);
        assert_eq!(reader.next_message().unwrap(), None);
        reader.extend(&stream[stream.len() - 1..]);
        assert_eq!(reader.next_message().unwrap(), Some(Message::Ping));
    }

    #[test]
    fn frame_is_query_peeks_kind_byte() {
        for m in samples() {
            let mut buf = BytesMut::new();
            write_frame(&mut buf, &m).unwrap();
            assert_eq!(
                frame_is_query(&buf),
                matches!(m, Message::Query { .. }),
                "classification of {m:?}"
            );
        }
        // Too short to carry a kind byte: never a query.
        assert!(!frame_is_query(&[]));
        assert!(!frame_is_query(&[0, 0, 0, 1]));
    }

    #[test]
    fn oversize_body_rejected_at_the_boundary() {
        // The exact MAX_FRAME edge, via the shared length check: the last
        // accepted body length and the first rejected one.
        assert_eq!(checked_frame_len(MAX_FRAME as u64).unwrap(), MAX_FRAME);
        assert!(matches!(
            checked_frame_len(MAX_FRAME as u64 + 1),
            Err(WireError::LengthOverflow(n)) if n == MAX_FRAME as u64 + 1
        ));
        // And u32 overflow territory, where the old unchecked `as u32`
        // cast silently truncated the prefix and desynced the stream.
        assert!(matches!(
            checked_frame_len(u32::MAX as u64 + 5),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn oversize_message_refused_without_desync() {
        // A message whose body would exceed MAX_FRAME must be refused by
        // write_frame — and refused *cleanly*: the output buffer is left
        // untouched, so the stream stays in sync for subsequent frames.
        let huge = Message::Results {
            transaction: TransactionId::derive(9, 9),
            seq: 0,
            items: vec!["x".repeat(MAX_FRAME as usize + 1)],
            last: true,
            origin: "n1".into(),
            cached: false,
        };
        let mut out = BytesMut::new();
        write_frame(&mut out, &Message::Ping).unwrap();
        let len_before = out.len();
        assert!(matches!(write_frame(&mut out, &huge), Err(WireError::LengthOverflow(_))));
        assert_eq!(out.len(), len_before, "rejected frame must not emit partial bytes");
        write_frame(&mut out, &Message::Pong).unwrap();
        let mut reader = FrameReader::new();
        reader.extend(&out);
        assert_eq!(reader.next_message().unwrap(), Some(Message::Ping));
        assert_eq!(reader.next_message().unwrap(), Some(Message::Pong));
        assert_eq!(reader.next_message().unwrap(), None);
    }

    #[test]
    fn next_frame_splits_coalesced_chunks_for_classification() {
        // Several frames delivered as ONE read chunk, the way TCP
        // coalesces back-to-back writes. Classifying the raw buffer sees
        // only the first frame's kind byte; classifying each split frame
        // is correct.
        let mut stream = BytesMut::new();
        for m in samples() {
            write_frame(&mut stream, &m).unwrap();
        }
        // The raw-buffer peek misclassifies: buffer starts with a Query,
        // so everything behind it would ride the sheddable lane too.
        assert!(frame_is_query(&stream));
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        let mut classes = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            classes.push(frame_is_query(&frame));
        }
        let expected: Vec<bool> =
            samples().iter().map(|m| matches!(m, Message::Query { .. })).collect();
        assert_eq!(classes, expected);
    }

    #[test]
    fn next_frame_bytes_redecode_identically() {
        let mut stream = BytesMut::new();
        for m in samples() {
            write_frame(&mut stream, &m).unwrap();
        }
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        let mut rejoined = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            rejoined.extend_from_slice(&frame);
        }
        assert_eq!(rejoined, &stream[..], "re-framed bytes identical to the wire bytes");
        let mut reader = FrameReader::new();
        reader.extend(&rejoined);
        let mut got = Vec::new();
        while let Some(m) = reader.next_message().unwrap() {
            got.push(m);
        }
        assert_eq!(got, samples());
    }

    #[test]
    fn encode_frame_is_write_frame_in_an_exact_buffer() {
        for m in samples() {
            let mut buf = BytesMut::new();
            write_frame(&mut buf, &m).unwrap();
            let frame = encode_frame(&m).unwrap();
            assert_eq!(frame, &buf[..]);
            assert_eq!(frame.capacity(), frame.len(), "no spare capacity in {m:?}");
        }
    }

    #[test]
    fn drained_reader_holds_no_allocation() {
        let mut stream = BytesMut::new();
        for m in samples() {
            write_frame(&mut stream, &m).unwrap();
        }
        let last = encode_frame(samples().last().unwrap()).unwrap().len();
        let mut reader = FrameReader::new();
        // A chunk ending one byte short: every whole frame comes out and
        // only the partial one stays buffered.
        reader.extend(&stream[..stream.len() - 1]);
        let mut frames = 0;
        while reader.next_frame().unwrap().is_some() {
            frames += 1;
        }
        assert_eq!((frames, reader.buffered()), (samples().len() - 1, last - 1));
        reader.extend(&stream[stream.len() - 1..]);
        assert_eq!(reader.next_message().unwrap().as_ref(), samples().last());
        assert_eq!((reader.buffered(), reader.buffer_capacity()), (0, 0));
    }

    #[test]
    fn large_frame_does_not_pin_buffer_capacity() {
        // A one-off multi-megabyte frame passes through; once drained, the
        // reader must not keep that allocation for the connection's life.
        let big = Message::Results {
            transaction: TransactionId::derive(7, 7),
            seq: 0,
            items: vec!["y".repeat(8 * 1024 * 1024)],
            last: true,
            origin: "n1".into(),
            cached: false,
        };
        let mut stream = BytesMut::new();
        write_frame(&mut stream, &big).unwrap();
        let mut reader = FrameReader::new();
        // Feed in chunks so the buffer itself grows to frame size, then a
        // partial drain check: a mostly-full buffer is NOT reclaimed.
        let half = stream.len() / 2;
        reader.extend(&stream[..half]);
        assert_eq!(reader.next_message().unwrap(), None);
        assert!(reader.buffered() >= half, "partial frame stays buffered");
        reader.extend(&stream[half..]);
        assert_eq!(reader.next_message().unwrap(), Some(big));
        assert_eq!(reader.buffered(), 0);
        assert!(
            reader.buffer_capacity() <= RECLAIM_CAPACITY,
            "drained reader retains {} bytes of capacity",
            reader.buffer_capacity()
        );
        // And the reader still works after the reclaim.
        let before = stream.len();
        write_frame(&mut stream, &Message::Ping).unwrap();
        reader.extend(&stream[before..]);
        assert_eq!(reader.next_message().unwrap(), Some(Message::Ping));
    }

    #[test]
    fn corrupt_body_surfaces_codec_error() {
        let mut reader = FrameReader::new();
        reader.extend(&1u32.to_be_bytes());
        reader.extend(&[0xFF]); // unknown message kind
        assert!(matches!(reader.next_message(), Err(WireError::BadKind(0xFF))));
    }
}
