//! Binary wire codec (dissertation section 7.5, "Communication Model and
//! Network Protocol").
//!
//! A compact, length-prefixed binary framing: one byte of message kind,
//! then fields in a fixed order; strings and sequences carry u32 lengths.
//! All integers are big-endian. The codec gives experiments an honest
//! bytes-on-the-wire measure (experiment F14) and the simulator its
//! message-size input.

use crate::message::{Message, QueryLanguage, ResponseMode, Scope, TransactionId};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the declared structure.
    Truncated,
    /// Unknown message kind byte.
    BadKind(u8),
    /// Unknown enum discriminant inside a message.
    BadDiscriminant(&'static str, u8),
    /// A declared length exceeds sanity bounds.
    LengthOverflow(u64),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated PDP frame"),
            WireError::BadKind(k) => write!(f, "unknown PDP message kind {k:#x}"),
            WireError::BadDiscriminant(what, v) => {
                write!(f, "bad {what} discriminant {v:#x}")
            }
            WireError::LengthOverflow(n) => write!(f, "declared length {n} too large"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on any single declared length (strings, item counts).
const MAX_LEN: u64 = 256 * 1024 * 1024;

pub(crate) const KIND_QUERY: u8 = 1;
const KIND_RESULTS: u8 = 2;
const KIND_INVITE: u8 = 3;
const KIND_CLOSE: u8 = 4;
const KIND_PING: u8 = 5;
const KIND_PONG: u8 = 6;
const KIND_ACK: u8 = 7;
const KIND_PARTIAL: u8 = 8;

/// Encode a message into a frame.
pub fn encode(message: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(message) as usize);
    encode_into(&mut buf, message);
    buf.freeze()
}

/// Append a message's encoding to `buf` ([`encoded_len`] bytes), so a
/// framed message is written once into its final buffer.
pub(crate) fn encode_into(buf: &mut impl BufMut, message: &Message) {
    match message {
        Message::Query { transaction, query, language, scope, response_mode } => {
            buf.put_u8(KIND_QUERY);
            buf.put_u128(transaction.0);
            put_str(buf, query);
            buf.put_u8(match language {
                QueryLanguage::XQuery => 0,
                QueryLanguage::Sql => 1,
                QueryLanguage::KeyLookup => 2,
            });
            // scope
            match scope.radius {
                Some(r) => {
                    buf.put_u8(1);
                    buf.put_u32(r);
                }
                None => buf.put_u8(0),
            }
            buf.put_u64(scope.abort_timeout_ms);
            buf.put_u64(scope.loop_timeout_ms);
            match scope.max_results {
                Some(m) => {
                    buf.put_u8(1);
                    buf.put_u64(m);
                }
                None => buf.put_u8(0),
            }
            put_str(buf, &scope.neighbor_policy);
            buf.put_u8(scope.pipeline as u8);
            buf.put_u64(scope.result_staleness_ms);
            // response mode
            match response_mode {
                ResponseMode::Routed => buf.put_u8(0),
                ResponseMode::Direct { originator } => {
                    buf.put_u8(1);
                    put_str(buf, originator);
                }
                ResponseMode::Referral => buf.put_u8(2),
            }
        }
        Message::Results { transaction, seq, items, last, origin, cached } => {
            buf.put_u8(KIND_RESULTS);
            buf.put_u128(transaction.0);
            buf.put_u64(*seq);
            put_items(buf, items);
            buf.put_u8(*last as u8);
            put_str(buf, origin);
            buf.put_u8(*cached as u8);
        }
        Message::Ack { transaction, seq } => {
            buf.put_u8(KIND_ACK);
            buf.put_u128(transaction.0);
            buf.put_u64(*seq);
        }
        Message::Partial { transaction, seq, items, lost } => {
            buf.put_u8(KIND_PARTIAL);
            buf.put_u128(transaction.0);
            buf.put_u64(*seq);
            put_items(buf, items);
            buf.put_u64(*lost);
        }
        Message::Invite { transaction, node, expected } => {
            buf.put_u8(KIND_INVITE);
            buf.put_u128(transaction.0);
            put_str(buf, node);
            buf.put_u64(*expected);
        }
        Message::Close { transaction } => {
            buf.put_u8(KIND_CLOSE);
            buf.put_u128(transaction.0);
        }
        Message::Ping => buf.put_u8(KIND_PING),
        Message::Pong => buf.put_u8(KIND_PONG),
    }
}

/// The encoded size without materializing the frame (simulator fast path).
pub fn encoded_len(message: &Message) -> u64 {
    // Exact, mirroring `encode`.
    match message {
        Message::Query { query, scope, response_mode, .. } => {
            let mut n = 1 + 16 + 4 + query.len() as u64 + 1;
            n += 1 + if scope.radius.is_some() { 4 } else { 0 };
            n += 8 + 8;
            n += 1 + if scope.max_results.is_some() { 8 } else { 0 };
            n += 4 + scope.neighbor_policy.len() as u64 + 1 + 8;
            n += 1 + match response_mode {
                ResponseMode::Direct { originator } => 4 + originator.len() as u64,
                _ => 0,
            };
            n
        }
        Message::Results { items, origin, .. } => {
            1 + 16 + 8 + items_len(items) + 1 + 4 + origin.len() as u64 + 1
        }
        Message::Ack { .. } => 1 + 16 + 8,
        Message::Partial { items, .. } => 1 + 16 + 8 + items_len(items) + 8,
        Message::Invite { node, .. } => 1 + 16 + 4 + node.len() as u64 + 8,
        Message::Close { .. } => 1 + 16,
        Message::Ping | Message::Pong => 1,
    }
}

/// Decode a frame.
pub fn decode(mut frame: &[u8]) -> Result<Message, WireError> {
    let buf = &mut frame;
    let kind = get_u8(buf)?;
    match kind {
        KIND_QUERY => {
            let transaction = TransactionId(get_u128(buf)?);
            let query = get_str(buf)?;
            let language = match get_u8(buf)? {
                0 => QueryLanguage::XQuery,
                1 => QueryLanguage::Sql,
                2 => QueryLanguage::KeyLookup,
                v => return Err(WireError::BadDiscriminant("query language", v)),
            };
            let radius = match get_u8(buf)? {
                0 => None,
                1 => Some(get_u32(buf)?),
                v => return Err(WireError::BadDiscriminant("radius option", v)),
            };
            let abort_timeout_ms = get_u64(buf)?;
            let loop_timeout_ms = get_u64(buf)?;
            let max_results = match get_u8(buf)? {
                0 => None,
                1 => Some(get_u64(buf)?),
                v => return Err(WireError::BadDiscriminant("max-results option", v)),
            };
            let neighbor_policy = get_str(buf)?;
            let pipeline = get_u8(buf)? != 0;
            let result_staleness_ms = get_u64(buf)?;
            let response_mode = match get_u8(buf)? {
                0 => ResponseMode::Routed,
                1 => ResponseMode::Direct { originator: get_str(buf)? },
                2 => ResponseMode::Referral,
                v => return Err(WireError::BadDiscriminant("response mode", v)),
            };
            Ok(Message::Query {
                transaction,
                query,
                language,
                scope: Scope {
                    radius,
                    abort_timeout_ms,
                    loop_timeout_ms,
                    max_results,
                    neighbor_policy,
                    pipeline,
                    result_staleness_ms,
                },
                response_mode,
            })
        }
        KIND_RESULTS => {
            let transaction = TransactionId(get_u128(buf)?);
            let seq = get_u64(buf)?;
            let items = get_items(buf)?;
            let last = get_u8(buf)? != 0;
            let origin = get_str(buf)?;
            let cached = get_u8(buf)? != 0;
            Ok(Message::Results { transaction, seq, items, last, origin, cached })
        }
        KIND_ACK => {
            let transaction = TransactionId(get_u128(buf)?);
            let seq = get_u64(buf)?;
            Ok(Message::Ack { transaction, seq })
        }
        KIND_PARTIAL => {
            let transaction = TransactionId(get_u128(buf)?);
            let seq = get_u64(buf)?;
            let items = get_items(buf)?;
            let lost = get_u64(buf)?;
            Ok(Message::Partial { transaction, seq, items, lost })
        }
        KIND_INVITE => {
            let transaction = TransactionId(get_u128(buf)?);
            let node = get_str(buf)?;
            let expected = get_u64(buf)?;
            Ok(Message::Invite { transaction, node, expected })
        }
        KIND_CLOSE => Ok(Message::Close { transaction: TransactionId(get_u128(buf)?) }),
        KIND_PING => Ok(Message::Ping),
        KIND_PONG => Ok(Message::Pong),
        other => Err(WireError::BadKind(other)),
    }
}

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_items(buf: &mut impl BufMut, items: &[String]) {
    buf.put_u32(items.len() as u32);
    for item in items {
        put_str(buf, item);
    }
}

fn items_len(items: &[String]) -> u64 {
    4 + items.iter().map(|i| 4 + i.len() as u64).sum::<u64>()
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64())
}

fn get_u128(buf: &mut &[u8]) -> Result<u128, WireError> {
    if buf.remaining() < 16 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u128())
}

fn get_items(buf: &mut &[u8]) -> Result<Vec<String>, WireError> {
    let n = get_u32(buf)? as u64;
    if n > MAX_LEN {
        return Err(WireError::LengthOverflow(n));
    }
    let mut items = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        items.push(get_str(buf)?);
    }
    Ok(items)
}

fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    let len = get_u32(buf)? as u64;
    if len > MAX_LEN {
        return Err(WireError::LengthOverflow(len));
    }
    if (buf.remaining() as u64) < len {
        return Err(WireError::Truncated);
    }
    let bytes = buf[..len as usize].to_vec();
    buf.advance(len as usize);
    String::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Message {
        Message::Query {
            transaction: TransactionId::derive(3, 9),
            query: "//service[owner = \"cms.cern.ch\"]".into(),
            language: QueryLanguage::XQuery,
            scope: Scope {
                radius: Some(4),
                abort_timeout_ms: 12_345,
                loop_timeout_ms: 60_000,
                max_results: Some(100),
                neighbor_policy: "random:3".into(),
                pipeline: true,
                result_staleness_ms: 5_000,
            },
            response_mode: ResponseMode::Direct { originator: "n0".into() },
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        let messages = vec![
            sample_query(),
            Message::Results {
                transaction: TransactionId::derive(1, 1),
                seq: 3,
                items: vec!["<a/>".into(), "<b x=\"1\">t</b>".into()],
                last: true,
                origin: "n7".into(),
                cached: true,
            },
            Message::Ack { transaction: TransactionId::derive(1, 4), seq: 3 },
            Message::Partial {
                transaction: TransactionId::derive(1, 5),
                seq: 4,
                items: vec!["<c/>".into()],
                lost: 2,
            },
            Message::Invite {
                transaction: TransactionId::derive(1, 2),
                node: "n3".into(),
                expected: 42,
            },
            Message::Close { transaction: TransactionId::derive(1, 3) },
            Message::Ping,
            Message::Pong,
        ];
        for m in messages {
            let frame = encode(&m);
            let back = decode(&frame).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            assert_eq!(back, m);
            assert_eq!(frame.len() as u64, encoded_len(&m), "size model must be exact for {m:?}");
        }
    }

    #[test]
    fn roundtrip_minimal_scope() {
        let m = Message::Query {
            transaction: TransactionId(7),
            query: String::new(),
            language: QueryLanguage::KeyLookup,
            scope: Scope { radius: None, max_results: None, ..Scope::default() },
            response_mode: ResponseMode::Routed,
        };
        let frame = encode(&m);
        assert_eq!(decode(&frame).unwrap(), m);
        assert_eq!(frame.len() as u64, encoded_len(&m));
    }

    #[test]
    fn truncation_detected() {
        let frame = encode(&sample_query());
        for cut in 0..frame.len() {
            let r = decode(&frame[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn bad_kind_rejected() {
        assert_eq!(decode(&[0xFF]), Err(WireError::BadKind(0xFF)));
        assert_eq!(decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn bad_discriminants_rejected() {
        let mut frame = encode(&sample_query()).to_vec();
        // Corrupt the language byte (directly after kind + txn + 4-byte len + query text).
        let lang_offset = 1 + 16 + 4 + "//service[owner = \"cms.cern.ch\"]".len();
        frame[lang_offset] = 9;
        assert!(matches!(decode(&frame), Err(WireError::BadDiscriminant("query language", 9))));
    }

    #[test]
    fn bad_utf8_rejected() {
        let m = Message::Close { transaction: TransactionId(1) };
        let mut frame = encode(&m).to_vec();
        // Build an invite with invalid UTF-8 in the node string.
        frame.clear();
        frame.push(3); // KIND_INVITE
        frame.extend_from_slice(&1u128.to_be_bytes());
        frame.extend_from_slice(&2u32.to_be_bytes());
        frame.extend_from_slice(&[0xFF, 0xFE]);
        frame.extend_from_slice(&0u64.to_be_bytes());
        assert_eq!(decode(&frame), Err(WireError::BadUtf8));
    }

    #[test]
    fn length_overflow_rejected() {
        let mut frame = Vec::new();
        frame.push(4); // KIND_CLOSE needs txn; craft an invite instead
        frame.clear();
        frame.push(3); // KIND_INVITE
        frame.extend_from_slice(&1u128.to_be_bytes());
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode(&frame), Err(WireError::LengthOverflow(u32::MAX as u64)));
    }
}
