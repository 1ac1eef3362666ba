//! Property tests for the PDP wire codec: encode∘decode is the identity,
//! the size model is exact, the decoder is total on arbitrary bytes, and a
//! lossless `Results` frame keeps its exact encoding.

use proptest::prelude::*;
use wsda_pdp::{
    decode, encode, encoded_len, Message, QueryLanguage, ResponseMode, Scope, TransactionId,
};

fn arb_scope() -> impl Strategy<Value = Scope> {
    (
        proptest::option::of(0u32..100),
        0u64..1_000_000,
        0u64..1_000_000,
        proptest::option::of(0u64..10_000),
        "[a-z:0-9]{0,12}",
        any::<bool>(),
        0u64..1_000_000,
    )
        .prop_map(|(radius, abort, loop_t, max, policy, pipeline, staleness)| Scope {
            radius,
            abort_timeout_ms: abort,
            loop_timeout_ms: loop_t,
            max_results: max,
            neighbor_policy: policy,
            pipeline,
            result_staleness_ms: staleness,
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    let txn = any::<u128>().prop_map(TransactionId);
    let lang = prop_oneof![
        Just(QueryLanguage::XQuery),
        Just(QueryLanguage::Sql),
        Just(QueryLanguage::KeyLookup)
    ];
    let mode = prop_oneof![
        Just(ResponseMode::Routed),
        "[a-z0-9]{1,8}".prop_map(|o| ResponseMode::Direct { originator: o }),
        Just(ResponseMode::Referral),
    ];
    prop_oneof![
        (txn.clone(), "\\PC{0,64}", lang, arb_scope(), mode).prop_map(
            |(transaction, query, language, scope, response_mode)| Message::Query {
                transaction,
                query,
                language,
                scope,
                response_mode
            }
        ),
        (
            txn.clone(),
            any::<u64>(),
            proptest::collection::vec("\\PC{0,32}", 0..8),
            any::<bool>(),
            "[a-z0-9]{1,8}",
            any::<bool>()
        )
            .prop_map(|(transaction, seq, items, last, origin, cached)| Message::Results {
                transaction,
                seq,
                items,
                last,
                origin,
                cached
            }),
        (txn.clone(), any::<u64>())
            .prop_map(|(transaction, seq)| Message::Ack { transaction, seq }),
        (txn.clone(), any::<u64>(), proptest::collection::vec("\\PC{0,32}", 0..8), any::<u64>())
            .prop_map(|(transaction, seq, items, lost)| Message::Partial {
                transaction,
                seq,
                items,
                lost
            }),
        (txn.clone(), "[a-z0-9]{1,8}", any::<u64>()).prop_map(|(transaction, node, expected)| {
            Message::Invite { transaction, node, expected }
        }),
        txn.prop_map(|transaction| Message::Close { transaction }),
        Just(Message::Ping),
        Just(Message::Pong),
    ]
}

#[test]
fn results_frames_keep_their_encoding() {
    // Wire figures, golden byte counts and external encoders depend on it.
    let m = Message::Results {
        transaction: TransactionId(0x0102),
        seq: 5,
        items: vec!["<a/>".into()],
        last: true,
        origin: "n7".into(),
        cached: false,
    };
    let want: &[u8] = &[
        2, // kind
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, // transaction
        0, 0, 0, 0, 0, 0, 0, 5, // seq
        0, 0, 0, 1, 0, 0, 0, 4, b'<', b'a', b'/', b'>', // one four-byte item
        1,    // last
        0, 0, 0, 2, b'n', b'7', // origin
        0,    // cached
    ];
    assert_eq!(&encode(&m)[..], want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roundtrip(m in arb_message()) {
        let frame = encode(&m);
        prop_assert_eq!(decode(&frame).unwrap(), m.clone());
        prop_assert_eq!(frame.len() as u64, encoded_len(&m));
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    #[test]
    fn every_truncation_errors(m in arb_message(), frac in 0.0f64..1.0) {
        let frame = encode(&m);
        if frame.len() > 1 {
            let cut = 1 + ((frame.len() - 1) as f64 * frac) as usize;
            if cut < frame.len() {
                // A strict prefix never decodes to a *different* valid message
                // of the same kind with trailing data unaccounted: our codec
                // consumes exactly what it declares, so prefixes must error.
                prop_assert!(decode(&frame[..cut]).is_err());
            }
        }
    }
}
