//! Property tests: any generated tree serializes compactly and parses back
//! to the identical tree; escaping is total for arbitrary strings.

use proptest::prelude::*;
use wsda_xml::{parse_fragment, Attribute, Element, XmlNode};

/// Generate valid XML names (optionally prefixed).
fn arb_name() -> impl Strategy<Value = String> {
    let part = "[a-zA-Z_][a-zA-Z0-9_.-]{0,8}";
    prop_oneof![
        3 => part.prop_map(|s| s),
        1 => (part, part).prop_map(|(p, l)| format!("{p}:{l}")),
    ]
}

/// Text content with tricky characters (quotes, entities, unicode).
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~äöü✓€\\n\\t]{0,20}").unwrap()
}

fn arb_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (arb_name(), proptest::collection::vec((arb_name(), arb_text()), 0..3), arb_text())
        .prop_map(|(name, attrs, text)| {
            let mut e = Element::new(name);
            for (an, av) in attrs {
                // set_attr de-duplicates names, keeping the tree well-formed.
                e.set_attr(an, av);
            }
            if !text.is_empty() {
                e.push(XmlNode::Text(text.into()));
            }
            e
        });
    if depth == 0 {
        return leaf.boxed();
    }
    (leaf, proptest::collection::vec(arb_element(depth - 1), 0..3))
        .prop_map(|(mut e, children)| {
            for c in children {
                e.push(c);
            }
            e
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_roundtrip_is_identity(e in arb_element(3)) {
        let s = e.to_compact_string();
        let back = parse_fragment(&s).expect("serialized tree must reparse");
        // Adjacent text nodes may merge on reparse; compare canonical forms.
        prop_assert_eq!(back.to_compact_string(), s);
        prop_assert_eq!(back.text(), e.text());
        prop_assert_eq!(back.subtree_size(), e.subtree_size());
    }

    #[test]
    fn pretty_roundtrip_preserves_elements(e in arb_element(3)) {
        let s = e.to_pretty_string();
        let back = parse_fragment(&s).expect("pretty tree must reparse");
        prop_assert_eq!(back.subtree_size(), e.subtree_size());
    }

    #[test]
    fn escape_text_roundtrips(t in arb_text()) {
        let e = Element::new("x").with_text(t.clone());
        let back = parse_fragment(&e.to_compact_string()).unwrap();
        prop_assert_eq!(back.text(), t);
    }

    #[test]
    fn escape_attr_roundtrips(t in arb_text()) {
        let e = Element::new("x").with_attr("a", t.clone());
        let back = parse_fragment(&e.to_compact_string()).unwrap();
        prop_assert_eq!(back.attr("a").unwrap(), t);
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,64}") {
        let _ = parse_fragment(&s); // must return Err, not panic
    }

    #[test]
    fn attributes_preserved(attrs in proptest::collection::vec((arb_name(), arb_text()), 0..5)) {
        let mut e = Element::new("x");
        for (n, v) in &attrs {
            e.set_attr(n.clone(), v.clone());
        }
        let back = parse_fragment(&e.to_compact_string()).unwrap();
        for a in e.attributes() {
            prop_assert_eq!(back.attr(&a.name), Some(a.value.as_str()));
        }
        prop_assert_eq!(back.attributes().len(), e.attributes().len());
    }
}

#[test]
fn attribute_struct_is_plain_data() {
    let a = Attribute::new("k", "v");
    assert_eq!(a.name, "k");
    assert_eq!(a.value, "v");
}
