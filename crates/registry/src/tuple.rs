//! The registry tuple: `(content link, type, context, timestamps, TTL,
//! cached content)`.
//!
//! Dissertation section 4.2: a *content provider* publishes a **content
//! link** — an identifier and retrieval mechanism (an HTTP URL in the
//! original) — together with metadata. The registry may hold a **content
//! cache** for the link. Each tuple carries soft-state timestamps:
//!
//! * `TS1` — when the tuple was first inserted,
//! * `TS2` — when it was last refreshed (re-published),
//! * `TC`  — when the cached content was last obtained,
//! * `TTL` — how long past `TS2` the tuple stays alive without refresh.
//!
//! The cached content lives in one place: the tuple's rendered document,
//! the tree every query navigates. The document is built when the tuple
//! is created and every mutator updates it in place, so handing it to a
//! query is an `Arc` clone. A mutator copies the document only while a
//! reader still holds the previous version, and that reader keeps a
//! consistent snapshot. The document's vectors are built at exact size:
//! the wrapper's attribute list, `<tuple>`'s one child and `<content>`'s
//! child list hold no spare capacity.

use crate::baseline::ServiceRecord;
use crate::clock::Time;
use std::io::Write;
use std::sync::{Arc, OnceLock};
use wsda_xml::{Attribute, Element, SmallStr, XmlNode};

/// The primary key of a tuple: its content link.
pub type TupleKey = String;

/// One registry tuple.
///
/// The metadata fields are public for reading. The rendered document
/// mirrors them, so every write goes through a method ([`Tuple::refresh`],
/// [`Tuple::set_type`], [`Tuple::set_context`], [`Tuple::set_content`],
/// [`Tuple::clear_content`]).
#[derive(Debug, Clone)]
pub struct Tuple {
    /// The content link (primary key) — an HTTP URL in the original system.
    pub link: String,
    /// The tuple type, e.g. `service` for service descriptions; free-form
    /// for other content (`monitor`, `replica`, …).
    pub type_: String,
    /// The context/scope attribute (e.g. owning domain) used for scoping.
    pub context: String,
    /// First insertion time (TS1).
    pub inserted: Time,
    /// Last refresh time (TS2).
    pub refreshed: Time,
    /// When the cached content was obtained (TC); `None` while no content
    /// is cached.
    pub content_cached: Option<Time>,
    /// Time-to-live past `refreshed`, in milliseconds.
    pub ttl_ms: u64,
    /// Stable ordinal assigned at first insertion — doubles as the XQuery
    /// document ordinal so query results order deterministically.
    pub ordinal: u64,
    /// The rendered document queries navigate (see [`Tuple::to_xml`]),
    /// holding the only copy of the cached content.
    doc: Arc<Element>,
    /// Cached flat record derived from the document (the SQL baseline's
    /// row shape). Interior-mutable so it builds through a shared borrow;
    /// every mutator replaces the cell.
    record: OnceLock<Arc<ServiceRecord>>,
}

impl Tuple {
    /// Create a fresh tuple (no cached content).
    pub fn new(
        link: impl Into<String>,
        type_: impl Into<String>,
        context: impl Into<String>,
        now: Time,
        ttl_ms: u64,
        ordinal: u64,
    ) -> Tuple {
        let (link, type_, context) = (link.into(), type_.into(), context.into());
        let doc = wrapper(&link, &type_, &context, now, now, ttl_ms, None)
            .with_child(Element::new("content"));
        Tuple {
            link,
            type_,
            context,
            inserted: now,
            refreshed: now,
            content_cached: None,
            ttl_ms,
            ordinal,
            doc: Arc::new(doc),
            record: OnceLock::new(),
        }
    }

    /// The absolute expiry time (`refreshed + ttl`).
    pub fn expires(&self) -> Time {
        self.refreshed.plus(self.ttl_ms)
    }

    /// Is the tuple expired at `now`? (Soft state: expiry is exclusive —
    /// a tuple expiring *at* `now` is already gone.)
    pub fn is_expired(&self, now: Time) -> bool {
        now >= self.expires()
    }

    /// Age of the cached content at `now`; `None` when nothing is cached.
    pub fn content_age(&self, now: Time) -> Option<u64> {
        self.content_cached.map(|tc| now.since(tc))
    }

    /// The cached content, if any (`None` while content has never been
    /// pulled or pushed, or after [`Tuple::clear_content`]).
    pub fn content(&self) -> Option<&Element> {
        self.doc.child_elements().next()?.child_elements().next()
    }

    /// Record a refresh (re-publication) at `now` with a possibly new TTL.
    pub fn refresh(&mut self, now: Time, ttl_ms: u64) {
        self.refreshed = now;
        self.ttl_ms = ttl_ms;
        let doc = self.doc_mut();
        doc.set_attr("ts2", decimal(now.millis()));
        doc.set_attr("ttl", decimal(ttl_ms));
    }

    /// Change the tuple type (a re-publication may retag the tuple).
    pub fn set_type(&mut self, type_: &str) {
        self.type_ = type_.to_owned();
        self.doc_mut().set_attr("type", type_);
    }

    /// Change the context attribute (a re-publication may move the tuple).
    pub fn set_context(&mut self, context: &str) {
        self.context = context.to_owned();
        self.doc_mut().set_attr("ctx", context);
    }

    /// Install new content obtained at `now`, replacing any cached
    /// content. The tuple keeps its own copy: cloning once lays the tree
    /// out contiguously and drops the spare capacity it was built with.
    pub fn set_content(&mut self, content: &Element, now: Time) {
        self.content_cached = Some(now);
        let doc = self.doc_mut();
        set_tc(doc, Some(now));
        *content_slot_mut(doc).children_mut() = vec![XmlNode::Element(content.clone())];
    }

    /// Drop cached content (e.g. after repeated pull failures).
    pub fn clear_content(&mut self) {
        self.content_cached = None;
        let doc = self.doc_mut();
        set_tc(doc, None);
        *content_slot_mut(doc).children_mut() = Vec::new();
    }

    /// The tuple as the XML document queries navigate:
    ///
    /// ```xml
    /// <tuple link="…" type="…" ctx="…" ts1="…" ts2="…" ttl="…" tc="…">
    ///   <content>…provider content…</content>
    /// </tuple>
    /// ```
    ///
    /// `tc` is present only while content is cached. The document is kept
    /// current by every mutator, so this is an `Arc` clone.
    pub fn to_xml(&self) -> Arc<Element> {
        self.doc.clone()
    }

    /// The flat [`ServiceRecord`] view of this tuple (cached until the
    /// next mutation). The SQL baseline queries rows of this shape, so
    /// repeated queries stop re-flattening every tuple.
    pub fn to_record(&self) -> Arc<ServiceRecord> {
        self.record.get_or_init(|| Arc::new(ServiceRecord::from_tuple_xml(self.to_xml()))).clone()
    }

    /// Whether the document's attributes mirror the metadata fields (a
    /// debug-build consistency check for the store). It allocates
    /// nothing, so debug and release builds make the same allocations.
    #[cfg(debug_assertions)]
    pub(crate) fn doc_is_current(&self) -> bool {
        let stamps = [self.inserted.millis(), self.refreshed.millis(), self.ttl_ms].map(decimal);
        let tc = self.content_cached.map(|tc| decimal(tc.millis()));
        let expected = [
            ("link", self.link.as_str()),
            ("type", &self.type_),
            ("ctx", &self.context),
            ("ts1", &stamps[0]),
            ("ts2", &stamps[1]),
            ("ttl", &stamps[2]),
        ]
        .into_iter()
        .chain(tc.as_deref().map(|tc| ("tc", tc)));
        let attributes = self.doc.attributes();
        attributes.len() == 6 + usize::from(tc.is_some())
            && attributes
                .iter()
                .zip(expected)
                .all(|(a, (name, value))| a.name == name && a.value == value)
            && self.content().is_some() == self.content_cached.is_some()
    }

    /// The document for an in-place update. Drops the cached record
    /// first (it holds the document too), so the document is copied only
    /// while a reader still holds the previous version.
    fn doc_mut(&mut self) -> &mut Element {
        self.record = OnceLock::new();
        Arc::make_mut(&mut self.doc)
    }
}

/// The `<tuple>` element for the given metadata, attributes in document
/// order and room for exactly its one child, `<content>`.
fn wrapper(
    link: &str,
    type_: &str,
    context: &str,
    inserted: Time,
    refreshed: Time,
    ttl_ms: u64,
    content_cached: Option<Time>,
) -> Element {
    let attributes = 6 + usize::from(content_cached.is_some());
    let mut e = Element::with_capacity("tuple", attributes, 1)
        .with_attr("link", link)
        .with_attr("type", type_)
        .with_attr("ctx", context)
        .with_attr("ts1", decimal(inserted.millis()))
        .with_attr("ts2", decimal(refreshed.millis()))
        .with_attr("ttl", decimal(ttl_ms));
    if let Some(tc) = content_cached {
        e.set_attr("tc", decimal(tc.millis()));
    }
    e
}

/// `n` in decimal, formatted on the stack: a `u64` has at most 20 digits,
/// which fit in [`SmallStr`]'s inline bytes, so a timestamp costs no heap
/// block.
fn decimal(n: u64) -> SmallStr {
    let mut digits = [0u8; 20];
    let mut rest = &mut digits[..];
    write!(rest, "{n}").expect("a u64 has at most 20 digits");
    let len = 20 - rest.len();
    SmallStr::from(std::str::from_utf8(&digits[..len]).expect("decimal digits are ASCII"))
}

/// Set or remove `tc`, the wrapper's last attribute, keeping the
/// attribute list at exact size: an added `tc` grows it by one slot, and
/// a removed one (rare: repeated pull failures) shrinks it by one.
fn set_tc(doc: &mut Element, tc: Option<Time>) {
    let attributes = doc.attributes_mut();
    if attributes.last().is_some_and(|a| a.name == "tc") {
        attributes.pop();
    }
    match tc {
        Some(tc) => {
            attributes.reserve_exact(1);
            attributes.push(Attribute::new("tc", decimal(tc.millis())));
        }
        None => attributes.shrink_to_fit(),
    }
}

/// The `<content>` element: a tuple document's only child.
fn content_slot_mut(doc: &mut Element) -> &mut Element {
    match doc.children_mut().first_mut() {
        Some(XmlNode::Element(content)) => content,
        _ => unreachable!("tuple document holds <content>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsda_xml::parse_fragment;

    fn tuple() -> Tuple {
        Tuple::new("http://x/svc", "service", "cern.ch", Time(100), 1000, 7)
    }

    #[test]
    fn expiry_math() {
        let t = tuple();
        assert_eq!(t.expires(), Time(1100));
        assert!(!t.is_expired(Time(1099)));
        assert!(t.is_expired(Time(1100)));
        assert!(t.is_expired(Time(5000)));
    }

    #[test]
    fn refresh_extends_lease() {
        let mut t = tuple();
        t.refresh(Time(900), 2000);
        assert_eq!(t.expires(), Time(2900));
        assert_eq!(t.inserted, Time(100), "TS1 unchanged by refresh");
    }

    #[test]
    fn content_age() {
        let mut t = tuple();
        assert_eq!(t.content_age(Time(500)), None);
        t.set_content(&parse_fragment("<x/>").unwrap(), Time(200));
        assert_eq!(t.content_age(Time(500)), Some(300));
        t.clear_content();
        assert_eq!(t.content_age(Time(500)), None);
    }

    #[test]
    fn xml_rendering() {
        let mut t = tuple();
        t.set_content(&parse_fragment("<service><owner>cms</owner></service>").unwrap(), Time(150));
        let xml = t.to_xml();
        assert_eq!(xml.attr("link"), Some("http://x/svc"));
        assert_eq!(xml.attr("type"), Some("service"));
        assert_eq!(xml.attr("ctx"), Some("cern.ch"));
        assert_eq!(xml.attr("ts1"), Some("100"));
        assert_eq!(xml.attr("tc"), Some("150"));
        assert_eq!(xml.attr("ttl"), Some("1000"));
        let svc = xml.first_child_named("content").unwrap().first_child_named("service").unwrap();
        assert_eq!(svc.text(), "cms");
    }

    #[test]
    fn rendering_is_cached_and_invalidated() {
        let mut t = tuple();
        let a = t.to_xml();
        let b = t.to_xml();
        assert!(Arc::ptr_eq(&a, &b));
        t.refresh(Time(500), 1000);
        let c = t.to_xml();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.attr("ts2"), Some("500"));
    }

    #[test]
    fn empty_content_renders_empty_element() {
        let t = tuple();
        let xml = t.to_xml();
        assert!(xml.first_child_named("content").unwrap().children().is_empty());
        assert_eq!(xml.attr("tc"), None);
    }

    #[test]
    fn document_vectors_have_no_spare_capacity() {
        fn assert_exact(t: &mut Tuple, attributes: usize, content: usize) {
            let doc = Arc::get_mut(&mut t.doc).expect("no reader holds the document");
            let attrs = doc.attributes_mut();
            assert_eq!((attrs.len(), attrs.capacity()), (attributes, attributes));
            assert_eq!(doc.children_mut().capacity(), 1);
            let slot = content_slot_mut(doc).children_mut();
            assert_eq!((slot.len(), slot.capacity()), (content, content));
        }
        let mut t = tuple();
        assert_exact(&mut t, 6, 0);
        t.set_content(&parse_fragment("<x/>").unwrap(), Time(200));
        assert_exact(&mut t, 7, 1);
        t.set_content(&parse_fragment("<y/>").unwrap(), Time(300));
        t.refresh(Time(400), 1000);
        assert_exact(&mut t, 7, 1);
        t.clear_content();
        assert_exact(&mut t, 6, 0);
    }

    #[test]
    fn timestamps_render_in_decimal() {
        for n in [0, 7, 10, 1_234_567, u64::MAX / 8, u64::MAX] {
            assert_eq!(decimal(n), n.to_string().as_str());
        }
        let mut t = Tuple::new("http://x/svc", "service", "cern.ch", Time(0), u64::MAX, 7);
        t.refresh(Time(u64::MAX / 4), u64::MAX / 8);
        assert_eq!(t.to_xml().attr("ts2"), Some((u64::MAX / 4).to_string().as_str()));
        assert_eq!(t.to_xml().attr("ttl"), Some((u64::MAX / 8).to_string().as_str()));
    }

    #[test]
    fn unshared_document_updates_in_place() {
        let mut t = tuple();
        let before = Arc::as_ptr(&t.to_xml());
        t.refresh(Time(500), 2000);
        t.set_content(&parse_fragment("<x/>").unwrap(), Time(600));
        t.set_type("monitor");
        t.set_context("fnal.gov");
        t.clear_content();
        assert_eq!(Arc::as_ptr(&t.to_xml()), before, "no reader held it, so no copy");
    }
}
