//! The XQuery data model subset: items, sequences and node references.
//!
//! A [`NodeRef`] identifies a node *structurally*: the `Arc` of the document
//! root plus the child-index path down to the node. Navigation therefore
//! never clones subtrees, references stay `Send + Sync` (registry tuples are
//! scanned in parallel with rayon), and document order is the lexicographic
//! order of `(doc_ord, path)`.
//!
//! Paths are stored inline up to seven steps, which covers every tuple
//! document the registry renders, so cloning and navigating a reference
//! touches no allocator; deeper nodes spill to the heap.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;
use wsda_xml::{Element, XmlNode};

/// A sequence of items — the universal XQuery value.
pub type Sequence = Vec<Item>;

/// Which node a [`NodeRef`] designates within its element tree.
///
/// At equal paths, document order puts a document node before its root
/// element, an element before its attributes (ordered by name), and
/// attributes before child text nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The (virtual) document node above the root element. Only valid with
    /// an empty index path.
    Document,
    /// The element reached by the index path.
    Element,
    /// The attribute at this index in that element's attribute list.
    Attribute(u32),
    /// The text/CDATA child at the given child index of that element.
    Text(u32),
}

impl NodeKind {
    fn rank(self) -> u8 {
        match self {
            NodeKind::Document => 0,
            NodeKind::Element => 1,
            NodeKind::Attribute(_) => 2,
            NodeKind::Text(_) => 3,
        }
    }
}

/// Path steps kept inline; deeper paths spill to the heap. Seven fills the
/// space a `Vec` would take anyway.
const INLINE_DEPTH: usize = 7;

/// Child indices (into [`Element::children`]) from the root element down to
/// the designated element.
#[derive(Clone)]
enum NodePath {
    Inline { len: u8, steps: [u32; INLINE_DEPTH] },
    Spilled(Vec<u32>),
}

impl NodePath {
    const ROOT: NodePath = NodePath::Inline { len: 0, steps: [0; INLINE_DEPTH] };

    fn as_slice(&self) -> &[u32] {
        match self {
            NodePath::Inline { len, steps } => &steps[..*len as usize],
            NodePath::Spilled(steps) => steps,
        }
    }

    fn push(&mut self, step: u32) {
        match self {
            NodePath::Inline { len, steps } if (*len as usize) < INLINE_DEPTH => {
                steps[*len as usize] = step;
                *len += 1;
            }
            NodePath::Inline { steps, .. } => {
                let mut spilled = steps.to_vec();
                spilled.push(step);
                *self = NodePath::Spilled(spilled);
            }
            NodePath::Spilled(steps) => steps.push(step),
        }
    }

    fn pop(&mut self) {
        match self {
            NodePath::Inline { len, .. } => *len = len.saturating_sub(1),
            NodePath::Spilled(steps) => {
                steps.pop();
                if steps.len() <= INLINE_DEPTH {
                    let mut inline = NodePath::ROOT;
                    for &step in steps.iter() {
                        inline.push(step);
                    }
                    *self = inline;
                }
            }
        }
    }
}

/// A child or attribute position as stored in a path or node kind.
fn child_index(i: usize) -> u32 {
    u32::try_from(i).expect("an element holds fewer than 2^32 children and attributes")
}

/// A cheap structural reference to a node in an `Arc`-shared document.
#[derive(Clone)]
pub struct NodeRef {
    root: Arc<Element>,
    /// Stable document identity for cross-document ordering. Assigned by
    /// whoever creates root references (the registry uses the tuple index).
    doc_ord: u64,
    path: NodePath,
    kind: NodeKind,
}

impl NodeRef {
    /// A reference to the root element of `root` (a parentless element, as
    /// produced by constructors).
    pub fn root(root: Arc<Element>, doc_ord: u64) -> NodeRef {
        NodeRef { root, doc_ord, path: NodePath::ROOT, kind: NodeKind::Element }
    }

    /// A reference to the virtual document node above the root element of
    /// `root`. Query context roots are document nodes so that `/a` and
    /// `//a` behave as in XPath (the document's child is the root element).
    pub fn document_node(root: Arc<Element>, doc_ord: u64) -> NodeRef {
        NodeRef { root, doc_ord, path: NodePath::ROOT, kind: NodeKind::Document }
    }

    /// The document this node belongs to.
    pub fn document(&self) -> &Arc<Element> {
        &self.root
    }

    /// The document ordinal used for cross-document ordering.
    pub fn doc_ord(&self) -> u64 {
        self.doc_ord
    }

    /// What kind of node this reference designates.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// Walk the index path to the designated **element** (for attribute and
    /// text references this is the owning element).
    pub fn element(&self) -> &Element {
        let mut cur: &Element = &self.root;
        for &idx in self.path.as_slice() {
            cur = cur.children()[idx as usize]
                .as_element()
                .expect("NodeRef path must stay valid for its Arc'd document");
        }
        cur
    }

    /// Is this a reference to an element (not attribute/text)?
    pub fn is_element(&self) -> bool {
        matches!(self.kind, NodeKind::Element)
    }

    /// Another node of the same document, owned by the element at `path`.
    fn at(&self, path: NodePath, kind: NodeKind) -> NodeRef {
        NodeRef { root: self.root.clone(), doc_ord: self.doc_ord, path, kind }
    }

    /// The child element at child index `idx` of the designated element.
    fn child(&self, idx: usize) -> NodeRef {
        let mut path = self.path.clone();
        path.push(child_index(idx));
        self.at(path, NodeKind::Element)
    }

    /// Emit references to the child elements that pass `test`, in document
    /// order; the test sees each child before any reference is made. For a
    /// document node the only child is the root element; attribute and text
    /// references have none.
    pub(crate) fn emit_child_elements(
        &self,
        mut test: impl FnMut(&Element) -> bool,
        mut emit: impl FnMut(NodeRef),
    ) {
        match self.kind {
            NodeKind::Document if test(&self.root) => {
                emit(self.at(NodePath::ROOT, NodeKind::Element));
            }
            NodeKind::Element => {
                for (i, child) in self.element().children().iter().enumerate() {
                    if let XmlNode::Element(e) = child {
                        if test(e) {
                            emit(self.child(i));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Emit references to the text/CDATA children, in document order.
    pub(crate) fn emit_text_children(&self, mut emit: impl FnMut(NodeRef)) {
        if !self.is_element() {
            return;
        }
        for (i, child) in self.element().children().iter().enumerate() {
            if matches!(child, XmlNode::Text(_) | XmlNode::CData(_)) {
                emit(self.at(self.path.clone(), NodeKind::Text(child_index(i))));
            }
        }
    }

    /// Emit references to the attributes whose names pass `test`, in
    /// attribute order.
    pub(crate) fn emit_attributes(
        &self,
        mut test: impl FnMut(&str) -> bool,
        mut emit: impl FnMut(NodeRef),
    ) {
        if !self.is_element() {
            return;
        }
        for (i, a) in self.element().attributes().iter().enumerate() {
            if test(&a.name) {
                emit(self.at(self.path.clone(), NodeKind::Attribute(child_index(i))));
            }
        }
    }

    /// Call `visit` on every descendant element (excluding self) in
    /// document order, with the element it designates. One reference is
    /// reused as a cursor, so the walk itself never allocates; `visit`
    /// clones the reference for the nodes it keeps. For a document node the
    /// walk starts at the root element.
    pub(crate) fn try_for_each_descendant<E>(
        &self,
        mut visit: impl FnMut(&NodeRef, &Element) -> Result<(), E>,
    ) -> Result<(), E> {
        fn walk<E>(
            parent: &Element,
            cursor: &mut NodeRef,
            visit: &mut impl FnMut(&NodeRef, &Element) -> Result<(), E>,
        ) -> Result<(), E> {
            for (i, child) in parent.children().iter().enumerate() {
                if let XmlNode::Element(e) = child {
                    cursor.path.push(child_index(i));
                    let walked = visit(cursor, e).and_then(|()| walk(e, cursor, visit));
                    cursor.path.pop();
                    walked?;
                }
            }
            Ok(())
        }
        let mut cursor = self.at(self.path.clone(), NodeKind::Element);
        match self.kind {
            NodeKind::Document => {
                visit(&cursor, &self.root)?;
                walk(&self.root, &mut cursor, &mut visit)
            }
            NodeKind::Element => walk(self.element(), &mut cursor, &mut visit),
            _ => Ok(()),
        }
    }

    /// Child element references in document order. For a document node this
    /// is the root element; empty for attribute/text references.
    pub fn child_elements(&self) -> Vec<NodeRef> {
        let mut out = Vec::new();
        self.emit_child_elements(|_| true, |n| out.push(n));
        out
    }

    /// All descendant elements (excluding self) in document order.
    pub fn descendant_elements(&self) -> Vec<NodeRef> {
        let mut out = Vec::new();
        let _: Result<(), Infallible> = self.try_for_each_descendant(|n, _| {
            out.push(n.clone());
            Ok(())
        });
        out
    }

    /// A reference to the named attribute, if present.
    pub fn attribute(&self, name: &str) -> Option<NodeRef> {
        if !self.is_element() {
            return None;
        }
        let idx = self.element().attributes().iter().position(|a| a.name == name)?;
        Some(self.at(self.path.clone(), NodeKind::Attribute(child_index(idx))))
    }

    /// References to all attributes in document order.
    pub fn attributes(&self) -> Vec<NodeRef> {
        let mut out = Vec::new();
        self.emit_attributes(|_| true, |n| out.push(n));
        out
    }

    /// References to the text/CDATA children, in document order.
    pub fn text_children(&self) -> Vec<NodeRef> {
        let mut out = Vec::new();
        self.emit_text_children(|n| out.push(n));
        out
    }

    /// The parent node reference (`..`); the root element's parent is the
    /// document node, which itself has no parent.
    pub fn parent(&self) -> Option<NodeRef> {
        match self.kind {
            NodeKind::Document => None,
            NodeKind::Element if self.path.as_slice().is_empty() => {
                Some(self.at(NodePath::ROOT, NodeKind::Document))
            }
            NodeKind::Element => {
                let mut path = self.path.clone();
                path.pop();
                Some(self.at(path, NodeKind::Element))
            }
            // Attribute and text nodes are owned by the element at `path`.
            _ => Some(self.at(self.path.clone(), NodeKind::Element)),
        }
    }

    /// The node's name, borrowed from the document: element name, attribute
    /// name, or `""` for text and document nodes.
    pub(crate) fn name_str(&self) -> &str {
        match self.kind {
            NodeKind::Element => self.element().name(),
            NodeKind::Attribute(i) => &self.element().attributes()[i as usize].name,
            NodeKind::Text(_) | NodeKind::Document => "",
        }
    }

    /// The node's name: element name, attribute name, or `""` for text and
    /// document nodes.
    pub fn name(&self) -> String {
        self.name_str().to_owned()
    }

    /// The XPath string value of the node, borrowed from the document when
    /// it is a single run of text (an attribute, a text node, or an element
    /// such as `<owner>cms.cern.ch</owner>`).
    pub(crate) fn str_value(&self) -> Cow<'_, str> {
        match self.kind {
            NodeKind::Element | NodeKind::Document => element_text(self.element()),
            NodeKind::Attribute(i) => Cow::Borrowed(&self.element().attributes()[i as usize].value),
            NodeKind::Text(i) => {
                Cow::Borrowed(self.element().children()[i as usize].as_text().unwrap_or_default())
            }
        }
    }

    /// The XPath string value of the node.
    pub fn string_value(&self) -> String {
        self.str_value().into_owned()
    }

    /// Document order: by document ordinal, then path, then node kind, with
    /// attributes of one element ordered by name. Two references compare
    /// `Equal` exactly when they designate the same node.
    pub(crate) fn cmp_document_order(&self, other: &NodeRef) -> Ordering {
        self.doc_ord
            .cmp(&other.doc_ord)
            .then_with(|| self.path.as_slice().cmp(other.path.as_slice()))
            .then_with(|| match (self.kind, other.kind) {
                (NodeKind::Attribute(_), NodeKind::Attribute(_)) => {
                    self.name_str().cmp(other.name_str())
                }
                (NodeKind::Text(a), NodeKind::Text(b)) => a.cmp(&b),
                (a, b) => a.rank().cmp(&b.rank()),
            })
    }

    /// Deep-copy the referenced node as a standalone element (used when a
    /// constructor embeds an existing node in a new tree). Attribute and
    /// text references are wrapped per XQuery atomization-into-content
    /// rules by the caller.
    pub fn materialize_element(&self) -> Option<Element> {
        match self.kind {
            NodeKind::Element => Some(self.element().clone()),
            _ => None,
        }
    }
}

/// The string value of an element: borrowed when its subtree holds at most
/// one non-empty run of text, concatenated otherwise.
fn element_text(element: &Element) -> Cow<'_, str> {
    /// `false` once a second run turns up.
    fn single_run<'a>(e: &'a Element, run: &mut Option<&'a str>) -> bool {
        e.children().iter().all(|child| match child {
            XmlNode::Text(t) | XmlNode::CData(t) => t.is_empty() || run.replace(t).is_none(),
            XmlNode::Element(c) => single_run(c, run),
            _ => true,
        })
    }
    let mut run = None;
    if single_run(element, &mut run) {
        Cow::Borrowed(run.unwrap_or_default())
    } else {
        Cow::Owned(element.text())
    }
}

impl fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeRef(doc {}, path {:?}, {:?})", self.doc_ord, self.path.as_slice(), self.kind)
    }
}

impl PartialEq for NodeRef {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
            && self.path.as_slice() == other.path.as_slice()
            && self.kind == other.kind
    }
}

/// One XQuery item: a node or an atomic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A node in some document.
    Node(NodeRef),
    /// A boolean.
    Bool(bool),
    /// A double-precision number (the engine's single numeric type;
    /// integers are represented exactly up to 2^53 as in the thesis
    /// prototype's untyped data).
    Number(f64),
    /// A string.
    Str(String),
}

impl Item {
    /// Construct a string item.
    pub fn str(s: impl Into<String>) -> Item {
        Item::Str(s.into())
    }

    /// The XPath string value of the item, borrowed where the item or its
    /// document already holds it.
    pub(crate) fn str_value(&self) -> Cow<'_, str> {
        match self {
            Item::Node(n) => n.str_value(),
            Item::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Item::Number(n) => Cow::Owned(format_number(*n)),
            Item::Str(s) => Cow::Borrowed(s),
        }
    }

    /// The XPath string value of the item.
    pub fn string_value(&self) -> String {
        self.str_value().into_owned()
    }

    /// Numeric value following XPath `number()` semantics (`NaN` on failure).
    pub fn number_value(&self) -> f64 {
        match self {
            Item::Number(n) => *n,
            Item::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Item::Node(_) | Item::Str(_) => {
                self.str_value().trim().parse::<f64>().unwrap_or(f64::NAN)
            }
        }
    }

    /// The item as a query result on the wire: an element node as compact
    /// XML written straight from the referenced element, anything else as
    /// its string value.
    pub fn serialize(&self) -> String {
        match self {
            Item::Node(n) if n.is_element() => n.element().to_compact_string(),
            other => other.string_value(),
        }
    }

    /// True if this is a node item.
    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node(_))
    }

    /// Borrow the node reference if this is a node item.
    pub fn as_node(&self) -> Option<&NodeRef> {
        match self {
            Item::Node(n) => Some(n),
            _ => None,
        }
    }
}

impl From<bool> for Item {
    fn from(b: bool) -> Item {
        Item::Bool(b)
    }
}

impl From<f64> for Item {
    fn from(n: f64) -> Item {
        Item::Number(n)
    }
}

impl From<&str> for Item {
    fn from(s: &str) -> Item {
        Item::Str(s.to_owned())
    }
}

/// XPath-style number formatting: integers print without a decimal point,
/// `NaN`/`Infinity` use XPath spellings.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_owned()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_owned()
        } else {
            "-Infinity".to_owned()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// The effective boolean value of a sequence (XPath 2.0 `fn:boolean` rules,
/// restricted to this engine's types).
pub fn effective_boolean(seq: &[Item]) -> Result<bool, crate::error::XqError> {
    match seq {
        [] => Ok(false),
        [first, ..] if first.is_node() => Ok(true),
        [single] => Ok(match single {
            Item::Bool(b) => *b,
            Item::Number(n) => *n != 0.0 && !n.is_nan(),
            Item::Str(s) => !s.is_empty(),
            Item::Node(_) => true,
        }),
        _ => Err(crate::error::XqError::TypeError(
            "effective boolean value of a multi-item non-node sequence".to_owned(),
        )),
    }
}

/// Sort node items into document order and remove duplicates; non-node items
/// keep their relative order after nodes (path results are all-node, so the
/// mixed case only arises in hand-built sequences). Nodes are compared in
/// place, and a sequence already in strict document order — the usual
/// shape of a path result — is left untouched.
pub fn document_order_dedup(seq: &mut Sequence) {
    let in_order = seq.windows(2).all(|pair| match pair {
        [Item::Node(a), Item::Node(b)] => a.cmp_document_order(b) == Ordering::Less,
        _ => false,
    });
    if in_order {
        return;
    }
    let mut nodes: Vec<NodeRef> = Vec::new();
    let mut rest: Vec<Item> = Vec::new();
    for item in seq.drain(..) {
        match item {
            Item::Node(n) => nodes.push(n),
            other => rest.push(other),
        }
    }
    nodes.sort_by(NodeRef::cmp_document_order);
    nodes.dedup_by(|a, b| a.cmp_document_order(b) == Ordering::Equal);
    seq.extend(nodes.into_iter().map(Item::Node));
    seq.extend(rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsda_xml::parse_fragment;

    fn doc() -> Arc<Element> {
        Arc::new(
            parse_fragment(
                r#"<service type="exec"><owner>cms</owner><iface><op>submit</op></iface>text</service>"#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn root_ref_basics() {
        let r = NodeRef::root(doc(), 7);
        assert!(r.is_element());
        assert_eq!(r.name(), "service");
        assert_eq!(r.doc_ord(), 7);
        assert_eq!(r.string_value(), "cmssubmittext");
        // A parentless element's parent is the virtual document node.
        let p = r.parent().unwrap();
        assert_eq!(p.kind(), &NodeKind::Document);
        assert!(p.parent().is_none());
    }

    #[test]
    fn document_node_navigation() {
        let d = NodeRef::document_node(doc(), 3);
        assert!(!d.is_element());
        assert_eq!(d.name(), "");
        assert_eq!(d.string_value(), "cmssubmittext");
        let kids = d.child_elements();
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].name(), "service");
        assert_eq!(kids[0].parent().unwrap(), d);
        let desc: Vec<String> = d.descendant_elements().iter().map(|n| n.name()).collect();
        assert_eq!(desc, ["service", "owner", "iface", "op"]);
        assert!(d.attributes().is_empty());
        assert!(d.text_children().is_empty());
    }

    #[test]
    fn child_navigation() {
        let r = NodeRef::root(doc(), 0);
        let kids = r.child_elements();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].name(), "owner");
        assert_eq!(kids[1].name(), "iface");
        assert_eq!(kids[1].child_elements()[0].string_value(), "submit");
    }

    #[test]
    fn descendants_in_document_order() {
        let r = NodeRef::root(doc(), 0);
        let names: Vec<String> = r.descendant_elements().iter().map(|n| n.name()).collect();
        assert_eq!(names, ["owner", "iface", "op"]);
    }

    #[test]
    fn attributes_and_text() {
        let r = NodeRef::root(doc(), 0);
        let a = r.attribute("type").unwrap();
        assert_eq!(a.string_value(), "exec");
        assert_eq!(a.name(), "type");
        assert!(r.attribute("none").is_none());
        assert_eq!(r.attributes().len(), 1);
        let texts = r.text_children();
        assert_eq!(texts.len(), 1);
        assert_eq!(texts[0].string_value(), "text");
    }

    #[test]
    fn parent_of_attribute_is_element() {
        let r = NodeRef::root(doc(), 0);
        let a = r.attribute("type").unwrap();
        assert_eq!(a.parent().unwrap().name(), "service");
        let kid = &r.child_elements()[0];
        assert_eq!(kid.parent().unwrap().name(), "service");
    }

    #[test]
    fn item_conversions() {
        assert_eq!(Item::from(true).string_value(), "true");
        assert_eq!(Item::from(2.0).string_value(), "2");
        assert_eq!(Item::from(2.5).string_value(), "2.5");
        assert!(Item::str("x").number_value().is_nan());
        assert_eq!(Item::str("3.5").number_value(), 3.5);
        assert_eq!(Item::Bool(true).number_value(), 1.0);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
        assert_eq!(format_number(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(format_number(-0.0), "0");
        assert_eq!(format_number(1234567.0), "1234567");
    }

    #[test]
    fn effective_boolean_rules() {
        assert!(!effective_boolean(&[]).unwrap());
        assert!(effective_boolean(&[Item::Node(NodeRef::root(doc(), 0))]).unwrap());
        assert!(!effective_boolean(&[Item::Bool(false)]).unwrap());
        assert!(!effective_boolean(&[Item::Number(f64::NAN)]).unwrap());
        assert!(!effective_boolean(&[Item::str("")]).unwrap());
        assert!(effective_boolean(&[Item::str("x")]).unwrap());
        assert!(effective_boolean(&[Item::Bool(true), Item::Bool(true)]).is_err());
    }

    #[test]
    fn dedup_and_order() {
        let d = doc();
        let r = NodeRef::root(d, 0);
        let kids = r.child_elements();
        let mut seq = vec![
            Item::Node(kids[1].clone()),
            Item::Node(kids[0].clone()),
            Item::Node(kids[0].clone()),
        ];
        document_order_dedup(&mut seq);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].as_node().unwrap().name(), "owner");
    }

    #[test]
    fn cross_document_order_uses_doc_ord() {
        let a = NodeRef::root(doc(), 2);
        let b = NodeRef::root(doc(), 1);
        let mut seq = vec![Item::Node(a), Item::Node(b)];
        document_order_dedup(&mut seq);
        assert_eq!(seq[0].as_node().unwrap().doc_ord(), 1);
    }

    /// A chain `<d0><d1>…<dN/>…</d1></d0>` deeper than the inline path.
    fn deep(levels: usize) -> Arc<Element> {
        let mut e = Element::new(format!("d{levels}")).with_text("leaf");
        for i in (0..levels).rev() {
            e = Element::new(format!("d{i}")).with_text("t").with_child(e);
        }
        Arc::new(e)
    }

    #[test]
    fn paths_past_the_inline_depth_spill_and_come_back() {
        let levels = INLINE_DEPTH + 3;
        let all = NodeRef::root(deep(levels), 0).descendant_elements();
        assert_eq!(all.len(), levels);
        for (i, n) in all.iter().enumerate() {
            assert_eq!(n.name(), format!("d{}", i + 1));
            assert_eq!(n.clone(), *n);
        }
        let leaf = all.last().unwrap();
        assert_eq!(leaf.string_value(), "leaf");
        let mut up = leaf.clone();
        for i in (0..levels).rev() {
            up = up.parent().unwrap();
            assert_eq!(up.name(), format!("d{i}"));
        }
        let mut seq: Sequence = all.iter().rev().cloned().map(Item::Node).collect();
        document_order_dedup(&mut seq);
        let names: Vec<String> = seq.iter().map(|i| i.as_node().unwrap().name()).collect();
        assert_eq!(names, (1..=levels).map(|i| format!("d{i}")).collect::<Vec<_>>());
    }

    #[test]
    fn attributes_of_one_element_order_by_name() {
        let d = Arc::new(parse_fragment(r#"<t link="l" type="s" ctx="c"/>"#).unwrap());
        let r = NodeRef::root(d, 0);
        let mut seq: Sequence = r.attributes().into_iter().map(Item::Node).collect();
        seq.push(Item::Node(r.attribute("link").unwrap()));
        document_order_dedup(&mut seq);
        let names: Vec<String> = seq.iter().map(|i| i.as_node().unwrap().name()).collect();
        assert_eq!(names, ["ctx", "link", "type"]);
    }

    #[test]
    fn string_values_borrow_single_text_runs() {
        let r = NodeRef::root(doc(), 0);
        let owner = &r.child_elements()[0];
        assert!(matches!(owner.str_value(), Cow::Borrowed("cms")));
        assert!(matches!(r.attribute("type").unwrap().str_value(), Cow::Borrowed("exec")));
        assert!(matches!(r.str_value(), Cow::Owned(s) if s == "cmssubmittext"));
        assert!(matches!(Item::str("x").str_value(), Cow::Borrowed("x")));
    }

    #[test]
    fn serialize_writes_elements_without_a_copy() {
        let r = NodeRef::root(doc(), 0);
        for n in r.descendant_elements().into_iter().chain([r.clone()]) {
            let expected = n.materialize_element().unwrap().to_compact_string();
            assert_eq!(Item::Node(n).serialize(), expected);
        }
        assert_eq!(Item::Node(r.attribute("type").unwrap()).serialize(), "exec");
        assert_eq!(Item::Node(r.parent().unwrap()).serialize(), "cmssubmittext");
        assert_eq!(Item::Number(2.0).serialize(), "2");
    }
}
