//! The owned XML tree model.
//!
//! A [`Document`] owns a single root [`Element`]; elements own their
//! [`Attribute`]s and child [`XmlNode`]s. The model is a plain owned tree
//! (no parent pointers, no interior mutability): the hyper registry stores
//! millions of small immutable tuples, and the XQuery evaluator walks trees
//! top-down, so child/descendant/attribute axes suffice and tuples stay
//! `Send + Sync` for rayon-parallel scans for free.

use crate::name::{name_matches, QName};
use crate::writer::{Writer, WriterConfig};
use std::fmt;

/// A single XML attribute (`name="value"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Lexical attribute name (may carry a prefix, e.g. `xsi:type`).
    pub name: String,
    /// The attribute value with entities already resolved.
    pub value: String,
}

impl Attribute {
    /// Create an attribute.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute { name: name.into(), value: value.into() }
    }
}

/// Any node that can appear in element content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(Element),
    /// Character data (entities already resolved).
    Text(String),
    /// A CDATA section; contents are uninterpreted character data.
    CData(String),
    /// A comment (without the `<!--`/`-->` delimiters).
    Comment(String),
    /// A processing instruction `<?target data?>`.
    ProcessingInstruction {
        /// PI target (e.g. `xml-stylesheet`).
        target: String,
        /// Raw PI data.
        data: String,
    },
}

impl XmlNode {
    /// The contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            XmlNode::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The textual content of text/CDATA nodes; `None` for anything else.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            XmlNode::Text(t) | XmlNode::CData(t) => Some(t),
            _ => None,
        }
    }

    /// True for text or CDATA consisting only of XML whitespace.
    pub fn is_whitespace(&self) -> bool {
        self.as_text().is_some_and(|t| t.chars().all(|c| matches!(c, ' ' | '\t' | '\r' | '\n')))
    }
}

impl From<Element> for XmlNode {
    fn from(e: Element) -> Self {
        XmlNode::Element(e)
    }
}

/// An XML element: name, attributes and ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attributes: Vec<Attribute>,
    children: Vec<XmlNode>,
}

impl Element {
    /// Create an empty element with the given lexical name.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// The lexical element name (`prefix:local` or `local`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name split into prefix and local part.
    pub fn qname(&self) -> QName {
        QName::parse(&self.name)
    }

    /// Rename the element.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ---- builder API -------------------------------------------------

    /// Builder: add an attribute and return self.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder: append a child element and return self.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Builder: append a text node and return self.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Builder: append any node and return self.
    pub fn with_node(mut self, node: XmlNode) -> Self {
        self.children.push(node);
        self
    }

    /// Builder: append a named child holding only text — the single most
    /// common shape in service descriptions (`<owner>cms.cern.ch</owner>`).
    pub fn with_field(self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.with_child(Element::new(name).with_text(text))
    }

    // ---- attributes ---------------------------------------------------

    /// All attributes in document order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// The value of the attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|a| a.name == name).map(|a| a.value.as_str())
    }

    /// Set (or replace) an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(a) = self.attributes.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attributes.push(Attribute { name, value });
        }
    }

    /// Remove an attribute, returning its value when it existed.
    pub fn remove_attr(&mut self, name: &str) -> Option<String> {
        let idx = self.attributes.iter().position(|a| a.name == name)?;
        Some(self.attributes.remove(idx).value)
    }

    // ---- children -----------------------------------------------------

    /// All child nodes in document order.
    pub fn children(&self) -> &[XmlNode] {
        &self.children
    }

    /// Mutable access to child nodes.
    pub fn children_mut(&mut self) -> &mut Vec<XmlNode> {
        &mut self.children
    }

    /// Append any child node.
    pub fn push(&mut self, node: impl Into<XmlNode>) {
        self.children.push(node.into());
    }

    /// Child elements in document order.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// Child elements whose name matches `pattern` (name-test semantics:
    /// `*`, `p:*`, or an exact lexical name).
    pub fn children_named<'a>(&'a self, pattern: &str) -> impl Iterator<Item = &'a Element> + 'a {
        let pattern = pattern.to_owned();
        self.child_elements().filter(move |e| name_matches(e.name(), &pattern))
    }

    /// The first child element matching `pattern`.
    pub fn first_child_named(&self, pattern: &str) -> Option<&Element> {
        self.children_named(pattern).next()
    }

    /// Depth-first pre-order iterator over all descendant elements
    /// (excluding `self`).
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: self.child_elements().rev_collect() }
    }

    /// Descendant elements (excluding `self`) matching a name test.
    pub fn descendants_named<'a>(
        &'a self,
        pattern: &str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        let pattern = pattern.to_owned();
        self.descendants().filter(move |e| name_matches(e.name(), &pattern))
    }

    /// The concatenated text of this element and all its descendants, in
    /// document order — the XPath `string()` value of an element.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for c in &self.children {
            match c {
                XmlNode::Text(t) | XmlNode::CData(t) => out.push_str(t),
                XmlNode::Element(e) => e.collect_text(out),
                _ => {}
            }
        }
    }

    /// Total number of elements in this subtree, including `self`.
    pub fn subtree_size(&self) -> usize {
        1 + self.child_elements().map(Element::subtree_size).sum::<usize>()
    }

    /// Maximum depth of the subtree (an element with no element children has
    /// depth 1).
    pub fn depth(&self) -> usize {
        1 + self.child_elements().map(Element::depth).max().unwrap_or(0)
    }

    /// Serialize without any insignificant whitespace.
    pub fn to_compact_string(&self) -> String {
        Writer::new(WriterConfig::compact()).element_to_string(self)
    }

    /// Serialize with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        Writer::new(WriterConfig::pretty()).element_to_string(self)
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

/// Iterator state for [`Element::descendants`].
pub struct Descendants<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<&'a Element> {
        let next = self.stack.pop()?;
        // Push children reversed so document order pops first.
        for child in next.child_elements().rev_collect() {
            self.stack.push(child);
        }
        Some(next)
    }
}

/// Collect an iterator in reverse without an intermediate `Vec` reversal at
/// each call site.
trait RevCollect<'a> {
    fn rev_collect(self) -> Vec<&'a Element>;
}

impl<'a, I: Iterator<Item = &'a Element>> RevCollect<'a> for I {
    fn rev_collect(self) -> Vec<&'a Element> {
        let mut v: Vec<&'a Element> = self.collect();
        v.reverse();
        v
    }
}

/// A complete XML document: optional prolog items plus one root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Comments and processing instructions that preceded the root element.
    pub prolog: Vec<XmlNode>,
    root: Element,
}

impl Document {
    /// Wrap a root element into a document.
    pub fn new(root: Element) -> Self {
        Document { prolog: Vec::new(), root }
    }

    /// The document element.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Mutable access to the document element.
    pub fn root_mut(&mut self) -> &mut Element {
        &mut self.root
    }

    /// Consume the document, yielding the root element.
    pub fn into_root(self) -> Element {
        self.root
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.root.to_compact_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("service")
            .with_attr("type", "exec")
            .with_field("owner", "cms.cern.ch")
            .with_child(
                Element::new("interface")
                    .with_attr("name", "Executor")
                    .with_field("operation", "submit")
                    .with_field("operation", "cancel"),
            )
            .with_text("tail")
    }

    #[test]
    fn builder_and_accessors() {
        let e = sample();
        assert_eq!(e.name(), "service");
        assert_eq!(e.attr("type"), Some("exec"));
        assert_eq!(e.attr("missing"), None);
        assert_eq!(e.child_elements().count(), 2);
        assert_eq!(e.first_child_named("owner").unwrap().text(), "cms.cern.ch");
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("a").with_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attr("k"), Some("2"));
        assert_eq!(e.attributes().len(), 1);
        assert_eq!(e.remove_attr("k"), Some("2".to_owned()));
        assert_eq!(e.remove_attr("k"), None);
    }

    #[test]
    fn text_concatenates_in_document_order() {
        let e = Element::new("a")
            .with_text("x")
            .with_child(Element::new("b").with_text("y"))
            .with_node(XmlNode::CData("z".into()));
        assert_eq!(e.text(), "xyz");
    }

    #[test]
    fn descendants_pre_order() {
        let e = sample();
        let names: Vec<&str> = e.descendants().map(|d| d.name()).collect();
        assert_eq!(names, ["owner", "interface", "operation", "operation"]);
    }

    #[test]
    fn descendants_named_matches_nested() {
        let e = sample();
        assert_eq!(e.descendants_named("operation").count(), 2);
        assert_eq!(e.descendants_named("*").count(), 4);
    }

    #[test]
    fn subtree_size_and_depth() {
        let e = sample();
        assert_eq!(e.subtree_size(), 5);
        assert_eq!(e.depth(), 3);
        assert_eq!(Element::new("x").depth(), 1);
    }

    #[test]
    fn whitespace_detection() {
        assert!(XmlNode::Text("  \n\t".into()).is_whitespace());
        assert!(!XmlNode::Text(" a ".into()).is_whitespace());
        assert!(!XmlNode::Comment(" ".into()).is_whitespace());
    }

    #[test]
    fn document_wraps_root() {
        let d = Document::new(sample());
        assert_eq!(d.root().name(), "service");
        assert_eq!(d.clone().into_root(), sample());
    }
}
