//! # wsda-xml — XML data model substrate for the Web Service Discovery Architecture
//!
//! The WSDA data model (dissertation chapter 3) represents every tuple element
//! as an arbitrary well-formed XML document or fragment: structured *and*
//! semi-structured data from heterogeneous, autonomous sources. This crate
//! provides that substrate from scratch, because the reproduction builds every
//! dependency itself:
//!
//! * [`Element`] / [`XmlNode`] — an owned tree model suitable for storing
//!   millions of small service-description tuples,
//! * [`SmallStr`] — the string type of names, attribute values and text:
//!   a string of up to 22 bytes lives inside the node instead of in a heap
//!   block of its own, so a rendered service tuple costs ~18 heap blocks
//!   instead of ~57,
//! * [`parse`] / [`parse_fragment`] — a non-validating, well-formedness
//!   checking parser (elements, attributes, text, comments, CDATA, processing
//!   instructions, character/entity references, namespace *prefix* syntax),
//! * [`Writer`] — compact and pretty serialization with correct escaping,
//! * navigation helpers used by the XQuery engine (`wsda-xq`) downstream.
//!
//! The model is deliberately *not* a full XML Information Set: there is no DTD
//! processing and namespaces are carried as lexical prefixes (the thesis data
//! model only requires prefix-tagged names for scoping, e.g. `tns:service`).
//!
//! ## Example
//!
//! ```
//! use wsda_xml::{parse, Element};
//!
//! let doc = parse(r#"<service type="executor"><endpoint>http://cms.cern.ch/exec</endpoint></service>"#).unwrap();
//! assert_eq!(doc.root().attr("type"), Some("executor"));
//! assert_eq!(doc.root().first_child_named("endpoint").unwrap().text(), "http://cms.cern.ch/exec");
//!
//! let built = Element::new("service")
//!     .with_attr("type", "executor")
//!     .with_child(Element::new("endpoint").with_text("http://cms.cern.ch/exec"));
//! assert_eq!(built.to_compact_string(), doc.root().to_compact_string());
//! ```

pub mod error;
pub mod name;
pub mod node;
pub mod parser;
pub mod path;
pub mod small_str;
pub mod writer;

pub use error::{XmlError, XmlResult};
pub use name::{name_matches, QName};
pub use node::{Attribute, Document, Element, XmlNode};
pub use parser::{parse, parse_fragment};
pub use small_str::SmallStr;
pub use writer::{Writer, WriterConfig};
