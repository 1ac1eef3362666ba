//! A non-validating, well-formedness-checking XML parser.
//!
//! Handles the subset of XML 1.0 the WSDA data model requires: elements,
//! attributes (single- or double-quoted), character data, the five built-in
//! entities plus decimal/hex character references, comments, CDATA sections,
//! processing instructions and the XML declaration. DTDs are rejected — the
//! thesis data model uses XML Schema (out-of-band) rather than DTDs, and
//! registries must never fetch external entities from untrusted providers.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::name::{is_name_char, is_name_start};
use crate::node::{Document, Element, XmlNode};

/// Parse a complete XML document (exactly one root element, optional
/// prolog/epilog comments and PIs, optional XML declaration).
pub fn parse(input: &str) -> XmlResult<Document> {
    let mut p = Parser::new(input);
    p.skip_bom();
    p.skip_xml_decl()?;
    let mut prolog = Vec::new();
    loop {
        p.skip_whitespace();
        match p.peek() {
            None => return Err(p.error(XmlErrorKind::NoRootElement)),
            Some('<') => match p.peek2() {
                Some('!') | Some('?') => {
                    let misc = p.parse_misc()?;
                    prolog.push(misc);
                }
                _ => break,
            },
            Some(c) => {
                return Err(p.error(XmlErrorKind::UnexpectedChar { expected: "'<'", found: c }))
            }
        }
    }
    let root = p.parse_element()?;
    // Epilog: only whitespace, comments and PIs are allowed.
    loop {
        p.skip_whitespace();
        match p.peek() {
            None => break,
            Some('<') => match p.peek2() {
                Some('!') | Some('?') => {
                    p.parse_misc()?;
                }
                _ => return Err(p.error(XmlErrorKind::MultipleRoots)),
            },
            Some(_) => return Err(p.error(XmlErrorKind::TrailingContent)),
        }
    }
    let mut doc = Document::new(root);
    doc.prolog = prolog;
    Ok(doc)
}

/// Parse an XML *fragment*: a single element with no prolog requirements.
///
/// This is the form tuples take inside PDP messages and registry columns.
pub fn parse_fragment(input: &str) -> XmlResult<Element> {
    let mut p = Parser::new(input);
    p.skip_bom();
    p.skip_whitespace();
    if p.peek() != Some('<') {
        return Err(p.error(XmlErrorKind::NoRootElement));
    }
    let root = p.parse_element()?;
    p.skip_whitespace();
    if p.peek().is_some() {
        return Err(p.error(XmlErrorKind::TrailingContent));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset of the cursor.
    pos: usize,
    line: u32,
    col: u32,
    /// Current element nesting depth.
    depth: u32,
}

/// Maximum element nesting accepted — guards the recursive-descent stack
/// against adversarial inputs like a megabyte of `<a>`.
const MAX_DEPTH: u32 = 200;

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, pos: 0, line: 1, col: 1, depth: 0 }
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.pos, self.line, self.col)
    }

    fn eof(&self, what: &'static str) -> XmlError {
        self.error(XmlErrorKind::UnexpectedEof(what))
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.rest().chars();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in s.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &'static str) -> XmlResult<()> {
        if self.eat(s) {
            Ok(())
        } else {
            match self.peek() {
                Some(c) => Err(self.error(XmlErrorKind::UnexpectedChar { expected: s, found: c })),
                None => Err(self.eof(s)),
            }
        }
    }

    fn skip_bom(&mut self) {
        self.eat("\u{feff}");
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.bump();
        }
    }

    fn skip_xml_decl(&mut self) -> XmlResult<()> {
        if self.starts_with("<?xml") {
            // Don't confuse `<?xml-stylesheet?>` with the declaration.
            let after = self.rest().as_bytes().get(5).copied();
            if matches!(after, Some(b' ' | b'\t' | b'\r' | b'\n' | b'?')) {
                while !self.eat("?>") {
                    if self.bump().is_none() {
                        return Err(self.eof("XML declaration"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Parse a comment, PI or CDATA outside/inside content ("misc").
    fn parse_misc(&mut self) -> XmlResult<XmlNode> {
        if self.starts_with("<!--") {
            self.parse_comment()
        } else if self.starts_with("<?") {
            self.parse_pi()
        } else if self.starts_with("<![CDATA[") {
            self.parse_cdata()
        } else if self.starts_with("<!") {
            // DOCTYPE / entity declarations: rejected by design.
            Err(self.error(XmlErrorKind::UnexpectedChar {
                expected: "element, comment, CDATA or PI (DTDs unsupported)",
                found: '!',
            }))
        } else {
            let c = self.peek().unwrap_or('\0');
            Err(self.error(XmlErrorKind::UnexpectedChar { expected: "markup", found: c }))
        }
    }

    fn parse_comment(&mut self) -> XmlResult<XmlNode> {
        self.expect("<!--")?;
        let start = self.pos;
        loop {
            if self.starts_with("-->") {
                let text = self.input[start..self.pos].to_owned();
                self.eat("-->");
                return Ok(XmlNode::Comment(text));
            }
            if self.bump().is_none() {
                return Err(self.eof("comment"));
            }
        }
    }

    fn parse_pi(&mut self) -> XmlResult<XmlNode> {
        self.expect("<?")?;
        let target = self.parse_name()?;
        self.skip_whitespace();
        let start = self.pos;
        loop {
            if self.starts_with("?>") {
                let data = self.input[start..self.pos].to_owned();
                self.eat("?>");
                return Ok(XmlNode::ProcessingInstruction { target: target.to_owned(), data });
            }
            if self.bump().is_none() {
                return Err(self.eof("processing instruction"));
            }
        }
    }

    fn parse_cdata(&mut self) -> XmlResult<XmlNode> {
        self.expect("<![CDATA[")?;
        let start = self.pos;
        loop {
            if self.starts_with("]]>") {
                let text = &self.input[start..self.pos];
                self.eat("]]>");
                return Ok(XmlNode::CData(text.into()));
            }
            if self.bump().is_none() {
                return Err(self.eof("CDATA section"));
            }
        }
    }

    fn parse_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            Some(c) => {
                return Err(self.error(XmlErrorKind::UnexpectedChar { expected: "name", found: c }))
            }
            None => return Err(self.eof("name")),
        }
        let mut seen_colon = false;
        while let Some(c) = self.peek() {
            if is_name_char(c) {
                self.bump();
            } else if c == ':' && !seen_colon {
                seen_colon = true;
                self.bump();
                // A colon must be followed by a name-start character.
                match self.peek() {
                    Some(c2) if is_name_start(c2) => {}
                    _ => {
                        return Err(self
                            .error(XmlErrorKind::BadName(self.input[start..self.pos].to_owned())))
                    }
                }
            } else {
                break;
            }
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_element(&mut self) -> XmlResult<Element> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(self.error(XmlErrorKind::TooDeep(MAX_DEPTH)));
        }
        let out = self.parse_element_inner();
        self.depth -= 1;
        out
    }

    fn parse_element_inner(&mut self) -> XmlResult<Element> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('>') => {
                    self.bump();
                    break;
                }
                Some('/') => {
                    self.bump();
                    self.expect(">")?;
                    return Ok(element);
                }
                Some(c) if is_name_start(c) => {
                    let attr_name = self.parse_name()?;
                    if element.attr(attr_name).is_some() {
                        return Err(
                            self.error(XmlErrorKind::DuplicateAttribute(attr_name.to_owned()))
                        );
                    }
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    element.set_attr(attr_name, value);
                }
                Some(c) => {
                    return Err(self.error(XmlErrorKind::UnexpectedChar {
                        expected: "attribute, '>' or '/>'",
                        found: c,
                    }))
                }
                None => return Err(self.eof("start tag")),
            }
        }
        // Content until the matching end tag.
        self.parse_content(&mut element)?;
        self.expect("</")?;
        let close = self.parse_name()?;
        if close != name {
            return Err(self.error(XmlErrorKind::MismatchedTag {
                open: name.to_owned(),
                close: close.to_owned(),
            }));
        }
        self.skip_whitespace();
        self.expect(">")?;
        Ok(element)
    }

    fn parse_content(&mut self, element: &mut Element) -> XmlResult<()> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.eof("element content")),
                Some('<') => {
                    if !text.is_empty() {
                        element.push(XmlNode::Text(text.as_str().into()));
                        text.clear();
                    }
                    if self.starts_with("</") {
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        let node = self.parse_comment()?;
                        element.push(node);
                    } else if self.starts_with("<![CDATA[") {
                        let node = self.parse_cdata()?;
                        element.push(node);
                    } else if self.starts_with("<?") {
                        let node = self.parse_pi()?;
                        element.push(node);
                    } else if self.starts_with("<!") {
                        return Err(self.error(XmlErrorKind::UnexpectedChar {
                            expected: "element content (DTDs unsupported)",
                            found: '!',
                        }));
                    } else {
                        let child = self.parse_element()?;
                        element.push(child);
                    }
                }
                Some('&') => {
                    let c = self.parse_reference()?;
                    text.push_str(&c);
                }
                Some(']') if self.starts_with("]]>") => {
                    // "]]>" must not appear literally in character data.
                    return Err(
                        self.error(XmlErrorKind::UnexpectedChar { expected: "text", found: ']' })
                    );
                }
                Some(c) => {
                    if !is_valid_xml_char(c) {
                        return Err(self.error(XmlErrorKind::InvalidChar(c)));
                    }
                    text.push(c);
                    self.bump();
                }
            }
        }
    }

    fn parse_attr_value(&mut self) -> XmlResult<String> {
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => {
                self.bump();
                q
            }
            Some(c) => {
                return Err(self.error(XmlErrorKind::UnexpectedChar { expected: "quote", found: c }))
            }
            None => return Err(self.eof("attribute value")),
        };
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return Err(self.eof("attribute value")),
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some('&') => {
                    let s = self.parse_reference()?;
                    value.push_str(&s);
                }
                Some('<') => {
                    return Err(self.error(XmlErrorKind::UnexpectedChar {
                        expected: "attribute value",
                        found: '<',
                    }))
                }
                Some(c) => {
                    if !is_valid_xml_char(c) {
                        return Err(self.error(XmlErrorKind::InvalidChar(c)));
                    }
                    value.push(c);
                    self.bump();
                }
            }
        }
    }

    /// Parse `&name;`, `&#NN;` or `&#xHH;` — cursor sits on `&`.
    fn parse_reference(&mut self) -> XmlResult<String> {
        self.expect("&")?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == ';' {
                let body = &self.input[start..self.pos];
                self.bump();
                return resolve_entity(body)
                    .ok_or_else(|| self.error(XmlErrorKind::BadEntity(body.to_owned())));
            }
            if c.is_whitespace() || c == '<' || c == '&' {
                break;
            }
            self.bump();
        }
        Err(self.error(XmlErrorKind::BadEntity(self.input[start..self.pos].to_owned())))
    }
}

/// Resolve the built-in entities and character references.
fn resolve_entity(body: &str) -> Option<String> {
    let c = match body {
        "lt" => '<',
        "gt" => '>',
        "amp" => '&',
        "apos" => '\'',
        "quot" => '"',
        _ => {
            let code =
                if let Some(hex) = body.strip_prefix("#x").or_else(|| body.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()?
                } else if let Some(dec) = body.strip_prefix('#') {
                    dec.parse::<u32>().ok()?
                } else {
                    return None;
                };
            let ch = char::from_u32(code)?;
            if !is_valid_xml_char(ch) {
                return None;
            }
            ch
        }
    };
    Some(c.to_string())
}

/// The XML 1.0 `Char` production.
pub(crate) fn is_valid_xml_char(c: char) -> bool {
    matches!(c,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::XmlErrorKind;

    #[test]
    fn minimal_document() {
        let d = parse("<a/>").unwrap();
        assert_eq!(d.root().name(), "a");
        assert!(d.root().children().is_empty());
    }

    #[test]
    fn nested_elements_and_text() {
        let d = parse("<a><b>hi</b><c/>tail</a>").unwrap();
        let r = d.root();
        assert_eq!(r.children().len(), 3);
        assert_eq!(r.first_child_named("b").unwrap().text(), "hi");
        assert_eq!(r.text(), "hitail");
    }

    #[test]
    fn attributes_both_quotes() {
        let d = parse(r#"<a x="1" y='2 "two"'/>"#).unwrap();
        assert_eq!(d.root().attr("x"), Some("1"));
        assert_eq!(d.root().attr("y"), Some("2 \"two\""));
    }

    #[test]
    fn entity_resolution() {
        let d = parse("<a b=\"&lt;&gt;&amp;&quot;&apos;\">&#65;&#x42;</a>").unwrap();
        assert_eq!(d.root().attr("b"), Some("<>&\"'"));
        assert_eq!(d.root().text(), "AB");
    }

    #[test]
    fn bad_entity() {
        let e = parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(e.kind(), XmlErrorKind::BadEntity(s) if s == "nope"));
    }

    #[test]
    fn unterminated_entity() {
        assert!(parse("<a>&lt</a>").is_err());
    }

    #[test]
    fn mismatched_tags() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind(), XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let e = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(e.kind(), XmlErrorKind::DuplicateAttribute(n) if n == "x"));
    }

    #[test]
    fn comments_and_pis() {
        let d = parse("<?xml version=\"1.0\"?><!--hi--><a><!--in--><?pi data?></a><!--post-->")
            .unwrap();
        assert_eq!(d.prolog.len(), 1);
        assert!(matches!(&d.prolog[0], XmlNode::Comment(c) if c == "hi"));
        assert_eq!(d.root().children().len(), 2);
        assert!(matches!(&d.root().children()[1],
            XmlNode::ProcessingInstruction { target, data } if target == "pi" && data == "data"));
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let d = parse("<a><![CDATA[<b>&amp;</b>]]></a>").unwrap();
        assert_eq!(d.root().text(), "<b>&amp;</b>");
        assert!(matches!(&d.root().children()[0], XmlNode::CData(_)));
    }

    #[test]
    fn xml_decl_skipped_but_stylesheet_pi_kept() {
        let d = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>").unwrap();
        assert!(d.prolog.is_empty());
        let d2 = parse("<?xml-stylesheet href=\"x\"?><a/>").unwrap();
        assert_eq!(d2.prolog.len(), 1);
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(matches!(parse("<a/>junk").unwrap_err().kind(), XmlErrorKind::TrailingContent));
        assert!(matches!(parse("<a/><b/>").unwrap_err().kind(), XmlErrorKind::MultipleRoots));
    }

    #[test]
    fn fragment_parsing() {
        let e = parse_fragment("  <tns:svc xmlns:tns='urn:x'>ok</tns:svc>  ").unwrap();
        assert_eq!(e.qname().prefix.as_deref(), Some("tns"));
        assert_eq!(e.text(), "ok");
        assert!(parse_fragment("<a/><b/>").is_err());
        assert!(parse_fragment("no xml").is_err());
    }

    #[test]
    fn dtd_rejected() {
        assert!(parse("<!DOCTYPE a><a/>").is_err());
    }

    #[test]
    fn prefixed_names() {
        let d = parse("<p:a p:x=\"1\"><p:b/></p:a>").unwrap();
        assert_eq!(d.root().name(), "p:a");
        assert_eq!(d.root().attr("p:x"), Some("1"));
    }

    #[test]
    fn double_colon_name_rejected() {
        assert!(parse("<a:b:c/>").is_err());
        assert!(parse("<a:/>").is_err());
    }

    #[test]
    fn cdata_end_in_text_rejected() {
        assert!(parse("<a>]]></a>").is_err());
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(parse("<a x=\"<\"/>").is_err());
    }

    #[test]
    fn whitespace_everywhere() {
        let d = parse("<a  x = \"1\" ><b\n/></a >").unwrap();
        assert_eq!(d.root().attr("x"), Some("1"));
        assert_eq!(d.root().child_elements().count(), 1);
    }

    #[test]
    fn unicode_text_and_bom() {
        let d = parse("\u{feff}<a>héllo wörld — ✓</a>").unwrap();
        assert_eq!(d.root().text(), "héllo wörld — ✓");
    }

    #[test]
    fn numeric_reference_out_of_range_rejected() {
        assert!(parse("<a>&#x0;</a>").is_err());
        assert!(parse("<a>&#1114112;</a>").is_err());
    }

    #[test]
    fn error_position_reported() {
        let e = parse("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn deep_nesting_rejected_not_overflowed() {
        let depth = 100_000;
        let src = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let err = parse(&src).unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::TooDeep(_)));
        // Realistic depth still parses.
        let ok = format!("{}x{}", "<a>".repeat(150), "</a>".repeat(150));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn empty_input() {
        assert!(matches!(parse("").unwrap_err().kind(), XmlErrorKind::NoRootElement));
        assert!(matches!(parse("   ").unwrap_err().kind(), XmlErrorKind::NoRootElement));
    }
}
