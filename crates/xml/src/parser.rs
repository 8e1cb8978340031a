//! Pull parser for the XML subset.

use crate::unescape;

/// A parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name k="v" ...>` or `<name .../>` (then `self_closing` is true and
    /// a matching [`Event::End`] is synthesized by the parser).
    Start {
        /// Element name.
        name: String,
        /// Attributes in document order.
        attrs: Vec<(String, String)>,
    },
    /// `</name>` (also emitted after a self-closing start tag).
    End {
        /// Element name.
        name: String,
    },
    /// Character data between tags (whitespace-only runs are skipped).
    Text(String),
}

/// A parse failure with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XML parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A pull parser over a complete document string.
pub struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Element stack for well-formedness checking.
    stack: Vec<String>,
    /// Pending synthesized end tag for a self-closing element.
    pending_end: Option<String>,
    started: bool,
    finished: bool,
}

impl<'a> Parser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            stack: Vec::new(),
            pending_end: None,
            started: false,
            finished: false,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (mut line, mut col) = (1, 1);
        for &b in &self.input[..self.pos.min(self.input.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn take_until(&mut self, needle: &str) -> Result<&'a str, ParseError> {
        let hay = &self.input[self.pos..];
        let idx = find_sub(hay, needle.as_bytes())
            .ok_or_else(|| self.error(format!("expected {needle:?}")))?;
        let s = std::str::from_utf8(&hay[..idx]).map_err(|_| self.error("invalid UTF-8"))?;
        self.pos += idx + needle.len();
        Ok(s)
    }

    fn read_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        let name = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("invalid UTF-8 in name"))?;
        if !crate::writer::is_valid_name(name) {
            return Err(self.error(format!("invalid name {name:?}")));
        }
        Ok(name.to_string())
    }

    /// Produces the next event, or `Ok(None)` at end of document.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Event>, ParseError> {
        if let Some(name) = self.pending_end.take() {
            return Ok(Some(Event::End { name }));
        }
        loop {
            if self.finished {
                // allow only trailing whitespace
                self.skip_ws();
                if self.pos < self.input.len() {
                    return Err(self.error("content after document element"));
                }
                return Ok(None);
            }
            if self.stack.is_empty() && self.started {
                self.finished = true;
                continue;
            }
            // text handling only inside elements
            if !self.stack.is_empty() {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                if self.pos > start {
                    let raw = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in text"))?;
                    if !raw.trim().is_empty() {
                        let text = unescape(raw.trim()).map_err(|e| self.error(e))?;
                        return Ok(Some(Event::Text(text)));
                    }
                    continue;
                }
            } else {
                self.skip_ws();
            }
            if self.pos >= self.input.len() {
                if self.stack.is_empty() && self.started {
                    self.finished = true;
                    continue;
                }
                return Err(self.error("unexpected end of input"));
            }
            if !self.starts_with("<") {
                return Err(self.error("expected '<'"));
            }
            if self.starts_with("<?") {
                if self.started || !self.stack.is_empty() {
                    return Err(self.error("XML declaration not at document start"));
                }
                self.pos += 2;
                self.take_until("?>")?;
                continue;
            }
            if self.starts_with("<!--") {
                self.pos += 4;
                self.take_until("-->")?;
                continue;
            }
            if self.starts_with("<!") {
                return Err(self.error("DOCTYPE/CDATA are not supported"));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let name = self.read_name()?;
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.error("expected '>' after closing tag name"));
                }
                self.pos += 1;
                match self.stack.pop() {
                    Some(open) if open == name => return Ok(Some(Event::End { name })),
                    Some(open) => {
                        return Err(self.error(format!("mismatched tag </{name}>, open <{open}>")))
                    }
                    None => return Err(self.error(format!("unmatched closing tag </{name}>"))),
                }
            }
            // start tag
            self.pos += 1;
            let name = self.read_name()?;
            let mut attrs = Vec::new();
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'>') => {
                        self.pos += 1;
                        self.stack.push(name.clone());
                        self.started = true;
                        return Ok(Some(Event::Start { name, attrs }));
                    }
                    Some(b'/') => {
                        self.pos += 1;
                        if self.peek() != Some(b'>') {
                            return Err(self.error("expected '/>'"));
                        }
                        self.pos += 1;
                        self.started = true;
                        self.pending_end = Some(name.clone());
                        return Ok(Some(Event::Start { name, attrs }));
                    }
                    Some(_) => {
                        let key = self.read_name()?;
                        self.skip_ws();
                        if self.peek() != Some(b'=') {
                            return Err(self.error("expected '=' in attribute"));
                        }
                        self.pos += 1;
                        self.skip_ws();
                        let quote = match self.peek() {
                            Some(q @ (b'"' | b'\'')) => q,
                            _ => return Err(self.error("expected quoted attribute value")),
                        };
                        self.pos += 1;
                        let raw = self.take_until(if quote == b'"' { "\"" } else { "'" })?;
                        let value = unescape(raw).map_err(|e| self.error(e))?;
                        if attrs.iter().any(|(k, _)| k == &key) {
                            return Err(self.error(format!("duplicate attribute {key:?}")));
                        }
                        attrs.push((key, value));
                    }
                    None => return Err(self.error("unexpected end of input in tag")),
                }
            }
        }
    }
}

fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    (0..=hay.len() - needle.len()).find(|&i| &hay[i..i + needle.len()] == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events(s: &str) -> Result<Vec<Event>, ParseError> {
        let mut p = Parser::new(s);
        let mut out = Vec::new();
        while let Some(e) = p.next()? {
            out.push(e);
        }
        Ok(out)
    }

    #[test]
    fn simple_document() {
        let events = all_events("<?xml version=\"1.0\"?><a x=\"1\"><b/>hi</a>").unwrap();
        assert_eq!(
            events,
            vec![
                Event::Start {
                    name: "a".into(),
                    attrs: vec![("x".into(), "1".into())]
                },
                Event::Start {
                    name: "b".into(),
                    attrs: vec![]
                },
                Event::End { name: "b".into() },
                Event::Text("hi".into()),
                Event::End { name: "a".into() },
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let events = all_events("<a><!-- note --><b/></a>").unwrap();
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn whitespace_only_text_is_skipped() {
        let events = all_events("<a>\n  <b/>\n</a>").unwrap();
        assert!(!events.iter().any(|e| matches!(e, Event::Text(_))));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let events = all_events("<a k=\"&lt;&amp;&gt;\">x &amp; y</a>").unwrap();
        match &events[0] {
            Event::Start { attrs, .. } => assert_eq!(attrs[0].1, "<&>"),
            _ => panic!(),
        }
        assert_eq!(events[1], Event::Text("x & y".into()));
    }

    #[test]
    fn single_quoted_attributes() {
        let events = all_events("<a k='v'/>").unwrap();
        match &events[0] {
            Event::Start { attrs, .. } => assert_eq!(attrs[0], ("k".into(), "v".into())),
            _ => panic!(),
        }
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        let err = all_events("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn truncated_input_is_rejected() {
        assert!(all_events("<a><b>").is_err());
        assert!(all_events("<a attr=>").is_err());
        assert!(all_events("<a attr=unquoted>").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(all_events("<a/>junk").is_err());
        assert!(all_events("<a/><b/>").is_err());
    }

    #[test]
    fn duplicate_attributes_rejected() {
        assert!(all_events("<a k=\"1\" k=\"2\"/>").is_err());
    }

    #[test]
    fn error_position_reports_line() {
        let err = all_events("<a>\n<b>\n</wrong>\n</a>").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("3:"));
    }
}
