//! Property tests: any document tree the writer can produce is parsed back
//! identically by the pull parser / DOM.

use proptest::prelude::*;
use wfp_xml::{parse_document, Element, Writer};

/// Arbitrary element trees with bounded depth/width.
fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,8}".prop_map(|s| s)
}

fn arb_text() -> impl Strategy<Value = String> {
    // Arbitrary content including XML-significant characters; leading and
    // trailing whitespace is excluded because the parser trims text runs.
    "[ -~]{0,20}".prop_map(|s| s.trim().to_string())
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    attrs: Vec<(String, String)>,
    text: String,
    children: Vec<Node>,
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_text()), 0..3),
        arb_text(),
    )
        .prop_map(|(name, mut attrs, text)| {
            attrs.dedup_by(|a, b| a.0 == b.0);
            let mut seen = std::collections::HashSet::new();
            attrs.retain(|(k, _)| seen.insert(k.clone()));
            Node {
                name,
                attrs,
                text,
                children: Vec::new(),
            }
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            arb_name(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, mut attrs, children)| {
                let mut seen = std::collections::HashSet::new();
                attrs.retain(|(k, _)| seen.insert(k.clone()));
                Node {
                    name,
                    attrs,
                    // mixed content order is not modeled by the DOM; keep
                    // text on leaves only
                    text: String::new(),
                    children,
                }
            })
    })
}

fn write_node(w: &mut Writer, node: &Node) {
    w.begin(&node.name);
    for (k, v) in &node.attrs {
        w.attr(k, v);
    }
    if !node.text.is_empty() {
        w.text(&node.text);
    }
    for c in &node.children {
        write_node(w, c);
    }
    w.end();
}

fn assert_matches(node: &Node, el: &Element) {
    assert_eq!(node.name, el.name);
    assert_eq!(node.attrs.len(), el.attrs.len());
    for (k, v) in &node.attrs {
        assert_eq!(el.attr(k), Some(v.as_str()), "attr {k}");
    }
    assert_eq!(node.text, el.text());
    assert_eq!(node.children.len(), el.children.len());
    for (c, e) in node.children.iter().zip(&el.children) {
        assert_matches(c, e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn writer_parser_round_trip(root in arb_node()) {
        let mut w = Writer::new();
        write_node(&mut w, &root);
        let xml = w.finish();
        let doc = parse_document(&xml).unwrap_or_else(|e| panic!("{e}\n{xml}"));
        assert_matches(&root, &doc);
    }

    /// Re-serializing the parsed document is a fixed point.
    #[test]
    fn second_round_trip_is_identical(root in arb_node()) {
        fn write_el(w: &mut Writer, el: &Element) {
            w.begin(&el.name);
            for (k, v) in &el.attrs {
                w.attr(k, v);
            }
            if !el.text().is_empty() {
                w.text(el.text());
            }
            for c in &el.children {
                write_el(w, c);
            }
            w.end();
        }
        let mut w = Writer::new();
        write_node(&mut w, &root);
        let xml1 = w.finish();
        let doc1 = parse_document(&xml1).unwrap();
        let mut w2 = Writer::new();
        write_el(&mut w2, &doc1);
        let xml2 = w2.finish();
        prop_assert_eq!(&xml1, &xml2);
    }
}
