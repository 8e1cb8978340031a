//! Machine-readable benchmark output (`BENCH_PR10.json`).
//!
//! Every `repro` invocation serializes the tables it produced — with their
//! per-experiment wall-clock timings and full cell grids (the `throughput`
//! experiment's grid carries queries/sec) — into one JSON document, so the
//! performance trajectory of the repository can be tracked mechanically
//! from PR to PR instead of by eyeballing text tables. The writer is
//! dependency-free: the document shape is flat enough that hand-rolled
//! escaping beats vendoring a serializer.

use std::fs;
use std::path::Path;

use crate::table::Table;

/// The file name every invocation writes under the results directory
/// (bumped per PR so trajectories diff cleanly: PR 9 wrote
/// `BENCH_PR9.json`).
pub const BENCH_JSON_FILE: &str = "BENCH_PR10.json";

/// JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", cells.join(","))
}

/// Renders one repro invocation: experiment names, wall-clock seconds, and
/// the full table grids.
pub fn render(quick: bool, entries: &[(String, f64, Table)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"wfp-bench/v1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"experiments\": [\n");
    let blocks: Vec<String> = entries
        .iter()
        .map(|(name, elapsed_s, table)| {
            let rows: Vec<String> = table
                .rows()
                .iter()
                .map(|r| format!("        {}", string_array(r)))
                .collect();
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"elapsed_s\": {:.3},\n      \
                 \"title\": \"{}\",\n      \"headers\": {},\n      \"rows\": [\n{}\n      ]\n    }}",
                escape(name),
                elapsed_s,
                escape(table.title()),
                string_array(table.headers()),
                rows.join(",\n"),
            )
        })
        .collect();
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes [`render`]'s output to `<dir>/`[`BENCH_JSON_FILE`].
pub fn emit(dir: &Path, quick: bool, entries: &[(String, f64, Table)]) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(BENCH_JSON_FILE);
    if let Err(e) = fs::write(&path, render(quick, entries)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("[wrote {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<(String, f64, Table)> {
        let mut t = Table::new("Demo \"quoted\"", &["a", "q/s"]);
        t.row(vec!["TCM".into(), "123456".into()]);
        t.row(vec!["BFS".into(), "789".into()]);
        vec![("throughput".to_string(), 1.25, t)]
    }

    #[test]
    fn renders_escaped_well_formed_json() {
        let s = render(true, &sample_entries());
        assert!(s.contains("\"mode\": \"quick\""));
        assert!(s.contains("\"name\": \"throughput\""));
        assert!(s.contains("\"elapsed_s\": 1.250"));
        assert!(s.contains(r#"Demo \"quoted\""#));
        assert!(s.contains(r#"["TCM","123456"]"#));
        // structurally balanced
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape("a\tb\nc"), "a\\tb\\nc");
        assert_eq!(escape("x\u{1}y"), "x\\u0001y");
        assert_eq!(escape(r"back\slash"), r"back\\slash");
    }

    #[test]
    fn emit_writes_the_file() {
        // pid plus test name: concurrent test processes never share it
        let dir = std::env::temp_dir()
            .join("wfp-bench-json-test")
            .join(format!("{}-emit", std::process::id()));
        emit(&dir, false, &sample_entries());
        let body = std::fs::read_to_string(dir.join(BENCH_JSON_FILE)).unwrap();
        assert!(body.contains("\"mode\": \"full\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
