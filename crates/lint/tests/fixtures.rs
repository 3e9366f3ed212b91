//! Fixture tests: the lexer against the source shapes that break
//! naive scanners, the scope scanner's test-code skipping, each rule
//! against a deliberate violation, and the baseline ratchet end to
//! end on a throwaway workspace.

use wave_lint::callgraph::{CallGraph, SourceFile, Workspace};
use wave_lint::effects::Effects;
use wave_lint::lexer::{lex, TokenKind};
use wave_lint::rules::Violation;
use wave_lint::scan::scan_file;

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter(|t| matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
        .map(|t| t.text)
        .collect()
}

/// Full analysis — per-file rules, call-graph rules, waiver
/// application, and the stale-waiver post-pass — over one in-memory
/// file, exactly as `wavectl lint` would see it.
fn violations(path: &str, src: &str) -> Vec<Violation> {
    let ws = Workspace {
        files: vec![SourceFile {
            rel: path.to_string(),
            scan: scan_file(path, src),
        }],
    };
    wave_lint::analyze(&ws).violations
}

#[test]
fn raw_strings_hide_their_contents() {
    // One hash, two hashes, and an inner quote-hash that must not
    // terminate the two-hash literal early.
    let src = r####"
let a = r#"contains .unwrap() and "quotes""#;
let b = r##"still going "# not the end"##;
let c = r"plain raw";
"####;
    let l = lex(src);
    assert_eq!(
        l.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::RawStr)
            .count(),
        3
    );
    assert!(!idents(src).contains(&"unwrap".to_string()));
    // The `not the end` text stayed inside literal `b`.
    assert!(!idents(src).contains(&"not".to_string()));
}

#[test]
fn nested_block_comments_stay_comments() {
    let src = "/* outer /* inner .unwrap() */ still comment */ fn live() {}";
    let l = lex(src);
    assert_eq!(l.comments.len(), 1);
    assert!(l.comments[0].text.contains("inner"));
    assert!(idents(src).contains(&"live".to_string()));
    assert!(!idents(src).contains(&"unwrap".to_string()));
}

#[test]
fn lifetimes_and_char_literals_disambiguate() {
    let src = "fn f<'a>(x: &'a str, l: &'static str) -> char { 'a' }";
    let l = lex(src);
    let lifetimes: Vec<_> = l
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, ["a", "a", "static"]);
    let chars: Vec<_> = l
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Char)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, ["'a'"]);
}

#[test]
fn escaped_and_punct_char_literals_close_correctly() {
    let src = r"let tab = '\t'; let quote = '\''; let brace = '{'; fn after() {}";
    let l = lex(src);
    assert_eq!(
        l.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count(),
        3
    );
    // If any literal leaked, `after` would be swallowed.
    assert!(idents(src).contains(&"after".to_string()));
}

#[test]
fn byte_strings_and_byte_literals() {
    let src = r##"let a = b"bytes with .unwrap()"; let b = br#"raw bytes"#; let c = b'x';"##;
    let l = lex(src);
    assert_eq!(
        l.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::ByteStr)
            .count(),
        1
    );
    assert_eq!(
        l.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::RawStr)
            .count(),
        1
    );
    assert_eq!(
        l.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Byte)
            .count(),
        1
    );
    assert!(!idents(src).contains(&"unwrap".to_string()));
}

#[test]
fn raw_identifiers_are_identifiers() {
    let src = "fn r#match(r#type: u32) {}";
    let ids = idents(src);
    assert!(ids.contains(&"match".to_string()));
    assert!(ids.contains(&"type".to_string()));
}

// In no-panic-path scope but free of obs-span-coverage's required
// entry points, so fixtures see only the rule under test.
const IN_SCOPE: &str = "crates/storage/src/sched.rs";

#[test]
fn cfg_test_items_are_skipped_by_rules() {
    let src = "\
fn live() {
    let x = compute();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Vec<u32> = vec![];
        v.first().unwrap();
    }
}
";
    assert!(violations(IN_SCOPE, src).is_empty());
}

#[test]
fn cfg_not_test_is_live_code() {
    let src = "\
#[cfg(not(test))]
fn live(v: &[u32]) {
    v.first().unwrap();
}
";
    let got = violations(IN_SCOPE, src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].rule, "no-panic-path");
}

#[test]
fn each_rule_fires_on_its_fixture_with_file_and_line() {
    // (rule, fixture). Each fixture is minimal and the expected line
    // is where the marker `HERE` sits.
    let fixtures: &[(&str, &str, &str)] = &[
        (
            "no-panic-path",
            IN_SCOPE,
            "fn f(v: Vec<u32>) {\n    v.first().unwrap(); // HERE\n}\n",
        ),
        (
            "deterministic-core",
            "crates/core/src/driver.rs",
            "fn f() {\n    let t = Instant::now(); // HERE\n}\n",
        ),
        (
            "derived-lock-order",
            "crates/core/src/concurrent.rs",
            "fn f(&self) {\n    let vol = self.vol.lock().unwrap();\n    let wave = self.wave.read().unwrap(); // HERE\n}\n",
        ),
        (
            "unsafe-audit",
            "crates/core/src/index.rs",
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // HERE\n}\n",
        ),
        (
            "counter-registry",
            "crates/core/src/driver.rs",
            "fn f(&self) {\n    self.obs.counter(\"zz.not.in.registry\", 1); // HERE\n}\n",
        ),
        (
            "flush-before-commit",
            "crates/core/src/index.rs",
            "fn build(vol: &mut Volume) {\n    let mut wb = WriteBuffer::new(64);\n    wb.buffer_write(0, 0, &data);\n    commit_wave(&wave, vol, &mut store, &retry); // HERE\n    wb.flush(vol);\n}\n",
        ),
        (
            "settle-exactly-once",
            "crates/core/src/server.rs",
            "enum ArmRequest {\n    Probe { value: u64, reply: Sender<u64> },\n    Kill,\n}\nimpl ArmState {\n    fn handle(&mut self, req: ArmRequest) -> bool {\n        match req {\n            ArmRequest::Probe { value, reply } => true, // HERE\n            ArmRequest::Kill => false,\n        }\n    }\n}\n",
        ),
        (
            "waiver-hygiene",
            IN_SCOPE,
            "fn f(v: Vec<u32>) {\n    // lint: allow(no-panic-path) HERE — but no `--` reason\n    v.first().unwrap();\n}\n",
        ),
    ];
    for (rule, path, src) in fixtures {
        let got = violations(path, src);
        let marker_line = src
            .lines()
            .position(|l| l.contains("HERE"))
            .expect("fixture has a HERE marker") as u32
            + 1;
        assert!(
            got.iter()
                .any(|v| v.rule == *rule && v.file == *path && v.line == marker_line),
            "rule {rule} missing from {got:?} (want line {marker_line})"
        );
    }
}

#[test]
fn waiver_comments_suppress_the_named_rule_only() {
    let src = "\
fn f(v: Vec<u32>) {
    // lint: allow(no-panic-path) -- bounds established by caller
    v.first().unwrap();
}
";
    assert!(violations(IN_SCOPE, src).is_empty());
    // A waiver for a different rule does not help — and because it
    // suppresses nothing and carries no reason, waiver-hygiene flags
    // it twice on top of the undimmed no-panic-path finding.
    let other = "\
fn f(v: Vec<u32>) {
    // lint: allow(deterministic-core)
    v.first().unwrap();
}
";
    let got = violations(IN_SCOPE, other);
    assert!(
        got.iter().any(|v| v.rule == "no-panic-path" && v.line == 3),
        "{got:?}"
    );
    assert!(
        got.iter()
            .any(|v| v.rule == "waiver-hygiene" && v.message.contains("without a reason")),
        "{got:?}"
    );
    assert!(
        got.iter()
            .any(|v| v.rule == "waiver-hygiene" && v.message.contains("stale waiver")),
        "{got:?}"
    );
}

#[test]
fn scanner_handles_generic_fns_with_where_clauses() {
    let src = "\
fn wrap<T, F>(v: Vec<T>, f: F) -> T
where
    F: Fn(&[T]) -> T,
    T: Clone,
{
    v.first().unwrap().clone()
}
";
    let scan = scan_file(IN_SCOPE, src);
    assert_eq!(scan.fns.len(), 1);
    assert_eq!(scan.fns[0].name, "wrap");
    let got = violations(IN_SCOPE, src);
    assert!(
        got.iter().any(|v| v.rule == "no-panic-path" && v.line == 6),
        "{got:?}"
    );
}

#[test]
fn scanner_finds_fns_in_nested_impls_and_nested_fns() {
    let src = "\
struct Outer;
impl Outer {
    fn method(&self) {
        struct Inner;
        impl Inner {
            fn nested_method(&self) {}
        }
        fn nested_free() {}
    }
}
";
    let scan = scan_file("crates/core/src/x.rs", src);
    let names: Vec<&str> = scan.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["method", "nested_method", "nested_free"]);

    // The call graph owns the nested method under `Inner`, not `Outer`.
    let ws = Workspace {
        files: vec![SourceFile {
            rel: "crates/core/src/x.rs".to_string(),
            scan: scan_file("crates/core/src/x.rs", src),
        }],
    };
    let graph = CallGraph::build(&ws);
    let owners: Vec<(String, Option<String>)> = graph
        .fns
        .iter()
        .map(|f| (f.name.clone(), f.owner.clone()))
        .collect();
    assert!(
        owners.contains(&("nested_method".to_string(), Some("Inner".to_string()))),
        "{owners:?}"
    );
    assert!(
        owners.contains(&("method".to_string(), Some("Outer".to_string()))),
        "{owners:?}"
    );
}

#[test]
fn macro_rules_bodies_are_not_call_graph_nodes() {
    let src = "\
macro_rules! make_fn {
    ($name:ident) => {
        fn $name() {
            commit_wave(&w, vol, &mut s, &r);
        }
    };
}
fn real() {}
";
    let ws = Workspace {
        files: vec![SourceFile {
            rel: "crates/core/src/x.rs".to_string(),
            scan: scan_file("crates/core/src/x.rs", src),
        }],
    };
    let graph = CallGraph::build(&ws);
    let names: Vec<&str> = graph.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["real"], "macro template fns must be excluded");
}

#[test]
fn test_attr_fns_are_excluded_from_rules_and_graph() {
    let src = "\
fn live() {}
#[test]
fn t() {
    let v: Vec<u32> = vec![];
    v.first().unwrap();
}
";
    assert!(violations(IN_SCOPE, src).is_empty());
    let ws = Workspace {
        files: vec![SourceFile {
            rel: IN_SCOPE.to_string(),
            scan: scan_file(IN_SCOPE, src),
        }],
    };
    let graph = CallGraph::build(&ws);
    let names: Vec<&str> = graph.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["live"]);
}

/// The inferred guard-helper table must reproduce every edge of
/// wave-lint v1's hand-maintained `HELPER_ACQUIRERS` table — the whole
/// point of deriving it from the call graph. The `route` helpers are
/// checked on the real tree; the `wave` and `vol` helpers were
/// deleted with `SharedWave`, so they are checked on a synthetic file
/// holding their exact former shapes.
#[test]
fn derived_helpers_cover_the_old_hand_table() {
    use wave_lint::rules::derived_lock_order::{derived_helpers, LOCK_ORDER};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = wave_lint::load_workspace(&root).unwrap();
    let graph = CallGraph::build(&ws);
    let fx = Effects::compute(&ws, &graph);
    let helpers = derived_helpers(&graph, &fx);
    let rank = |lock: &str| LOCK_ORDER.iter().position(|n| *n == lock).unwrap() as u8;
    let former = "impl SharedWave {\n\
        fn wave_read(&self) -> IndexResult<RwLockReadGuard<'_, WaveIndex>> {\n\
            self.wave.read().map_err(|_| IndexError::LockPoisoned(\"shared wave structure\"))\n\
        }\n\
        fn wave_write(&self) -> IndexResult<RwLockWriteGuard<'_, WaveIndex>> {\n\
            self.wave.write().map_err(|_| IndexError::LockPoisoned(\"shared wave structure\"))\n\
        }\n\
        fn vol_lock(&self) -> IndexResult<MutexGuard<'_, Volume>> {\n\
            self.vol.lock().map_err(|_| IndexError::LockPoisoned(\"shared volume\"))\n\
        }\n\
    }\n";
    let former_path = "crates/core/src/wave.rs";
    let former_ws = Workspace {
        files: vec![SourceFile {
            rel: former_path.to_string(),
            scan: scan_file(former_path, former),
        }],
    };
    let former_graph = CallGraph::build(&former_ws);
    let former_helpers =
        derived_helpers(&former_graph, &Effects::compute(&former_ws, &former_graph));
    for (table, helper, lock) in [
        (&former_helpers, "wave_read", "wave"),
        (&former_helpers, "wave_write", "wave"),
        (&helpers, "route_read", "route"),
        (&helpers, "route_write", "route"),
        (&former_helpers, "vol_lock", "vol"),
    ] {
        let mask = table.get(helper).copied().unwrap_or(0);
        assert!(
            mask & (1 << rank(lock)) != 0,
            "helper `{helper}` should be inferred to acquire `{lock}`; table: {table:?}"
        );
    }
    // And the settle rule's protocol anchors exist on the real tree —
    // if the enum or primitives were renamed, the rule would silently
    // stop checking anything.
    assert!(
        !graph.ids_named("send_to").is_empty(),
        "send_to must be a call-graph node"
    );
    assert!(
        ws.files
            .iter()
            .any(|f| f.rel == "crates/core/src/server.rs"),
        "server.rs must be scanned"
    );
}

/// The `--json` rendering follows the documented `wave-lint/v2`
/// shape: top-level schema/ok/files_scanned, per-rule rows, and the
/// two-sided drift object — with strings quoted exactly once.
#[test]
fn json_rendering_matches_the_v2_schema() {
    use std::fs;
    let root = std::env::temp_dir().join(format!("wave-lint-json-{}", std::process::id()));
    let src_dir = root.join("crates/storage/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::write(
        src_dir.join("sched.rs"),
        "fn f(v: Vec<u32>) {\n    v.first().unwrap();\n}\n",
    )
    .unwrap();
    wave_lint::run_lint(&root, true).unwrap();
    let gate = wave_lint::run_gate(&root).unwrap();
    let json = wave_lint::render_json(&gate);
    assert!(
        json.starts_with("{\"schema\":\"wave-lint/v2\",\"ok\":true"),
        "{json}"
    );
    assert!(json.contains("\"rule\":\"no-panic-path\""), "{json}");
    assert!(json.contains("\"files_scanned\":1"), "{json}");
    assert!(
        json.contains("\"drift\":{\"grown\":[],\"stale\":[]}"),
        "{json}"
    );
    assert!(!json.contains("\"\""), "double-quoted string in {json}");
    fs::remove_dir_all(&root).unwrap();
}

/// The full gate on a throwaway workspace: freeze, grow, shrink.
#[test]
fn baseline_ratchet_end_to_end() {
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "wave-lint-fixture-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let src_dir = root.join("crates/storage/src");
    fs::create_dir_all(&src_dir).unwrap();
    let file = src_dir.join("sched.rs");

    // One violation, frozen.
    fs::write(&file, "fn f(v: Vec<u32>) {\n    v.first().unwrap();\n}\n").unwrap();
    let fix = wave_lint::run_lint(&root, true).unwrap();
    assert!(fix.ok, "{}", fix.report);
    let check = wave_lint::run_lint(&root, false).unwrap();
    assert!(check.ok, "{}", check.report);
    assert!(check.report.contains("clean"));

    // Growth fails and names rule, file, line.
    fs::write(
        &file,
        "fn f(v: Vec<u32>) {\n    v.first().unwrap();\n    v.last().unwrap();\n}\n",
    )
    .unwrap();
    let grown = wave_lint::run_lint(&root, false).unwrap();
    assert!(!grown.ok);
    assert!(grown.report.contains("no-panic-path"), "{}", grown.report);
    assert!(
        grown.report.contains("crates/storage/src/sched.rs:3"),
        "{}",
        grown.report
    );

    // Shrinkage also fails (stale baseline), pointing at --fix-baseline.
    fs::write(&file, "fn f(v: Vec<u32>) {}\n").unwrap();
    let stale = wave_lint::run_lint(&root, false).unwrap();
    assert!(!stale.ok);
    assert!(stale.report.contains("STALE"), "{}", stale.report);
    assert!(stale.report.contains("--fix-baseline"), "{}", stale.report);

    // Regenerating is the sanctioned way out.
    let refix = wave_lint::run_lint(&root, true).unwrap();
    assert!(refix.ok);
    assert!(wave_lint::run_lint(&root, false).unwrap().ok);

    fs::remove_dir_all(&root).unwrap();
}
