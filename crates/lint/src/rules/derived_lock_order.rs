//! `derived-lock-order`: locks are acquired in one documented global
//! order, with guard-returning helpers *inferred from the call graph*
//! instead of hand-listed.
//!
//! Locks that nest are deadlock-free only because of their *order*.
//! Today the only ranked lock in the tree is `WaveServer`'s route
//! table. The `wave` rank (a shared wave's slot table, taken before a
//! shared volume's mutex) and the `vol` rank have no owner; they stay
//! declared so any future shared wave or volume nests in a defined
//! order. This rule makes the order machine-checked, in two layers:
//!
//! * **Leaf facts** (unchanged from wave-lint v1): within a function
//!   body, an acquisition is `<name>.lock()` / `.read()` / `.write()`
//!   where `<name>` is in [`LOCK_ORDER`]. A `let`-bound guard is held
//!   to the end of its enclosing block (or an explicit `drop(guard)`);
//!   a guard in a `match`/`if`/`while` scrutinee likewise; any other
//!   acquisition is a temporary released at the end of its statement.
//! * **Derived facts** (new in v2): the set of guard-returning
//!   helpers — `route_read`, `route_write`, and whatever gets added next
//!   — is no longer a hand-maintained table. [`crate::effects`]
//!   derives it: any production fn whose signature returns a `*Guard`
//!   type and whose body acquires exactly one [`LOCK_ORDER`] lock
//!   (directly or by delegating to another derived helper) counts as
//!   an acquisition of that lock at its call sites. On top of that,
//!   calling a function that *transitively* may acquire lock `L`
//!   while holding a lock ranked after `L` (or holding `L` itself) is
//!   flagged: the acquisition happens beneath the call, where v1 was
//!   blind.
//!
//! Conservative where it stays useful: transitive acquisition is a
//! *may*-fact (a callee that takes and releases `L` internally still
//! counts — the inverted order is a real cross-thread hazard even
//! when transient). But transitive masks only flow through
//! *unambiguous* call sites; a fan-out site (a method name matching
//! several impls) would attribute a stranger's locks to this call and
//! drown the signal, so those sites contribute nothing here. False
//! positives are waivable with a reason.
//!
//! [`LOCK_ORDER`] itself stays declared — it is the ordering policy
//! (ARCHITECTURE.md "Lock order"), not an implementation fact, so it
//! cannot be inferred from code that is supposed to be checked
//! against it.

use std::collections::{BTreeMap, HashMap};

use crate::callgraph::{CallGraph, Workspace};
use crate::effects::Effects;
use crate::lexer::{Token, TokenKind};
use crate::rules::{GraphRule, Violation};

/// The global acquisition order, outermost first. `route` (the
/// `WaveServer` routing table) is the only ranked lock in the tree;
/// `wave` (a shared wave's slot table) and `vol` (a shared volume's
/// mutex) currently have no owner and keep their ranks so any future
/// pairing has a defined order.
pub const LOCK_ORDER: &[&str] = &["wave", "route", "vol"];

/// Path prefix the rule applies to.
const SCOPE: &str = "crates/core/src/";

fn rank(name: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|n| *n == name)
}

/// When a held guard is released again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Release {
    /// At the end of the block it was acquired in (a `let` binding or
    /// a `match`/`if` scrutinee temporary).
    BlockEnd,
    /// At the end of the acquiring statement (a plain temporary).
    StmtEnd,
}

#[derive(Debug)]
struct Held {
    rank: usize,
    depth: i32,
    release: Release,
    binding: Option<String>,
}

/// See the [module docs](self).
pub struct DerivedLockOrder;

/// The inferred helper table: fn name → bitmask of [`LOCK_ORDER`]
/// ranks it acquires on behalf of its caller. Public so the fixture
/// tests can assert it reproduces (and extends) wave-lint v1's
/// hand-maintained `HELPER_ACQUIRERS` table.
pub fn derived_helpers(graph: &CallGraph, fx: &Effects) -> BTreeMap<String, u8> {
    let mut out: BTreeMap<String, u8> = BTreeMap::new();
    for (id, helper) in fx.guard_helper.iter().enumerate() {
        if let Some(r) = helper {
            *out.entry(graph.fns[id].name.clone()).or_insert(0) |= 1 << r;
        }
    }
    out
}

impl GraphRule for DerivedLockOrder {
    fn name(&self) -> &'static str {
        "derived-lock-order"
    }

    fn description(&self) -> &'static str {
        "locks must follow the documented global order (helpers inferred from the call graph)"
    }

    fn check(&self, ws: &Workspace, graph: &CallGraph, fx: &Effects, out: &mut Vec<Violation>) {
        let helpers = derived_helpers(graph, fx);
        for id in 0..graph.fns.len() {
            let f = &graph.fns[id];
            let rel = &ws.files[f.file].rel;
            if !rel.starts_with(SCOPE) {
                continue;
            }
            // Per-site callee resolution from the graph build. Only
            // unambiguous sites carry transitive lock masks: fan-out
            // on a common method name would attribute some stranger's
            // locks to this call (see the note in `Effects::compute`).
            let mut by_tok: HashMap<usize, Vec<usize>> = HashMap::new();
            for &(tok, callee) in &graph.sites[id] {
                by_tok.entry(tok).or_default().push(callee);
            }
            let mut site_locks: HashMap<usize, (u8, usize)> = HashMap::new();
            for (tok, mut cands) in by_tok {
                cands.sort_unstable();
                cands.dedup();
                if let [only] = cands[..] {
                    if fx.locks[only] != 0 {
                        site_locks.insert(tok, (fx.locks[only], only));
                    }
                }
            }
            // Skip nested fn bodies — they are their own graph nodes.
            let inner: Vec<std::ops::Range<usize>> = graph
                .fns
                .iter()
                .filter(|g| {
                    g.file == f.file && g.body.start > f.body.start && g.body.end <= f.body.end
                })
                .map(|g| g.body.clone())
                .collect();
            let mut found = Vec::new();
            check_fn(
                self.name(),
                rel,
                &ws.files[f.file].scan.tokens,
                f.body.clone(),
                &inner,
                &helpers,
                &site_locks,
                graph,
                &mut found,
            );
            found.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
            found.dedup();
            out.extend(found);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_fn(
    rule: &'static str,
    rel_path: &str,
    toks: &[Token],
    body: std::ops::Range<usize>,
    inner: &[std::ops::Range<usize>],
    helpers: &BTreeMap<String, u8>,
    site_locks: &HashMap<usize, (u8, usize)>,
    graph: &CallGraph,
    out: &mut Vec<Violation>,
) {
    let mut depth: i32 = 0;
    let mut held: Vec<Held> = Vec::new();

    for i in body.clone() {
        if inner.iter().any(|r| r.contains(&i)) {
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            TokenKind::Punct(';') => {
                held.retain(|h| !(h.release == Release::StmtEnd && h.depth >= depth));
            }
            TokenKind::Ident | TokenKind::RawIdent => {
                // drop(<binding>) releases that guard early.
                if t.is_ident("drop")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
                {
                    if let Some(arg) = toks.get(i + 2) {
                        held.retain(|h| h.binding.as_deref() != Some(arg.text.as_str()));
                    }
                }

                // Direct or helper acquisition: a guard materializes
                // in *this* body.
                let acquired_mask = acquisition_at(toks, i, body.start, helpers);
                if acquired_mask != 0 {
                    for new_rank in mask_ranks(acquired_mask) {
                        report_conflicts(rule, rel_path, t, new_rank, &held, None, out);
                        let (release, binding) = statement_context(toks, i, body.start);
                        held.push(Held {
                            rank: new_rank,
                            depth,
                            release,
                            binding,
                        });
                    }
                    continue;
                }

                // Call-aware check: the callee (or something beneath
                // it) may acquire locks while our guards are held.
                if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                    if let Some(&(mask, example)) = site_locks.get(&i) {
                        for callee_rank in mask_ranks(mask) {
                            report_conflicts(
                                rule,
                                rel_path,
                                t,
                                callee_rank,
                                &held,
                                Some(graph.label(example)),
                                out,
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

fn mask_ranks(mask: u8) -> impl Iterator<Item = usize> {
    (0..LOCK_ORDER.len()).filter(move |r| mask & (1 << r) != 0)
}

fn report_conflicts(
    rule: &'static str,
    rel_path: &str,
    t: &Token,
    new_rank: usize,
    held: &[Held],
    via: Option<String>,
    out: &mut Vec<Violation>,
) {
    let name = LOCK_ORDER[new_rank];
    let via_txt = via
        .as_deref()
        .map(|v| format!(" via call to `{v}`"))
        .unwrap_or_default();
    for h in held {
        let held_name = LOCK_ORDER[h.rank];
        if h.rank == new_rank {
            out.push(Violation {
                rule,
                file: rel_path.to_string(),
                line: t.line,
                message: format!(
                    "re-acquiring `{name}`{via_txt} while a `{name}` guard is still held"
                ),
            });
        } else if h.rank > new_rank {
            out.push(Violation {
                rule,
                file: rel_path.to_string(),
                line: t.line,
                message: format!(
                    "acquiring `{name}`{via_txt} while holding `{held_name}` reverses the \
                     documented order {LOCK_ORDER:?} (see ARCHITECTURE.md \"Lock order\")"
                ),
            });
        }
    }
}

/// Bitmask of locks the token at `i` acquires *into this body*: a
/// direct `<name>.lock()/.read()/.write()`, or a call to a derived
/// guard helper.
fn acquisition_at(
    toks: &[Token],
    i: usize,
    body_start: usize,
    helpers: &BTreeMap<String, u8>,
) -> u8 {
    let t = &toks[i];
    // `<name>.lock()` / `.read()` / `.write()`
    if matches!(t.text.as_str(), "lock" | "read" | "write")
        && i >= body_start + 2
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
    {
        let recv = &toks[i - 2];
        if matches!(recv.kind, TokenKind::Ident | TokenKind::RawIdent) {
            if let Some(r) = rank(&recv.text) {
                return 1 << r;
            }
        }
    }
    // Derived guard helper: `route_read(` etc.
    if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        // Definitions (`fn route_read(`) are not acquisitions.
        if i > 0 && toks[i - 1].is_ident("fn") {
            return 0;
        }
        if let Some(mask) = helpers.get(t.text.as_str()) {
            return *mask;
        }
    }
    0
}

/// Classifies the statement an acquisition at token `i` lives in, by
/// scanning back to the start of the statement: `let`-bound guards
/// (and `match`/`if`/`while` scrutinee temporaries) live to the end
/// of the enclosing block; anything else dies at the statement's `;`.
/// For `let` bindings, also extracts the bound identifier so a later
/// `drop(ident)` can release it.
fn statement_context(toks: &[Token], i: usize, body_start: usize) -> (Release, Option<String>) {
    let mut k = i;
    while k > body_start {
        let p = &toks[k - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        k -= 1;
    }
    let stmt = &toks[k..i];
    if stmt.first().is_some_and(|t| t.is_ident("let")) {
        let binding = stmt
            .iter()
            .skip(1)
            .find(|t| {
                matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) && !t.is_ident("mut")
            })
            .map(|t| t.text.clone());
        return (Release::BlockEnd, binding);
    }
    if stmt
        .iter()
        .any(|t| t.is_ident("match") || t.is_ident("if") || t.is_ident("while"))
    {
        return (Release::BlockEnd, None);
    }
    (Release::StmtEnd, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::SourceFile;
    use crate::scan::scan_file;

    fn run(src: &str) -> Vec<Violation> {
        let path = "crates/core/src/concurrent.rs";
        let ws = Workspace {
            files: vec![SourceFile {
                rel: path.to_string(),
                scan: scan_file(path, src),
            }],
        };
        let graph = CallGraph::build(&ws);
        let fx = Effects::compute(&ws, &graph);
        let mut out = Vec::new();
        DerivedLockOrder.check(&ws, &graph, &fx, &mut out);
        out
    }

    #[test]
    fn correct_order_is_clean() {
        let src = "fn f(&self) {\n    let wave = self.wave.read().unwrap();\n    let vol = self.vol.lock().unwrap();\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn reversed_order_is_flagged() {
        let src = "fn f(&self) {\n    let vol = self.vol.lock().unwrap();\n    let wave = self.wave.read().unwrap();\n}\n";
        let got = run(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 3);
        assert!(got[0].message.contains("reverses"));
    }

    #[test]
    fn reacquisition_is_flagged_and_block_scoping_releases() {
        let bad = "fn f(&self) {\n    let a = self.vol.lock().unwrap();\n    let b = self.vol.lock().unwrap();\n}\n";
        assert_eq!(run(bad).len(), 1);

        // Per-iteration guard: released at the loop body's `}`.
        let ok = "fn f(&self) {\n    for x in 0..2 {\n        let vol = self.vol.lock().unwrap();\n    }\n    let wave = self.wave.read().unwrap();\n}\n";
        assert!(run(ok).is_empty(), "{:?}", run(ok));
    }

    #[test]
    fn drop_and_statement_temporaries_release() {
        let ok = "fn f(&self) {\n    let vol = self.vol.lock().unwrap();\n    drop(vol);\n    let wave = self.wave.read().unwrap();\n}\n";
        assert!(run(ok).is_empty(), "{:?}", run(ok));

        let ok2 = "fn f(&self) {\n    self.vol.lock().unwrap().tick();\n    let wave = self.wave.read().unwrap();\n}\n";
        assert!(run(ok2).is_empty(), "{:?}", run(ok2));
    }

    #[test]
    fn derived_helpers_count_without_a_hand_table() {
        // `route_read` is nowhere hand-listed: the analysis must infer
        // it from its Guard-returning signature + single acquisition.
        let src = "impl S {\n\
            fn route_read(&self) -> IndexResult<RwLockReadGuard<'_, Route>> {\n\
                self.route.read().map_err(poisoned)\n\
            }\n\
            fn f(&self) {\n\
                let vol = self.vol.lock().unwrap();\n\
                let route = self.route_read().unwrap();\n\
            }\n\
        }\n";
        let got = run(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`route`"), "{got:?}");
        assert!(got[0].message.contains("reverses"), "{got:?}");
    }

    #[test]
    fn transitive_acquisition_through_a_call_is_flagged() {
        let src = "impl S {\n\
            fn takes_wave(&self) { let g = self.wave.read().unwrap(); g.tick(); }\n\
            fn f(&self) {\n\
                let vol = self.vol.lock().unwrap();\n\
                self.takes_wave();\n\
            }\n\
        }\n";
        let got = run(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(
            got[0].message.contains("via call to `S::takes_wave`"),
            "{got:?}"
        );
        assert!(got[0].message.contains("reverses"), "{got:?}");
    }

    #[test]
    fn transitive_acquisition_in_the_right_order_is_clean() {
        let src = "impl S {\n\
            fn takes_vol(&self) { let g = self.vol.lock().unwrap(); g.tick(); }\n\
            fn f(&self) {\n\
                let wave = self.wave.read().unwrap();\n\
                self.takes_vol();\n\
            }\n\
        }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }
}
