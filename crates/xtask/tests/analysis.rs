//! Integration tests for the static analyzer: the real workspace must be
//! clean under the committed baseline, and each bad fixture under
//! `tests/fixtures/` must fail its rule.

use std::path::PathBuf;
use xtask::analysis::{self, allow::AllowList, callgraph::CallGraph, locks, report, Workspace};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

fn real_workspace() -> Workspace {
    Workspace::load(&repo_root()).expect("load workspace sources")
}

fn committed_baseline() -> AllowList {
    let text = std::fs::read_to_string(repo_root().join("lint-allow.toml"))
        .expect("committed lint-allow.toml");
    AllowList::parse("lint-allow.toml", &text).expect("baseline parses")
}

fn fixture_ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_sources(
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    )
}

#[test]
fn real_workspace_is_clean_under_committed_baseline() {
    let ws = real_workspace();
    assert!(ws.files.len() > 20, "workspace scan looks truncated");
    let findings = analysis::analyze(&ws, &committed_baseline());
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn baseline_entries_all_cover_live_findings() {
    // Every committed allow entry must still match something; otherwise
    // analyze() would emit stale-allow findings (covered above), but this
    // pins the *raw* findings to being exactly the baselined set.
    let ws = real_workspace();
    let raw = analysis::analyze_raw(&ws);
    let baseline = committed_baseline();
    assert!(
        !baseline.entries.is_empty(),
        "baseline exists to exercise the suppression path"
    );
    for f in &raw {
        assert!(
            baseline
                .entries
                .iter()
                .any(|e| f.rule == e.rule && f.path.starts_with(&e.path)),
            "un-baselined finding: {f}"
        );
    }
}

#[test]
fn real_lock_graph_is_nontrivial_and_acyclic() {
    let ws = real_workspace();
    let graph = CallGraph::build(&ws);
    let locks = locks::lock_graph(&ws, &graph);
    // The TCP transport alone has a dozen acquisition sites; if the
    // analysis sees far fewer, it has gone blind, and an "acyclic"
    // verdict over a graph it cannot see proves nothing.
    assert!(
        locks.sites.len() >= 10,
        "expected >=10 lock acquisition sites, saw {}",
        locks.sites.len()
    );
    // Reactor-era classes: per-link outbound queues and the shards'
    // cross-thread injection lists.
    assert!(locks.classes().contains("queue"), "{:?}", locks.classes());
    assert!(locks.classes().contains("inject"), "{:?}", locks.classes());
    let cycles = locks.cycles();
    assert!(cycles.is_empty(), "lock-order cycles: {cycles:?}");
}

#[test]
fn lock_cycle_fixture_fails_the_gate() {
    let ws = fixture_ws(&[
        (
            "crates/net/src/chan.rs",
            include_str!("fixtures/lock_cycle_net.rs"),
        ),
        (
            "crates/simnet/src/chan.rs",
            include_str!("fixtures/lock_cycle_sim.rs"),
        ),
    ]);
    let findings = analysis::analyze_raw(&ws);
    let cycles: Vec<_> = findings.iter().filter(|f| f.rule == "lock-order").collect();
    assert_eq!(cycles.len(), 1, "{findings:?}");
    assert_eq!(cycles[0].snippet, "inbox -> links -> inbox");
    // The witness text names both crates' files — the cycle only exists
    // across the crate boundary.
    assert!(cycles[0].detail.contains("crates/net/src/chan.rs"));
    assert!(cycles[0].detail.contains("crates/simnet/src/chan.rs"));
}

#[test]
fn allowlisted_lock_cycle_passes_without_stale_entries() {
    let ws = fixture_ws(&[
        (
            "crates/net/src/chan.rs",
            include_str!("fixtures/lock_cycle_net.rs"),
        ),
        (
            "crates/simnet/src/chan.rs",
            include_str!("fixtures/lock_cycle_sim.rs"),
        ),
    ]);
    let allow = AllowList::parse(
        "lock_cycle_allow.toml",
        include_str!("fixtures/lock_cycle_allow.toml"),
    )
    .expect("fixture baseline parses");
    let findings = analysis::analyze(&ws, &allow);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wire_panic_fixture_fails_the_gate() {
    let ws = fixture_ws(&[(
        "crates/net/src/frame.rs",
        include_str!("fixtures/wire_panic.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["wire-panic", "wire-panic"], "{findings:?}");
    assert!(findings.iter().any(|f| f.detail.contains("`.unwrap()`")));
    assert!(findings.iter().any(|f| f.detail.contains("unchecked `+`")));
}

#[test]
fn layering_fixture_fails_the_gate() {
    let ws = fixture_ws(&[(
        "crates/replica/src/reporter.rs",
        include_str!("fixtures/layering_bypass.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["layering", "layering"], "{findings:?}");
    assert!(findings.iter().any(|f| f.detail.contains("Transport")));
    assert!(findings
        .iter()
        .any(|f| f.detail.contains("StackWire::Heartbeat")));
}

#[test]
fn determinism_fixture_fails_the_gate() {
    let ws = fixture_ws(&[(
        "crates/clocks/src/wall.rs",
        include_str!("fixtures/determinism.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    assert!(!findings.is_empty());
    assert!(
        findings.iter().all(|f| f.rule == "determinism"),
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.detail.contains("Instant::now")));
}

#[test]
fn hotpath_alloc_fixture_fails_the_gate() {
    let ws = fixture_ws(&[(
        "crates/net/src/reactor.rs",
        include_str!("fixtures/hotpath_alloc.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let allocs: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "hotpath-alloc")
        .collect();
    assert_eq!(allocs.len(), 2, "{findings:?}");
    // One directly in a root, one only reachable through the call graph.
    assert!(
        allocs
            .iter()
            .any(|f| f.detail.contains("Vec::with_capacity")
                && f.detail.contains("Shard::flush_conn"))
    );
    assert!(allocs
        .iter()
        .any(|f| f.detail.contains(".to_vec()") && f.detail.contains("Shard::step")));
    // The vec! in cold_setup sits outside the cone and stays unflagged.
    assert!(
        !findings.iter().any(|f| f.detail.contains("cold_setup")),
        "{findings:?}"
    );
}

#[test]
fn reactor_blocking_fixture_fails_the_gate() {
    let ws = fixture_ws(&[(
        "crates/net/src/reactor.rs",
        include_str!("fixtures/reactor_blocking.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let blocking: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "reactor-blocking")
        .collect();
    assert_eq!(blocking.len(), 2, "{findings:?}");
    assert!(blocking
        .iter()
        .any(|f| f.detail.contains("`.recv()`") && f.detail.contains("Shard::run")));
    assert!(blocking
        .iter()
        .any(|f| f.detail.contains("held across") && f.detail.contains("sys::writev_fd")));
    // Off-shard blocking in driver_thread stays unflagged.
    assert!(
        !findings.iter().any(|f| f.detail.contains("driver_thread")),
        "{findings:?}"
    );
}

#[test]
fn unsafe_ffi_fixture_fails_the_gate() {
    let ws = fixture_ws(&[
        (
            "crates/net/src/sys.rs",
            include_str!("fixtures/unsafe_ffi.rs"),
        ),
        (
            "crates/core/src/stack.rs",
            "fn sneak(p: *const u8) -> u8 { unsafe { *p } }",
        ),
    ]);
    let findings = analysis::analyze_raw(&ws);
    let ffi: Vec<_> = findings.iter().filter(|f| f.rule == "unsafe-ffi").collect();
    assert!(
        ffi.iter()
            .any(|f| f.detail.contains("no matching `a.len()`")),
        "{findings:?}"
    );
    assert!(
        ffi.iter()
            .any(|f| f.detail.contains("neither `cvt`-checked")),
        "{findings:?}"
    );
    assert!(
        ffi.iter()
            .any(|f| f.detail.contains("outside the audited FFI module")),
        "{findings:?}"
    );
    // Every audited-module block lands in the inventory — including the
    // clean one, which produced no finding.
    let inv = analysis::unsafeffi::inventory(&ws);
    assert_eq!(inv.len(), 3, "{inv:?}");
    assert!(inv
        .iter()
        .any(|e| e.func == "well_behaved" && e.check == "cvt-checked; ptr/len paired (buf)"));
}

#[test]
fn unsafe_ffi_inventory_covers_every_sys_unsafe_block() {
    let ws = real_workspace();
    let inv = analysis::unsafeffi::inventory(&ws);
    let sys = std::fs::read_to_string(repo_root().join("crates/net/src/sys.rs"))
        .expect("read crates/net/src/sys.rs");
    let raw_count = sys.matches("unsafe {").count();
    assert!(raw_count > 0, "sys.rs lost its unsafe blocks?");
    assert_eq!(
        inv.len(),
        raw_count,
        "inventory must cover 100% of sys.rs unsafe blocks"
    );
    assert!(inv.iter().all(|e| e.path == "crates/net/src/sys.rs"));
}

#[test]
fn bounded_growth_fixture_fails_the_gate() {
    let ws = fixture_ws(&[(
        "crates/core/src/delivery/pcbcast/engine.rs",
        include_str!("fixtures/growth_unbounded.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let growth: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "bounded-growth")
        .collect();
    assert_eq!(growth.len(), 3, "{findings:?}");
    // Two grow-only fields…
    assert!(growth
        .iter()
        .any(|f| f.snippet.contains("links") && f.detail.contains("never shrinks")));
    assert!(growth
        .iter()
        .any(|f| f.snippet.contains("watermark") && f.detail.contains("never shrinks")));
    // …and one whose only shrink lives outside the GC cone.
    assert!(growth.iter().any(|f| f.snippet.contains("gate")
        && f.detail.contains("`cleanup`")
        && f.detail.contains("not reachable from any declared GC root")));
}

#[test]
fn bounded_growth_sees_id_window_fields() {
    let ws = fixture_ws(&[(
        "crates/core/src/rbcast.rs",
        include_str!("fixtures/growth_window.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let growth: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "bounded-growth")
        .collect();
    // `seen` (only inserted into) and `gated` (only offered to) are
    // flagged: `outgoing` is retired by `on_ack`, a root, and `released`
    // is drained by `pop_next` in `compact`, another.
    assert_eq!(growth.len(), 2, "{findings:?}");
    assert!(growth[0].snippet.contains("seen"), "{:?}", growth[0]);
    assert!(growth[1].snippet.contains("gated"), "{:?}", growth[1]);
    for finding in growth {
        assert!(
            finding.detail.contains("(IdWindow<…>) never shrinks"),
            "{}",
            finding.detail
        );
    }
}

#[test]
fn atomic_ordering_fixture_fails_the_gate() {
    let ws = fixture_ws(&[(
        "crates/net/src/conn.rs",
        include_str!("fixtures/atomic_ordering.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let atomics: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "atomic-ordering")
        .collect();
    // mode: Relaxed/Relaxed CAS + Relaxed load + Relaxed store; dirty:
    // Relaxed swap. The `frames` counter must stay clean.
    assert_eq!(atomics.len(), 4, "{findings:?}");
    assert!(atomics
        .iter()
        .any(|f| f.detail.contains("compare_exchange") && f.detail.contains("failure")));
    assert!(atomics.iter().any(|f| f.detail.contains("must be Acquire")));
    assert!(atomics.iter().any(|f| f.detail.contains("must be Release")));
    assert!(atomics
        .iter()
        .any(|f| f.detail.contains("dirty.swap") && f.detail.contains("AcqRel")));
    assert!(
        !findings.iter().any(|f| f.detail.contains("frames")),
        "counter fields must not be flagged: {findings:?}"
    );
}

#[test]
fn wire_symmetry_fixture_fails_the_gate() {
    let ws = fixture_ws(&[(
        "crates/core/src/wire.rs",
        include_str!("fixtures/wire_asymmetry.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let sym: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "wire-symmetry")
        .collect();
    assert_eq!(sym.len(), 4, "{findings:?}");
    assert!(sym
        .iter()
        .any(|f| f.detail.contains("TAG_FX_C") && f.detail.contains("reuses wire value 1")));
    assert!(sym
        .iter()
        .any(|f| f.detail.contains("TAG_FX_B") && f.detail.contains("never decoded")));
    assert!(sym
        .iter()
        .any(|f| f.detail.contains("TAG_FX_C") && f.detail.contains("never encoded")));
    assert!(sym.iter().any(|f| f.detail.contains("token, cum")
        && f.detail.contains("cum, token")
        && f.detail.contains("same wire order")));
}

#[test]
fn rule_inventory_matches_the_rules_that_can_fire() {
    // Every rule id a pass can emit must be listed in RULES (CI consumes
    // `--list-rules`, so an unlisted rule would dodge the budget and
    // reviewers), and ids must be unique.
    let ids: Vec<&str> = analysis::RULES.iter().map(|r| r.id).collect();
    let mut deduped = ids.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), ids.len(), "duplicate rule ids: {ids:?}");
    for expected in [
        "determinism",
        "layering",
        "wire-panic",
        "lock-order",
        "hotpath-alloc",
        "reactor-blocking",
        "unsafe-ffi",
        "bounded-growth",
        "atomic-ordering",
        "wire-symmetry",
        "stale-allow",
    ] {
        assert!(ids.contains(&expected), "missing rule {expected}: {ids:?}");
    }
    assert_eq!(ids.len(), 11, "update this test when adding rules");
    assert!(analysis::RULES.iter().all(|r| !r.summary.is_empty()));
}

#[test]
fn findings_are_deterministically_ordered() {
    let ws = real_workspace();
    let key = |f: &xtask::analysis::Finding| (f.rule, f.path.clone(), f.line);
    let keys: Vec<_> = analysis::analyze_raw(&ws).iter().map(key).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must sort by (rule, path, line)");
    // And byte-stable across runs over the same sources.
    let again: Vec<_> = analysis::analyze_raw(&ws).iter().map(key).collect();
    assert_eq!(keys, again);
}

#[test]
fn json_output_round_trips_the_fixture_findings() {
    let ws = fixture_ws(&[(
        "crates/net/src/frame.rs",
        include_str!("fixtures/wire_panic.rs"),
    )]);
    let findings = analysis::analyze_raw(&ws);
    let json = report::render(&findings, report::Format::Json);
    assert!(json.starts_with("{\"findings\":["));
    assert!(json.trim_end().ends_with(&format!(
        "\"count\":{},\"unsafe_ffi_inventory\":[]}}",
        findings.len()
    )));
    assert!(json.contains("\"rule\":\"wire-panic\""));
    assert!(json.contains("\"path\":\"crates/net/src/frame.rs\""));
    // The GitHub renderer emits one annotation per finding.
    let gh = report::render(&findings, report::Format::Github);
    assert_eq!(gh.lines().count(), findings.len());
    assert!(gh.lines().all(|l| l.starts_with("::error file=")));
}
