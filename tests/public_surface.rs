//! Public surface = called surface (DESIGN.md §6). A `pub fn` in the
//! non-test part of a `crates/*/src` file whose name is mentioned
//! nowhere else in product code (`crates/*/src` and `src/` before their
//! first `#[cfg(test)]`, anything under `benchmark/`) is either called,
//! narrowed, deleted — or listed here with the reason it stays. Same
//! for a whole file none of whose top-level `pub` items is mentioned
//! (comments and `pub use` re-exports aside) outside it: entry `*`.
//! One-directional on purpose: a generic name (`new`) is never flagged,
//! so the rule has no false failures. Reads `benchmark/`, writes
//! nothing.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::Path;

/// One group per paragraph: `# why these stay public without a product
/// caller`, then `file: name name …` lines (`*` is the whole file).
const ALLOW: &str = "
# TransitionLog, DrainReport and the journal capacity: the harness of every fault and recovery suite
crates/switchless-core/src/fault.rs: illegal_edges is_clean
crates/switchless-core/src/recovery.rs: with_journal_slots

# the four exporters are telemetry's output; deployers, examples and trace pins call them
crates/zc-telemetry/src/export.rs: canonical_jsonl events_to_jsonl to_chrome_trace to_prometheus

# options and per-request inputs that the examples and the integration suites do set
crates/switchless-core/src/config.rs: with_initial_workers with_quantum_ms
crates/switchless-core/src/config.rs: with_respawn with_retries_before_fallback
crates/switchless-core/src/config.rs: with_retries_before_sleep
crates/switchless-core/src/supervise.rs: with_poison_threshold with_probation_cycles
crates/switchless-core/src/overload.rs: with_breaker with_brownout with_max_inflight
crates/switchless-core/src/func.rs: with_deadline_at with_priority
crates/des/src/sim.rs: with_gantt

# state the suites assert on and the examples print; nothing in the runtimes needs it
crates/switchless-core/src/policy.rs: settled_workers shifting
crates/switchless-core/src/supervise.rs: serving_workers
crates/des/src/kernel.rs: thread_cycles
crates/des/src/metrics.rs: goodput_ratio
crates/sgx-sim/src/clock.rs: is_virtual
crates/sgx-sim/src/hostfs.rs: file_contents file_size
crates/intel-switchless/src/pool.rs: from_raw is_done

# entry points for callers outside the product: demo machine, ecalls, [rings]' batch client
crates/switchless-core/src/cpu.rs: host_machine
crates/zc-switchless/src/runtime.rs: start_ecalls
crates/workloads/src/lmbench.rs: *
";

/// Every readable file under `dir` as `(path, text)`, its `pub use …;`
/// re-exports cut out (naming an item is not using it); a `product`
/// file's text ends at its first `#[cfg(test)]`.
fn read(dir: &Path, product: bool, out: &mut Vec<(String, String)>) {
    for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("out") {
                read(&path, product, out);
            }
        } else if let Ok(mut text) = fs::read_to_string(&path) {
            let cut = text.find("#[cfg(test)]").filter(|_| product);
            text.truncate(cut.unwrap_or(text.len()));
            while let Some(start) = text.find("pub use ") {
                let end = text[start..]
                    .find(';')
                    .map_or(text.len(), |e| start + e + 1);
                text.replace_range(start..end, "");
            }
            let file = path.strip_prefix(env!("CARGO_MANIFEST_DIR")).unwrap();
            out.push((file.to_str().unwrap().to_string(), text));
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The word after each `marker` that itself starts a word.
fn named<'a>(text: &'a str, marker: &'a str) -> impl Iterator<Item = &'a str> {
    text.match_indices(marker)
        .filter(|&(i, _)| !text[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
        .filter_map(move |(i, _)| words(&text[i + marker.len()..]).next())
}

const ITEMS: [&str; 7] = [
    "struct ", "enum ", "trait ", "type ", "const ", "static ", "fn ",
];

#[test]
fn every_public_function_is_called_or_allowlisted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut corpus = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        read(&krate.unwrap().path().join("src"), true, &mut corpus);
    }
    let scanned = corpus.len();
    read(&root.join("src"), true, &mut corpus);
    read(&root.join("benchmark"), false, &mut corpus);

    // Mentions of each word anywhere, and the files whose code mentions it.
    let mut mentions: HashMap<&str, usize> = HashMap::new();
    let mut mentioned_in: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (file, text) in &corpus {
        words(text).for_each(|w| *mentions.entry(w).or_default() += 1);
        let code = text.lines().map(|l| l.split("//").next().unwrap());
        for w in code.flat_map(words) {
            mentioned_in.entry(w).or_default().insert(file);
        }
    }
    let mut flagged = BTreeSet::new();
    for (file, text) in &corpus[..scanned] {
        let uncalled = named(text, "pub fn ").filter(|n| mentions[n] == 1);
        flagged.extend(uncalled.map(|n| (file.as_str(), n)));
        let top_level = text.lines().filter(|l| l.starts_with("pub "));
        let items: Vec<&str> = top_level
            .filter_map(|l| ITEMS.iter().find_map(|kind| named(l, kind).next()))
            .collect();
        if !items.is_empty() && items.iter().all(|i| mentioned_in[i].len() == 1) {
            flagged.insert((file.as_str(), "*"));
        }
    }
    let mut allowed = BTreeSet::new();
    for group in ALLOW.trim().split("\n\n") {
        let (reason, entries) = group.split_once('\n').unwrap_or(("", group));
        let stated = reason.starts_with("# ") && reason.len() > 40;
        assert!(stated, "no reason given for:\n{group}");
        for (file, names) in entries.lines().filter_map(|l| l.split_once(": ")) {
            allowed.extend(names.split_whitespace().map(|n| (file, n)));
        }
    }
    let budget = allowed.len();
    assert!(budget <= 33, "{budget} allowlist entries: the budget is 33");
    let unlisted: Vec<_> = flagged.difference(&allowed).collect();
    let stale: Vec<_> = allowed.difference(&flagged).collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "public, but no product code mentions it — call it, narrow it, delete it, or allowlist it \
         with a reason: {unlisted:?}\nallowlisted, but not flagged any more — drop it: {stale:?}"
    );
}
