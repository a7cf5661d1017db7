//! Public surface = called surface (DESIGN.md §6). A `pub fn` in the
//! non-test part of a `crates/*/src` file whose name is mentioned
//! nowhere else in product code (`crates/*/src` and `src/` before their
//! first `#[cfg(test)]`, anything under `benchmark/`) is either called,
//! narrowed, deleted — or listed here with the reason it stays. Same
//! for a whole file none of whose top-level `pub` items is mentioned
//! (comments and `pub use` re-exports aside) outside it: entry `*`.
//! One-directional on purpose: a generic name (`new`) is never flagged,
//! so the rule has no false failures. Each allowlist reason is checked
//! too: its tag names the code that must mention the entry. Reads
//! `benchmark/`, `tests/` and `examples/`, writes nothing.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::Path;

/// One group per paragraph: `# tag: why these stay public without a
/// product caller`, then `file: name name …` lines (`*` is the whole
/// file). The tag is the part of the reason that is checked — it names
/// the code that must mention every entry of the paragraph (for `*`, one
/// of the file's top-level `pub` items), comments aside: `itest`, code
/// under `tests/` (this file aside) or `crates/*/tests/`; `example`,
/// code under `examples/`.
const ALLOW: &str = "
# itest: DrainReport and the journal capacity: the harness of every fault and recovery suite
crates/switchless-core/src/fault.rs: is_clean
crates/switchless-core/src/recovery.rs: with_journal_slots

# itest: the trace exporters are telemetry's output; deployers call them, the trace pins check them
crates/zc-telemetry/src/export.rs: canonical_jsonl to_chrome_trace

# itest: options and per-request inputs that the integration suites set
crates/switchless-core/src/config.rs: with_initial_workers with_quantum_ms with_retries_before_fallback
crates/switchless-core/src/supervise.rs: with_poison_threshold with_probation_cycles
crates/switchless-core/src/overload.rs: with_brownout with_max_inflight
crates/switchless-core/src/func.rs: with_deadline_at with_priority

# itest: state the suites assert on; nothing in the runtimes needs it
crates/switchless-core/src/policy.rs: settled_workers shifting
crates/switchless-core/src/supervise.rs: serving_workers
crates/switchless-core/src/overload.rs: shed_for
crates/des/src/kernel.rs: thread_cycles
crates/des/src/metrics.rs: goodput_ratio
crates/sgx-sim/src/hostfs.rs: file_contents
crates/intel-switchless/src/pool.rs: from_raw is_done

# itest: the ecall entry point, for callers outside the product
crates/zc-switchless/src/runtime.rs: start_ecalls

# example: the demo machine and a host file's size, which the examples print
crates/sgx-sim/src/hostfs.rs: file_size
crates/switchless-core/src/cpu.rs: host_machine
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

/// The words of `text` outside `//` comments.
fn code_words(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(|l| l.split("//").next().unwrap())
        .flat_map(words)
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

/// The names of a file's top-level `pub` items.
fn items(text: &str) -> Vec<&str> {
    let top_level = text.lines().filter(|l| l.starts_with("pub "));
    top_level
        .filter_map(|l| ITEMS.iter().find_map(|kind| named(l, kind).next()))
        .collect()
}

/// An allowlist entry: `(file, name)`.
type Entry<'a> = (&'a str, &'a str);

/// Every `(file, name)` entry of `allow`, and the entries whose
/// paragraph tag is false: no code of the tag's `readers` mentions the
/// name (for `*`, any top-level `pub` item of the file in `product`).
fn allowlist<'a>(
    allow: &'a str,
    product: &[(String, String)],
    readers: &[(&str, &[(String, String)])],
) -> (BTreeSet<Entry<'a>>, Vec<Entry<'a>>) {
    let mut allowed = BTreeSet::new();
    let mut unread = Vec::new();
    for group in allow.trim().split("\n\n") {
        let (reason, entries) = group.split_once('\n').unwrap_or((group, ""));
        let tag = reason.strip_prefix("# ").and_then(|r| r.split_once(": "));
        let files = tag.and_then(|(tag, _)| readers.iter().find(|(t, _)| *t == tag));
        let Some((_, files)) = files.filter(|_| reason.len() > 40) else {
            panic!("no tagged reason given for:\n{group}");
        };
        let said: HashSet<&str> = files.iter().flat_map(|(_, t)| code_words(t)).collect();
        for (file, names) in entries.lines().filter_map(|l| l.split_once(": ")) {
            for name in names.split_whitespace() {
                let read = if name == "*" {
                    let text = product.iter().find(|(f, _)| f == file).map(|(_, t)| t);
                    items(text.unwrap()).iter().any(|i| said.contains(i))
                } else {
                    said.contains(name)
                };
                allowed.insert((file, name));
                if !read {
                    unread.push((file, name));
                }
            }
        }
    }
    (allowed, unread)
}

#[test]
fn every_public_function_is_called_or_allowlisted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut corpus, mut itests, mut examples) = (Vec::new(), Vec::new(), Vec::new());
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        read(&krate.join("src"), true, &mut corpus);
        if krate.join("tests").is_dir() {
            read(&krate.join("tests"), false, &mut itests);
        }
    }
    let scanned = corpus.len();
    read(&root.join("src"), true, &mut corpus);
    read(&root.join("benchmark"), false, &mut corpus);
    read(&root.join("tests"), false, &mut itests);
    itests.retain(|(file, _)| file != "tests/public_surface.rs");
    read(&root.join("examples"), false, &mut examples);

    // Mentions of each word anywhere, and the files whose code mentions it.
    let mut mentions: HashMap<&str, usize> = HashMap::new();
    let mut mentioned_in: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (file, text) in &corpus {
        words(text).for_each(|w| *mentions.entry(w).or_default() += 1);
        for w in code_words(text) {
            mentioned_in.entry(w).or_default().insert(file);
        }
    }
    let mut flagged = BTreeSet::new();
    for (file, text) in &corpus[..scanned] {
        let uncalled = named(text, "pub fn ").filter(|n| mentions[n] == 1);
        flagged.extend(uncalled.map(|n| (file.as_str(), n)));
        let items = items(text);
        if !items.is_empty() && items.iter().all(|i| mentioned_in[i].len() == 1) {
            flagged.insert((file.as_str(), "*"));
        }
    }
    let readers = [("itest", &itests[..]), ("example", &examples[..])];
    let (allowed, unread) = allowlist(ALLOW, &corpus[..scanned], &readers);
    let budget = allowed.len();
    assert!(budget <= 25, "{budget} allowlist entries: the budget is 25");
    let unlisted: Vec<_> = flagged.difference(&allowed).collect();
    let stale: Vec<_> = allowed.difference(&flagged).collect();
    assert!(
        unlisted.is_empty() && stale.is_empty() && unread.is_empty(),
        "public, but no product code mentions it — call it, narrow it, delete it, or allowlist it \
         with a reason: {unlisted:?}\nallowlisted, but not flagged any more — drop it: {stale:?}\n\
         allowlisted, but its tag is false — give it that reader, or delete it: {unread:?}"
    );
}

#[test]
fn a_false_tag_is_reported() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let product = [
        file(
            "lib.rs",
            "pub fn tested() {}\npub fn nobody() {}\npub fn shown() {}",
        ),
        file(
            "demo.rs",
            "pub struct Demo;\nimpl Demo {\n    pub fn new() -> Self { Demo }\n}",
        ),
    ];
    let itests = [file("tests/t.rs", "fn t() { tested(); } // nobody")];
    let examples = [file("examples/e.rs", "fn main() { shown(); Demo::new(); }")];
    let allow = "
# itest: one entry a suite calls, one that only a test comment names
lib.rs: tested nobody

# example: two entries an example calls, one that only a suite calls
lib.rs: shown tested
demo.rs: *
";
    let readers = [("itest", &itests[..]), ("example", &examples[..])];
    let (allowed, unread) = allowlist(allow, &product, &readers);
    assert_eq!(allowed.len(), 4);
    assert_eq!(unread, [("lib.rs", "nobody"), ("lib.rs", "tested")]);
}
