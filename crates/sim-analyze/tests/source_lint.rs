//! Source lint over `crates/workloads/src`: every kernel that opts into
//! `parallel_safe` must also override `params()`, because the trace
//! recorder deduplicates a run's launches by their `LaunchKey` — kernel
//! name, params, geometry and memory fingerprint. Without a params fold,
//! two launches of a safe kernel that differ only in a scalar parameter
//! share one key, and replaying the trace gives one launch's costs to the
//! other.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extract `impl Kernel for <Type> { ... }` blocks by brace matching.
/// Returns `(type name, block body)` pairs.
fn kernel_impls(src: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (pos, _) in src.match_indices("impl Kernel for ") {
        let rest = &src[pos + "impl Kernel for ".len()..];
        let Some(open) = rest.find('{') else { continue };
        let name = rest[..open].trim().to_string();
        let mut depth = 0usize;
        let mut end = None;
        for (i, c) in rest[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(open + i);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(end) = end {
            out.push((name, rest[open..=end].to_string()));
        }
    }
    out
}

/// Does this impl override `parallel_safe` with a body returning `true`?
/// Every override in the tree is a literal `{ true }` / `{ false }` body;
/// scan from the method head to the next `fn` to stay robust to layout.
fn claims_parallel_safe(body: &str) -> bool {
    let Some(pos) = body.find("fn parallel_safe") else {
        return false;
    };
    let method = &body[pos + 3..];
    let method = &method[..method.find("fn ").unwrap_or(method.len())];
    method.contains("true")
}

#[test]
fn parallel_safe_kernels_override_params() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../workloads/src");
    let mut files = Vec::new();
    rust_sources(&root, &mut files);
    assert!(files.len() > 20, "workload source scan found too few files");

    let mut violations = Vec::new();
    let mut claimed = 0;
    for file in &files {
        let src = fs::read_to_string(file).unwrap();
        for (name, body) in kernel_impls(&src) {
            if !claims_parallel_safe(&body) {
                continue;
            }
            claimed += 1;
            if !body.contains("fn params") {
                violations.push(format!("{}: {name}", file.display()));
            }
            if !body.contains("fn footprint") {
                violations.push(format!("{}: {name} (missing footprint)", file.display()));
            }
        }
    }
    // 26 kernel impls opt in, the last six being md's, mum's, qtc's three
    // and tpacf's; fewer means the scan regressed or an opt-in was lost.
    assert!(claimed >= 26, "only {claimed} parallel_safe kernels found");
    assert!(
        violations.is_empty(),
        "parallel_safe kernels must override params() and footprint() \
(trace dedup by LaunchKey + provability):\n  {}",
        violations.join("\n  ")
    );
}
