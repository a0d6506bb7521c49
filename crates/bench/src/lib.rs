//! Command-line tools crate: see the `repro` binary (regenerates every table
//! and figure of the paper) and the `profile`, `sanitize`, `analyze` and
//! `serve` binaries beside it.

use workloads::bench::InputSpec;

/// Resolve an `--input <index|name>` selector against a program's inputs:
/// the first input when there is no selector, else the input at that index
/// or with that exact name. An unknown selector prints the input names and
/// exits 2.
pub fn select_input(inputs: &[InputSpec], sel: Option<&str>) -> InputSpec {
    let Some(sel) = sel else {
        return inputs[0].clone();
    };
    match sel.parse::<usize>() {
        Ok(idx) if idx < inputs.len() => inputs[idx].clone(),
        _ => inputs
            .iter()
            .find(|i| i.name == sel)
            .cloned()
            .unwrap_or_else(|| {
                let names: Vec<&str> = inputs.iter().map(|i| i.name).collect();
                eprintln!("unknown input '{sel}' (have: {})", names.join("; "));
                std::process::exit(2);
            }),
    }
}
