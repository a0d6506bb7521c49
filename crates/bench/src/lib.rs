//! Command-line tools crate: see the `repro` binary (regenerates every table
//! and figure of the paper) and the `profile`, `sanitize`, `analyze` and
//! `serve` binaries beside it.
