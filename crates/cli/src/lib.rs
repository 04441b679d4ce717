//! Implementation of the `icnoc` command-line tool.
//!
//! Everything lives in the library so the argument parsing and command
//! execution are unit-testable; `main.rs` is a thin shim.
//!
//! ```text
//! icnoc info   [--ports 64] [--kind binary|quad] [--freq 1.0] [--die 10]
//! icnoc verify [build opts] [--variation 0.3] [--sigma 0.05] [--top 10]
//! icnoc sim    [build opts] [--pattern uniform:0.2] [--cycles 2000]
//!              [--seed 42] [--packet-len 1] [--tiles 4:5] [--vcd out.vcd]
//! icnoc yield  [build opts] [--variation 0.2] [--sigma 0.08] [--samples 200]
//! icnoc fig7   [--max-mm 3.0] [--step-mm 0.1]
//! icnoc explore [--grid SPEC] [--jobs N] [--cache-dir DIR] [--resume]
//! ```

#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{Cli, CliError, Command};
pub use commands::run;
