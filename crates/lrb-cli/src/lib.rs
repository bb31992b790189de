//! Library surface of the `lrb` CLI.
//!
//! The binary in `main.rs` is a thin shell over [`commands::dispatch`];
//! exposing the modules as a library lets the integration tests (see
//! `tests/golden.rs`) drive full command lines and decode the JSON reports
//! into their types without spawning a subprocess.

pub mod args;
pub mod bench;
pub mod chaos;
pub mod commands;
pub mod compare;
pub mod compete;
pub mod hetero;
pub mod online;
pub mod serve_cmd;
pub mod trace;
