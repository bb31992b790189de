//! `lrb` — command-line interface for the load rebalancing toolkit.
//!
//! See `lrb help` for usage; the heavy lifting lives in
//! [`lrb_cli::commands`], which is fully unit-tested (the binary itself is
//! a thin shell).

use std::io::{ErrorKind, Write};

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let msg = match lrb_cli::commands::dispatch(tokens) {
        Ok(msg) => msg,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };
    // A reader that closes the pipe early (`lrb help | head -1`) has read
    // all it wanted, so a broken pipe is a success, not a failure.
    match writeln!(std::io::stdout().lock(), "{msg}") {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("error: writing the output: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}
