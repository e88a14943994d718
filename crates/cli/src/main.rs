//! `exacoll` — command-line front end.
//!
//! ```text
//! exacoll sweep    --machine frontier --nodes 128 --ppn 1 --op reduce [--sizes 8,1024] [--max-k 16]
//! exacoll radix    --machine frontier --nodes 128 --ppn 1 --op allreduce --size 65536 [--max-k 32]
//! exacoll autotune --machine frontier --nodes 32  --ppn 1 [--out cfg.json] [--max-k 16]
//! exacoll time     --machine polaris  --nodes 64  --ppn 4 --op bcast --alg kring:4 --size 1048576
//! exacoll profile  allreduce --alg recmult,4 --ranks 16 [--chrome trace.json]
//! exacoll machines
//! exacoll table1
//! ```
//!
//! Machines are the simulated presets of `exacoll-sim`; all latencies are
//! virtual microseconds.

use exacoll_cli::commands::{self, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if let CliError::Usage(_) = e {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
