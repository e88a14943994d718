//! exabench — the repository's benchmark: live TCP step latency and offline
//! selection-seeding time, end to end and split by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path exabench/Cargo.toml -- \
//!     --workload tcp_small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads, metrics and the measured layer shares are documented in
//! `exabench/README.md`. The last line of standard output is the result
//! object; the line before it carries provenance and sample counts.

mod live;
mod price;
mod procfs;
mod report;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("whole seconds"))?;
                if s == 0 {
                    return Err(bad("at least one second"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// SplitMix64: the generator behind every seeded input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream label, so different
    /// inputs drawn from one workload seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "tcp_small" => live::run(&live::TCP_SMALL, args)?,
        "tcp_large" => live::run(&live::TCP_LARGE, args)?,
        "price_large" => price::run(&price::PRICE_LARGE, args)?,
        w => return Err(format!("unknown workload `{w}`")),
    };
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("trace", u8::from(args.trace));
    report.note("git_rev", procfs::git_rev(std::path::Path::new(".")));
    report.note("host", procfs::host_fingerprint());
    report.note("nproc", procfs::nproc());
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exabench: {e}");
            eprintln!(
                "usage: exabench --workload <tcp_small|tcp_large|price_large> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let line = run(&args).and_then(|r| {
        let cat = if args.trace { PER_LAYER } else { END_TO_END };
        let line = r.result_line(cat)?;
        println!("{}", r.notes_line());
        Ok(line)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("exabench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse_args(&argv("--workload tcp_small --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, "tcp_small");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(3));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        assert_eq!(Rng::new(5, 1).bytes(13), Rng::new(5, 1).bytes(13));
        assert_ne!(Rng::new(5, 1).bytes(13), Rng::new(5, 2).bytes(13));
        assert_ne!(Rng::new(5, 1).bytes(13), Rng::new(6, 1).bytes(13));
    }
}
