//! `prxbench`: the prxview benchmark.
//!
//! ```text
//! prxbench --workload <warm-read|churn|restart> --seed <n> --seconds <s> --trace <0|1>
//! prxbench --workload churn --capacity 1 [--seed <n>] [--seconds <s>]
//! ```
//!
//! Each workload builds its inputs from the seed, serves them from a
//! loopback `prxd` (`pxv_server::serve`) hosted in this process, drives
//! it from client connections for `--seconds`, and checks every answer.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the
//! wire run and then replays the same seeded operations in-process with
//! a span around every call into a crate, reporting per-layer metrics.
//! `--capacity 1` instead measures what the server sustains on the churn
//! set-up, the basis of that workload's offered rates.
//! Human-readable lines come first; the last line of standard output is
//! the JSON result. See `README.md` next to this file.

mod churn;
mod fixtures;
mod openloop;
mod probe;
mod replay;
mod report;
mod restart;
mod spans;
mod stats;
mod warm_read;

const USAGE: &str = "usage: prxbench --workload <warm-read|churn|restart> --seed <n> --seconds <s> --trace <0|1>\n       prxbench --workload churn --capacity 1 [--seed <n>] [--seconds <s>]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmRead,
    Churn,
    Restart,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRead => "warm-read",
            Workload::Churn => "churn",
            Workload::Restart => "restart",
        }
    }
}

/// The command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Measure the server's capacity on the churn set-up instead of
    /// running the workload.
    pub capacity: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut capacity = false;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "warm-read" => Workload::WarmRead,
                        "churn" => Workload::Churn,
                        "restart" => Workload::Restart,
                        _ => return Err(bad()),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--capacity" => {
                    capacity = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let args = Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            capacity,
        };
        if args.capacity && (args.workload != Workload::Churn || args.trace) {
            return Err("--capacity 1 measures the churn set-up, untraced".into());
        }
        Ok(args)
    }
}

fn main() {
    fixtures::keep_freed_heap();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("prxbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload {
        _ if args.capacity => churn::capacity(&args),
        Workload::WarmRead => warm_read::run(&args),
        Workload::Churn => churn::run(&args),
        Workload::Restart => restart::run(&args),
    };
    report.finish(&args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload churn --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Churn);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload restart --trace 2").is_err());
        assert!(parse("--workload restart --seconds").is_err());
        assert!(parse("--workload churn --capacity 1").unwrap().capacity);
        assert!(parse("--workload restart --capacity 1").is_err());
        assert!(parse("--workload churn --capacity 1 --trace 1").is_err());
    }
}
