//! A tiny shared argument parser for the experiment binaries (no external
//! CLI dependency needed for five flags).
//!
//! Supported flags, all optional:
//!
//! * `--sizes 100,1000,10000` — problem sizes to sweep;
//! * `--degrees 2,6` — out-degree caps to sweep (for binaries that sweep
//!   degrees; each has its own default);
//! * `--trials 200` — trials per size (default: the paper's 200 up to
//!   100k nodes, scaled down above — see
//!   [`default_trials`]).
//! * `--seed 2004` — experiment seed;
//! * `--out results/` — also write CSV files into this directory;
//! * `--quick` — use the short size sweep (up to 50k nodes).

use std::path::PathBuf;

use crate::workload::{default_trials, PAPER_SIZES, QUICK_SIZES};

/// Parsed experiment arguments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExpArgs {
    /// Explicit size sweep, if given.
    pub sizes: Option<Vec<usize>>,
    /// Explicit out-degree caps, if given.
    pub degrees: Option<Vec<u32>>,
    /// Trials per size, overriding the default policy.
    pub trials: Option<usize>,
    /// Experiment seed (default 2004, the paper's year).
    pub seed: Option<u64>,
    /// Directory for CSV output.
    pub out: Option<PathBuf>,
    /// Use the quick size sweep.
    pub quick: bool,
}

impl ExpArgs {
    /// Parses the given arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or malformed
    /// values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("flag {name} expects a value"))
            };
            match flag.as_str() {
                "--sizes" => out.sizes = Some(list("--sizes", &value("--sizes")?)?),
                "--degrees" => out.degrees = Some(list("--degrees", &value("--degrees")?)?),
                "--trials" => {
                    let v = value("--trials")?;
                    out.trials = Some(
                        v.parse()
                            .map_err(|e| format!("bad --trials value {v:?}: {e}"))?,
                    );
                }
                "--seed" => {
                    let v = value("--seed")?;
                    out.seed = Some(
                        v.parse()
                            .map_err(|e| format!("bad --seed value {v:?}: {e}"))?,
                    );
                }
                "--out" => out.out = Some(PathBuf::from(value("--out")?)),
                "--quick" => out.quick = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--sizes 100,1000] [--degrees 2,6] [--trials N] [--seed N] \
                     [--out DIR] [--quick]"
                );
                std::process::exit(2);
            }
        }
    }

    /// The size sweep: explicit `--sizes`, else quick or paper sizes.
    pub fn sizes(&self) -> Vec<usize> {
        match &self.sizes {
            Some(s) => s.clone(),
            None if self.quick => QUICK_SIZES.to_vec(),
            None => PAPER_SIZES.to_vec(),
        }
    }

    /// Trials for a given size: explicit `--trials`, else the default
    /// policy.
    pub fn trials_for(&self, n: usize) -> usize {
        self.trials.unwrap_or_else(|| default_trials(n))
    }

    /// The experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(2004)
    }
}

/// Parses a comma-separated list value of `flag`.
fn list<T: std::str::FromStr>(flag: &str, v: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    v.split(',')
        .map(|s| s.trim().parse::<T>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad {flag} value {v:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<ExpArgs, String> {
        ExpArgs::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_all_flags() {
        let a = parse("--sizes 10,20 --degrees 2,6 --trials 5 --seed 9 --out res --quick").unwrap();
        assert_eq!(a.sizes(), vec![10, 20]);
        assert_eq!(a.degrees, Some(vec![2, 6]));
        assert_eq!(a.trials_for(1_000_000), 5);
        assert_eq!(a.seed(), 9);
        assert_eq!(a.out, Some(PathBuf::from("res")));
        assert!(a.quick);
    }

    #[test]
    fn defaults() {
        let a = parse("").unwrap();
        assert_eq!(a.sizes(), PAPER_SIZES.to_vec());
        assert_eq!(a.trials_for(100), 200);
        assert_eq!(a.trials_for(5_000_000), 5);
        assert_eq!(a.seed(), 2004);
        let q = parse("--quick").unwrap();
        assert_eq!(q.sizes(), QUICK_SIZES.to_vec());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--sizes ten").is_err());
        assert!(parse("--degrees 2,x").is_err());
        assert!(parse("--trials").is_err());
        assert!(parse("--frobnicate 3").is_err());
        assert!(parse("--seed -1").is_err());
    }
}
