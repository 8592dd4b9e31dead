//! `ssi-benchmark`: the driver's one-workload command, and the subcommands
//! that run all six.
//!
//! ```text
//! ssi-benchmark --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result
//! ssi-benchmark run   [--seed N] [--seconds S]                  every workload, end-to-end metrics
//! ssi-benchmark trace [--seed N] [--seconds S]                  every workload, per-layer metrics
//! ssi-benchmark noise ROUNDS [--seed N] [--seconds S]           the noise study behind the bounds
//! ssi-benchmark check-manifest | print-manifest                 BENCHMARK.json against the catalogue
//! ```

use std::process::ExitCode;

use ssi_benchmark::manifest::{self, RUN_SECONDS};
use ssi_benchmark::scenario::Scenario;
use ssi_benchmark::single::{run_single, RunArgs};
use ssi_benchmark::suite;

const DEFAULT_SEED: u64 = 1;

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} {v:?} does not parse")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.get("seed")?.unwrap_or(DEFAULT_SEED))
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds = self.get("seconds")?.unwrap_or(f64::from(RUN_SECONDS));
        if !(0.1..=60.0).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 0.1..=60"));
        }
        Ok(seconds)
    }
}

fn one_workload(flags: &Flags) -> Result<ExitCode, String> {
    let name: String = flags.get("workload")?.ok_or("--workload is required")?;
    let scenario = Scenario::named(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let traced = match flags.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let result = run_single(&RunArgs {
        scenario,
        seed: flags.seed()?,
        seconds: flags.seconds()?,
        traced,
    })?;
    for note in &result.notes {
        eprintln!("{note}");
    }
    println!("{}", result.to_json());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let done = |()| ExitCode::SUCCESS;
    match args.first().map(String::as_str) {
        Some("run") => {
            let flags = Flags::parse(&args[1..])?;
            suite::run_all(flags.seed()?, flags.seconds()?, false).map(done)
        }
        Some("trace") => {
            let flags = Flags::parse(&args[1..])?;
            suite::run_all(flags.seed()?, flags.seconds()?, true).map(done)
        }
        Some("noise") => {
            let rounds = args
                .get(1)
                .and_then(|n| n.parse().ok())
                .ok_or("usage: noise ROUNDS [--seed N] [--seconds S]")?;
            let flags = Flags::parse(&args[2..])?;
            suite::noise(rounds, flags.seed()?, flags.seconds()?).map(done)
        }
        Some("check-manifest") => {
            println!("{}", manifest::check_file()?);
            Ok(ExitCode::SUCCESS)
        }
        Some("print-manifest") => {
            print!("{}", manifest::render());
            Ok(ExitCode::SUCCESS)
        }
        _ => one_workload(&Flags::parse(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("ssi-benchmark: {e}");
        ExitCode::from(2)
    })
}
