//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--family F] [--work-dir DIR]` runs one benchmark run from the
//! repository root and prints its JSON record as the last line of
//! standard output. `perfbench shard-worker` is the worker half of the
//! sharded workload: `run_sharded` spawns this binary as its workers.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::measure::{run, Config};
use perfbench::stats::peak_rss_kb;
use perfbench::workload::{Workload, RSS_DIR_ENV};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-worker") {
        return shard_worker();
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(record) => {
            println!("{}", record.to_json());
            if record.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one shard job from stdin, then leaves this worker's peak
/// resident set where the coordinating run reads it.
fn shard_worker() -> ExitCode {
    let result = tricheck_dist::shard_worker_stdio();
    if let Some(dir) = std::env::var_os(RSS_DIR_ENV) {
        if let Some(kb) = peak_rss_kb(std::path::Path::new("/proc/self/status")) {
            let path = PathBuf::from(dir).join(std::process::id().to_string());
            // The coordinator reads this file with the same parser.
            let _ = std::fs::write(path, format!("VmHWM:\t{kb} kB\n"));
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut family = None;
    let mut work_dir = PathBuf::from(".perfbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--family" => family = Some(value.to_string()),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        family,
        work_dir: root.join(work_dir),
        root,
    })
}
