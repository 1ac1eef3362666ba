//! Command-line entry point; see the library docs for the workloads.

use perfbench::{report, Run, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run { seed: 1, seconds: 10, trace: false, tiny: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => run.seed = number(value()?)?,
            "--seconds" => run.seconds = number(value()?)?.max(1),
            "--trace" => run.trace = number(value()?)? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok((workload, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&workload, &run).expect("workload name was checked");
    print!("{}", report.human(&report::host_line()));
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
