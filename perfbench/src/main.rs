//! `killi-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON result line (`correct`, `attempted`, `failed`,
//! `metrics`) as the last line of standard output; exits non-zero
//! without a result line on bad arguments or an environment error.

use killi_perfbench::{run, RunSpec};

fn parse_args(args: &[String]) -> Result<(String, RunSpec), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let spec = RunSpec::new(
        seed.ok_or("missing --seed")?,
        seconds.ok_or("missing --seconds")?,
        trace.unwrap_or(false),
    );
    Ok((workload, spec))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, spec) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("killi-perfbench: {e}");
            eprintln!(
                "usage: killi-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                killi_perfbench::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&workload, &spec) {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(e) => {
            eprintln!("killi-perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}
