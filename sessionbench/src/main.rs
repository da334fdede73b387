//! `sessionbench --workload <oltp|dss|recovery> --seed <n> --seconds <s>
//! --trace <0|1>`: run one workload and print its metrics as the last
//! line of stdout. Exits non-zero on any failed op or output mismatch.

use sessionbench::args::USAGE;
use sessionbench::Args;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sessionbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = sessionbench::run(&args);
    eprint!("{}", outcome.summary());
    println!("{}", outcome.json());
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
