//! Command line: `--workload <oltp|dss|recovery> --seed <n> --seconds <s>
//! --trace <0|1>`.

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    Oltp,
    Dss,
    Recovery,
}

/// Parsed, checked arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: WorkloadName,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: sessionbench --workload <oltp|dss|recovery> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "oltp" => WorkloadName::Oltp,
                        "dss" => WorkloadName::Dss,
                        "recovery" => WorkloadName::Recovery,
                        other => return Err(format!("unknown workload {other:?}")),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload dss --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, WorkloadName::Dss);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload oltp --trace 2").is_err());
        assert!(parse("--seed 3").is_err());
    }
}
