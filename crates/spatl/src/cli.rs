//! The workspace's one command-line parser: `--flag value` pairs (long
//! flags only, `--flag=value` accepted, no external dependency) checked
//! against the flag set the calling binary declares, plus the name
//! parsers for the values every binary spells the same way — the
//! federated algorithm and the model architecture.

use spatl_fl::Algorithm;
use spatl_models::ModelKind;

/// Parse an algorithm name as given on a command line (case-insensitive:
/// `fedavg`, `fedprox`, `scaffold`, `fednova`, `spatl`), with each
/// algorithm's canonical reproduction parameters ([`Algorithm::roster`]).
pub fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    let roster = Algorithm::roster();
    let found = roster
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name));
    found.ok_or_else(|| {
        format!(
            "unknown algorithm '{}' (expected fedavg|fedprox|scaffold|fednova|spatl)",
            name.to_ascii_lowercase()
        )
    })
}

/// Parse a model name as given on a command line (case-insensitive).
pub fn parse_model(name: &str) -> Result<ModelKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "resnet20" => Ok(ModelKind::ResNet20),
        "resnet32" => Ok(ModelKind::ResNet32),
        "resnet56" => Ok(ModelKind::ResNet56),
        "resnet18" => Ok(ModelKind::ResNet18),
        "vgg11" => Ok(ModelKind::Vgg11),
        "cnn2" => Ok(ModelKind::Cnn2),
        other => Err(format!(
            "unknown model '{other}' (expected resnet20|resnet32|resnet56|resnet18|vgg11|cnn2)"
        )),
    }
}

/// Parsed command line: a sequence of `--flag value` (or `--flag=value`)
/// pairs. Unknown flags are rejected up front so a typo cannot silently
/// fall back to a default.
#[derive(Debug, Clone)]
pub struct Args {
    flags: Vec<(String, String)>,
}

/// Parse an argument list, allowing only `accepted` flag names (without
/// the `--` prefix).
pub fn parse_args<I, S>(args: I, accepted: &[&str]) -> Result<Args, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut flags = Vec::new();
    let mut iter = args.into_iter().map(Into::into);
    while let Some(arg) = iter.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{arg}'"))?;
        let (name, value) = match name.split_once('=') {
            Some((n, v)) => (n.to_string(), v.to_string()),
            None => {
                let v = iter
                    .next()
                    .ok_or_else(|| format!("flag --{name} is missing its value"))?;
                (name.to_string(), v)
            }
        };
        if !accepted.contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
        flags.push((name, value));
    }
    Ok(Args { flags })
}

impl Args {
    /// Parse the process's arguments through [`parse_args`]. Exits with a
    /// usage message listing the accepted flags on any malformed or
    /// unknown argument.
    pub fn parse(accepted: &[&str]) -> Args {
        match parse_args(std::env::args().skip(1), accepted) {
            Ok(args) => args,
            Err(msg) => {
                let mut usage = String::new();
                for f in accepted {
                    usage.push_str(&format!(" [--{f} <value>]"));
                }
                eprintln!("error: {msg}\nusage: {}{usage}", bin_name());
                std::process::exit(2);
            }
        }
    }

    /// The raw value of a flag, if given (last occurrence wins).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse a flag's value, falling back to `default` when absent. Exits
    /// with an error message when the value is present but malformed.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: flag --{name} has invalid value '{v}'");
                std::process::exit(2);
            }),
        }
    }

    /// A flag that must be present.
    pub fn require(&self, name: &str) -> &str {
        self.get(name).unwrap_or_else(|| {
            eprintln!("error: flag --{name} is required");
            std::process::exit(2);
        })
    }
}

fn bin_name() -> String {
    std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "binary".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flag_pairs_and_equals_form() {
        let args = parse_args(["--addr", "0.0.0.0:9", "--rounds=5"], &["addr", "rounds"]).unwrap();
        assert_eq!(args.get("addr"), Some("0.0.0.0:9"));
        assert_eq!(args.get_or("rounds", 0usize), 5);
        assert_eq!(args.get_or("missing", 7usize), 7);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        let unknown = parse_args(["--bogus", "1"], &["addr"]).unwrap_err();
        assert!(unknown.contains("--bogus"), "{unknown}");
        assert!(parse_args(["--addr"], &["addr"]).is_err());
        assert!(parse_args(["addr", "1"], &["addr"]).is_err());
    }

    #[test]
    fn algorithm_and_model_names_parse() {
        for name in ["FedAvg", "fedprox", "SCAFFOLD", "fednova", "spatl"] {
            assert!(parse_algorithm(name).is_ok(), "{name}");
        }
        assert!(parse_algorithm("blockchain").is_err());
        for name in ["resnet20", "ResNet56", "vgg11", "cnn2"] {
            assert!(parse_model(name).is_ok(), "{name}");
        }
        assert!(parse_model("transformer").is_err());
    }
}
