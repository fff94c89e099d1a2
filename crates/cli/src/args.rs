//! Tiny dependency-free argument parser for the `tclose` CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options
/// (flags without values store an empty string).
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// First positional argument (the subcommand).
    pub command: String,
    /// Second positional argument, only for commands that take one
    /// (currently `model`, as in `tclose model inspect`).
    pub subcommand: String,
    /// `--key value` options; bare flags map to "".
    pub options: HashMap<String, String>,
}

/// Options that are flags (no value follows them).
const FLAGS: &[&str] = &["help", "stream", "dry-run", "json"];

/// The options each command accepts (`--help` is accepted everywhere).
/// `validate_options` rejects anything else with a "did you mean"
/// suggestion, so a typo like `--comppliance` fails loudly instead of
/// being silently ignored.
const COMMAND_OPTIONS: &[(&str, &[&str])] = &[
    ("generate", &["dataset", "seed", "n", "output"]),
    (
        "anonymize",
        &[
            "input",
            "output",
            "qi",
            "confidential",
            "k",
            "t",
            "algorithm",
            "workers",
            "backend",
            "stream",
            "shard-size",
            "compliance",
            "dry-run",
        ],
    ),
    (
        "fit",
        &[
            "input",
            "out",
            "qi",
            "confidential",
            "k",
            "t",
            "algorithm",
            "normalize",
            "stream",
            "shard-size",
            "compliance",
        ],
    ),
    (
        "apply",
        &[
            "model",
            "input",
            "output",
            "workers",
            "backend",
            "stream",
            "shard-size",
            "compliance",
        ],
    ),
    ("model", &["model"]),
    ("audit", &["input", "qi", "confidential", "t", "workers"]),
    ("scan", &["input", "compliance", "json"]),
    (
        "serve",
        &[
            "registry",
            "addr",
            "addr-file",
            "workers",
            "backend",
            "queue",
            "timeout-ms",
            "drain-timeout-ms",
        ],
    ),
    ("request", &["addr", "op", "model", "input", "output"]),
];

/// Rejects options the command does not accept, suggesting the closest
/// accepted spelling (`--comppliance` → "did you mean --compliance?").
/// Unknown commands pass through — the dispatcher reports those.
pub fn validate_options(p: &Parsed) -> Result<(), String> {
    let Some((_, allowed)) = COMMAND_OPTIONS.iter().find(|(c, _)| *c == p.command) else {
        return Ok(());
    };
    let mut keys: Vec<&String> = p.options.keys().collect();
    keys.sort(); // deterministic error for multi-typo invocations
    for key in keys {
        if key == "help" || allowed.contains(&key.as_str()) {
            continue;
        }
        let suggestion = allowed
            .iter()
            .map(|a| (levenshtein(key, a), *a))
            .min()
            .filter(|&(d, _)| d <= 2)
            .map(|(_, a)| format!(" (did you mean --{a}?)"))
            .unwrap_or_default();
        return Err(format!(
            "unknown option --{key} for {}{suggestion}",
            p.command
        ));
    }
    Ok(())
}

/// Edit distance for the typo suggestions — inputs are option names, so
/// the O(n·m) two-row form is plenty.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if FLAGS.contains(&key) {
                parsed.options.insert(key.to_owned(), String::new());
            } else {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                parsed.options.insert(key.to_owned(), v.clone());
            }
        } else if parsed.command.is_empty() {
            parsed.command = a.clone();
        } else if parsed.command == "model" && parsed.subcommand.is_empty() {
            parsed.subcommand = a.clone();
        } else if parsed.command == "model" && !parsed.options.contains_key("model") {
            // `tclose model inspect model.json` — the bare path is sugar
            // for `--model model.json`.
            parsed.options.insert("model".to_owned(), a.clone());
        } else {
            return Err(format!("unexpected positional argument {a:?}"));
        }
        i += 1;
    }
    Ok(parsed)
}

impl Parsed {
    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Optional parsed option with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// True when the flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Comma-separated list option.
    pub fn get_list(&self, key: &str) -> Vec<String> {
        self.options
            .get(key)
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let p = parse(&argv("anonymize --k 5 --t 0.1 --input data.csv --stream")).unwrap();
        assert_eq!(p.command, "anonymize");
        assert_eq!(p.require("k").unwrap(), "5");
        assert_eq!(p.get_parsed::<f64>("t", 0.0).unwrap(), 0.1);
        assert!(p.flag("stream"));
        assert!(!p.flag("verbose"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv("anonymize --k")).is_err());
    }

    #[test]
    fn unexpected_positional_is_an_error() {
        assert!(parse(&argv("anonymize extra")).is_err());
    }

    #[test]
    fn model_command_takes_a_subcommand_and_path() {
        let p = parse(&argv("model inspect m.json")).unwrap();
        assert_eq!(p.command, "model");
        assert_eq!(p.subcommand, "inspect");
        assert_eq!(p.require("model").unwrap(), "m.json");
        // the explicit flag wins over the positional sugar
        let p = parse(&argv("model inspect --model a.json")).unwrap();
        assert_eq!(p.require("model").unwrap(), "a.json");
        // a third positional is still an error
        assert!(parse(&argv("model inspect a.json b.json")).is_err());
    }

    #[test]
    fn typoed_options_fail_with_a_suggestion() {
        let p = parse(&argv(
            "anonymize --input a.csv --output b.csv --comppliance c.toml",
        ))
        .unwrap();
        let e = validate_options(&p).unwrap_err();
        assert!(e.contains("--comppliance"), "{e}");
        assert!(e.contains("did you mean --compliance?"), "{e}");

        // No close match: plain unknown-option error without a guess.
        let p = parse(&argv("audit --zzz 1")).unwrap();
        let e = validate_options(&p).unwrap_err();
        assert!(e.contains("--zzz") && !e.contains("did you mean"), "{e}");

        // Valid spellings and --help pass; unknown commands pass through.
        let p = parse(&argv("scan --input a.csv --compliance c.toml --json")).unwrap();
        assert!(validate_options(&p).is_ok());
        let p = parse(&argv("anonymize --help")).unwrap();
        assert!(validate_options(&p).is_ok());
        let p = parse(&argv("frobnicate --whatever 1")).unwrap();
        assert!(validate_options(&p).is_ok());
    }

    #[test]
    fn levenshtein_distances() {
        assert_eq!(levenshtein("compliance", "compliance"), 0);
        assert_eq!(levenshtein("comppliance", "compliance"), 1);
        assert_eq!(levenshtein("dryrun", "dry-run"), 1);
        assert_eq!(levenshtein("", "abc"), 3);
        assert!(levenshtein("zzz", "compliance") > 2);
    }

    #[test]
    fn lists_and_defaults() {
        let p = parse(&argv("audit --qi age,zip, --seed 9")).unwrap();
        assert_eq!(p.get_list("qi"), vec!["age", "zip"]);
        assert_eq!(p.get_parsed::<u64>("seed", 42).unwrap(), 9);
        assert_eq!(p.get_parsed::<u64>("missing", 42).unwrap(), 42);
        assert!(p.get_parsed::<u64>("qi", 0).is_err());
        assert!(p.require("nope").is_err());
    }
}
