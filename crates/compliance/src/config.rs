//! Compliance configuration: the `[compliance]` TOML profile, env-var
//! overrides, and the policy fingerprint recorded in model artifacts.
//!
//! ```toml
//! [compliance]
//! profile = "hipaa"            # hipaa | gdpr | custom
//! strategy = "tokenize"        # redact | tokenize | hash
//! key = "rotate-me"            # tokenize/hash HMAC key
//! disable = ["credit_card"]    # opt out of bundled rules
//! drop_columns = ["SSN"]       # drop-column strategy, per column
//!
//! [compliance.audit]
//! enabled = true
//! path = "audit.jsonl"
//! salt = "per-release-salt"
//!
//! [compliance.rule.badge]      # custom patterns (required for custom)
//! description = "badge id"
//! pattern = "B-\\d{4}"
//! hints = ["badge"]
//! whole_cell = false
//! ```
//!
//! Every scalar can be overridden by `TCLOSE_COMPLIANCE_*` environment
//! variables (see [`ComplianceConfig::apply_env_overrides`]) so CI can
//! tweak a policy without editing files.

use std::path::Path;

use crate::rules::{self, Profile, Rule};
use crate::sha256::sha256_hex;
use crate::toml::TomlDoc;
use crate::ComplianceError;

/// How a detected span (or hinted whole cell) is transformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Replace with `[REDACTED:<rule>]`.
    Redact,
    /// Replace with a deterministic keyed token `TOK_<RULE>_<hex16>`
    /// (HMAC-SHA256), so equal inputs yield equal tokens and joins
    /// survive scrubbing.
    Tokenize,
    /// Replace with `HASH_<hex16>` (keyed, rule-independent).
    Hash,
}

impl Strategy {
    /// Parses a strategy name as written in config.
    pub fn parse(name: &str) -> Result<Strategy, String> {
        match name {
            "redact" => Ok(Strategy::Redact),
            "tokenize" => Ok(Strategy::Tokenize),
            "hash" => Ok(Strategy::Hash),
            other => Err(format!(
                "unknown strategy {other:?} (expected redact, tokenize, or hash)"
            )),
        }
    }

    /// The config-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Redact => "redact",
            Strategy::Tokenize => "tokenize",
            Strategy::Hash => "hash",
        }
    }
}

/// An uncompiled custom rule from `[compliance.rule.<id>]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomRuleSpec {
    /// Rule id (the section name).
    pub id: String,
    /// Human-readable one-liner.
    pub description: String,
    /// Regex source, compiled when the engine is built.
    pub pattern: String,
    /// Lowercase column-name substrings gating the rule.
    pub hints: Vec<String>,
    /// Whole-cell replacement instead of span replacement.
    pub whole_cell: bool,
}

/// The full compliance policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplianceConfig {
    /// Which built-in rule bundle applies.
    pub profile: Profile,
    /// Transform applied to detected spans.
    pub strategy: Strategy,
    /// HMAC key for tokenize/hash strategies.
    pub key: String,
    /// Preview only: scan and report, write nothing.
    pub dry_run: bool,
    /// Bundled rule ids switched off.
    pub disabled: Vec<String>,
    /// Columns removed wholesale from the release.
    pub drop_columns: Vec<String>,
    /// Custom patterns from `[compliance.rule.*]`.
    pub custom_rules: Vec<CustomRuleSpec>,
    /// Whether transformed cells are audit-logged.
    pub audit_enabled: bool,
    /// Audit log destination (JSONL). With none, no log is written and
    /// a scrub makes no audit records: it only counts them.
    pub audit_path: Option<String>,
    /// Salt mixed into audit hashes so the log is not a rainbow-table
    /// oracle for the original values.
    pub salt: String,
}

impl Default for ComplianceConfig {
    fn default() -> Self {
        ComplianceConfig {
            profile: Profile::Hipaa,
            strategy: Strategy::Tokenize,
            key: "tclose-compliance-key".to_owned(),
            dry_run: false,
            disabled: Vec::new(),
            drop_columns: Vec::new(),
            custom_rules: Vec::new(),
            audit_enabled: true,
            audit_path: None,
            salt: "tclose".to_owned(),
        }
    }
}

impl ComplianceConfig {
    /// Parses a config from TOML source. Unknown `[compliance]` keys are
    /// rejected so typos fail loudly rather than silently weakening a
    /// policy.
    pub fn from_toml_str(src: &str) -> Result<ComplianceConfig, ComplianceError> {
        let doc = TomlDoc::parse(src).map_err(|e| ComplianceError::Config(e.to_string()))?;
        let mut cfg = ComplianceConfig::default();
        let bad = |msg: String| ComplianceError::Config(msg);

        const KNOWN: &[&str] = &[
            "profile",
            "strategy",
            "key",
            "dry_run",
            "disable",
            "drop_columns",
        ];
        for (suffix, _) in doc.keys_under("compliance") {
            let head = suffix.split('.').next().unwrap_or(suffix);
            if !KNOWN.contains(&head) && head != "audit" && head != "rule" {
                return Err(bad(format!("unknown [compliance] key {suffix:?}")));
            }
        }

        if let Some(v) = doc.get("compliance.profile") {
            let s = v
                .as_str()
                .ok_or_else(|| bad("compliance.profile must be a string".into()))?;
            cfg.profile = Profile::parse(s).map_err(bad)?;
        }
        if let Some(v) = doc.get("compliance.strategy") {
            let s = v
                .as_str()
                .ok_or_else(|| bad("compliance.strategy must be a string".into()))?;
            cfg.strategy = Strategy::parse(s).map_err(bad)?;
        }
        if let Some(v) = doc.get("compliance.key") {
            cfg.key = v
                .as_str()
                .ok_or_else(|| bad("compliance.key must be a string".into()))?
                .to_owned();
        }
        if let Some(v) = doc.get("compliance.dry_run") {
            cfg.dry_run = v
                .as_bool()
                .ok_or_else(|| bad("compliance.dry_run must be a bool".into()))?;
        }
        if let Some(v) = doc.get("compliance.disable") {
            cfg.disabled = v
                .as_arr()
                .ok_or_else(|| bad("compliance.disable must be an array of strings".into()))?
                .to_vec();
        }
        if let Some(v) = doc.get("compliance.drop_columns") {
            cfg.drop_columns = v
                .as_arr()
                .ok_or_else(|| bad("compliance.drop_columns must be an array of strings".into()))?
                .to_vec();
        }
        if let Some(v) = doc.get("compliance.audit.enabled") {
            cfg.audit_enabled = v
                .as_bool()
                .ok_or_else(|| bad("compliance.audit.enabled must be a bool".into()))?;
        }
        if let Some(v) = doc.get("compliance.audit.path") {
            cfg.audit_path = Some(
                v.as_str()
                    .ok_or_else(|| bad("compliance.audit.path must be a string".into()))?
                    .to_owned(),
            );
        }
        if let Some(v) = doc.get("compliance.audit.salt") {
            cfg.salt = v
                .as_str()
                .ok_or_else(|| bad("compliance.audit.salt must be a string".into()))?
                .to_owned();
        }

        for id in doc.sections_under("compliance.rule") {
            let prefix = format!("compliance.rule.{id}");
            let pattern = doc
                .get(&format!("{prefix}.pattern"))
                .and_then(|v| v.as_str())
                .ok_or_else(|| bad(format!("custom rule {id:?} needs a string `pattern`")))?
                .to_owned();
            let description = doc
                .get(&format!("{prefix}.description"))
                .and_then(|v| v.as_str())
                .unwrap_or("custom rule")
                .to_owned();
            let hints = doc
                .get(&format!("{prefix}.hints"))
                .and_then(|v| v.as_arr())
                .map(|a| a.iter().map(|h| h.to_lowercase()).collect())
                .unwrap_or_default();
            let whole_cell = doc
                .get(&format!("{prefix}.whole_cell"))
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            cfg.custom_rules.push(CustomRuleSpec {
                id,
                description,
                pattern,
                hints,
                whole_cell,
            });
        }

        for id in &cfg.disabled {
            let known = cfg.profile.rule_ids().contains(&id.as_str())
                || cfg.custom_rules.iter().any(|r| &r.id == id);
            if !known {
                return Err(bad(format!(
                    "disable lists unknown rule {id:?} for profile {}",
                    cfg.profile.name()
                )));
            }
        }
        if cfg.profile == Profile::Custom && cfg.custom_rules.is_empty() {
            return Err(bad(
                "profile \"custom\" needs at least one [compliance.rule.<id>] section".into(),
            ));
        }
        Ok(cfg)
    }

    /// Reads and parses a config file.
    pub fn from_path(path: &Path) -> Result<ComplianceConfig, ComplianceError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| ComplianceError::Io(format!("{}: {e}", path.display())))?;
        ComplianceConfig::from_toml_str(&src)
    }

    /// Applies `TCLOSE_COMPLIANCE_*` overrides from the process
    /// environment. See [`ComplianceConfig::apply_overrides`] for the
    /// recognized variables.
    pub fn apply_env_overrides(&mut self) -> Result<(), ComplianceError> {
        let vars: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("TCLOSE_COMPLIANCE_"))
            .collect();
        self.apply_overrides(&vars)
    }

    /// Applies overrides from an explicit `(key, value)` list — the
    /// testable core of [`ComplianceConfig::apply_env_overrides`].
    ///
    /// Recognized: `TCLOSE_COMPLIANCE_PROFILE`, `_STRATEGY`, `_KEY`,
    /// `_DRY_RUN` (`1`/`true`/`0`/`false`), `_DISABLE` (comma-separated
    /// rule ids, replacing the config list), `_AUDIT` (bool),
    /// `_AUDIT_PATH`, `_SALT`.
    pub fn apply_overrides(&mut self, vars: &[(String, String)]) -> Result<(), ComplianceError> {
        let bad = |k: &str, msg: String| ComplianceError::Config(format!("{k}: {msg}"));
        for (k, v) in vars {
            match k.as_str() {
                "TCLOSE_COMPLIANCE_PROFILE" => {
                    self.profile = Profile::parse(v).map_err(|m| bad(k, m))?;
                }
                "TCLOSE_COMPLIANCE_STRATEGY" => {
                    self.strategy = Strategy::parse(v).map_err(|m| bad(k, m))?;
                }
                "TCLOSE_COMPLIANCE_KEY" => self.key = v.clone(),
                "TCLOSE_COMPLIANCE_DRY_RUN" => {
                    self.dry_run = parse_bool(v).map_err(|m| bad(k, m))?;
                }
                "TCLOSE_COMPLIANCE_DISABLE" => {
                    self.disabled = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect();
                }
                "TCLOSE_COMPLIANCE_AUDIT" => {
                    self.audit_enabled = parse_bool(v).map_err(|m| bad(k, m))?;
                }
                "TCLOSE_COMPLIANCE_AUDIT_PATH" => self.audit_path = Some(v.clone()),
                "TCLOSE_COMPLIANCE_SALT" => self.salt = v.clone(),
                _ => {
                    return Err(ComplianceError::Config(format!(
                        "unknown environment override {k:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// The rule ids active under this config, sorted: profile built-ins
    /// plus custom rules, minus `disable`d ones.
    pub fn active_rule_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .profile
            .rule_ids()
            .iter()
            .map(|s| (*s).to_owned())
            .chain(self.custom_rules.iter().map(|r| r.id.clone()))
            .filter(|id| !self.disabled.contains(id))
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Compiles the active rules.
    pub fn compile_rules(&self) -> Result<Vec<Rule>, ComplianceError> {
        let mut out = Vec::new();
        for id in self.profile.rule_ids() {
            if self.disabled.iter().any(|d| d == id) {
                continue;
            }
            out.push(rules::builtin_rule(id).expect("profile ids are registry ids"));
        }
        for spec in &self.custom_rules {
            if self.disabled.contains(&spec.id) {
                continue;
            }
            let rule = rules::custom_rule(
                &spec.id,
                &spec.description,
                &spec.pattern,
                spec.hints.clone(),
                spec.whole_cell,
            )
            .map_err(|e| ComplianceError::Config(format!("custom rule {:?}: {e}", spec.id)))?;
            out.push(rule);
        }
        Ok(out)
    }

    /// The audit log a release under this policy writes: `audit_path`,
    /// when auditing is enabled.
    pub fn audit_log_path(&self) -> Option<&Path> {
        self.audit_path
            .as_deref()
            .filter(|_| self.audit_enabled)
            .map(Path::new)
    }

    /// A stable fingerprint of the *scrub policy* — everything that
    /// changes what lands in a release: profile, active rules (id,
    /// pattern, hints, whole-cell), strategy, a digest of the key, and
    /// the dropped columns. Audit settings and `dry_run` are reporting
    /// concerns and deliberately excluded. Recorded in `ModelArtifact`
    /// so `apply` can refuse a model fitted under a different policy.
    pub fn fingerprint(&self) -> String {
        let mut canon = String::new();
        canon.push_str("profile=");
        canon.push_str(self.profile.name());
        canon.push('\n');
        let mut rule_lines: Vec<String> = self
            .profile
            .rule_ids()
            .iter()
            .filter(|id| !self.disabled.iter().any(|d| d == *id))
            .map(|id| {
                let r = rules::builtin_rule(id).expect("profile ids are registry ids");
                format!(
                    "rule={} pattern={} hints={} whole={}",
                    r.id,
                    r.pattern.source(),
                    r.hints.join(","),
                    r.whole_cell
                )
            })
            .chain(
                self.custom_rules
                    .iter()
                    .filter(|r| !self.disabled.contains(&r.id))
                    .map(|r| {
                        format!(
                            "rule={} pattern={} hints={} whole={}",
                            r.id,
                            r.pattern,
                            r.hints.join(","),
                            r.whole_cell
                        )
                    }),
            )
            .collect();
        rule_lines.sort();
        for line in rule_lines {
            canon.push_str(&line);
            canon.push('\n');
        }
        canon.push_str("strategy=");
        canon.push_str(self.strategy.name());
        canon.push('\n');
        canon.push_str("key_digest=");
        canon.push_str(&sha256_hex(self.key.as_bytes()));
        canon.push('\n');
        let mut drops = self.drop_columns.clone();
        drops.sort();
        canon.push_str("drop=");
        canon.push_str(&drops.join(","));
        canon.push('\n');
        sha256_hex(canon.as_bytes())
    }
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("expected a bool (1/true/0/false), got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
[compliance]
profile = "gdpr"
strategy = "redact"
key = "k1"
dry_run = true
disable = ["credit_card"]
drop_columns = ["SSN"]

[compliance.audit]
enabled = false
path = "log.jsonl"
salt = "s1"

[compliance.rule.badge]
description = "badge id"
pattern = "B-\\d{4}"
hints = ["Badge"]
whole_cell = false
"#;

    #[test]
    fn parses_full_config() {
        let cfg = ComplianceConfig::from_toml_str(FULL).unwrap();
        assert_eq!(cfg.profile, Profile::Gdpr);
        assert_eq!(cfg.strategy, Strategy::Redact);
        assert_eq!(cfg.key, "k1");
        assert!(cfg.dry_run);
        assert_eq!(cfg.disabled, vec!["credit_card"]);
        assert_eq!(cfg.drop_columns, vec!["SSN"]);
        assert!(!cfg.audit_enabled);
        assert_eq!(cfg.audit_path.as_deref(), Some("log.jsonl"));
        assert_eq!(cfg.salt, "s1");
        assert_eq!(cfg.custom_rules.len(), 1);
        assert_eq!(cfg.custom_rules[0].hints, vec!["badge"]);
        let ids = cfg.active_rule_ids();
        assert!(ids.contains(&"badge".to_owned()));
        assert!(ids.contains(&"iban".to_owned()));
        assert!(!ids.contains(&"credit_card".to_owned()));
        // A log is written only where auditing is enabled and has a path.
        assert_eq!(cfg.audit_log_path(), None);
        let enabled = ComplianceConfig {
            audit_enabled: true,
            ..cfg
        };
        assert_eq!(enabled.audit_log_path(), Some(Path::new("log.jsonl")));
        assert_eq!(ComplianceConfig::default().audit_log_path(), None);
    }

    #[test]
    fn defaults_are_hipaa_tokenize() {
        let cfg = ComplianceConfig::from_toml_str("[compliance]\nprofile = \"hipaa\"\n").unwrap();
        assert_eq!(cfg, ComplianceConfig::default());
        assert_eq!(cfg.compile_rules().unwrap().len(), 8);
    }

    #[test]
    fn rejects_bad_configs() {
        for (src, needle) in [
            (
                "[compliance]\nprofile = \"nope\"",
                "unknown compliance profile",
            ),
            ("[compliance]\nstrategy = \"zap\"", "unknown strategy"),
            (
                "[compliance]\nprofle = \"hipaa\"",
                "unknown [compliance] key",
            ),
            ("[compliance]\ndisable = [\"nope\"]", "unknown rule"),
            ("[compliance]\nprofile = \"custom\"", "at least one"),
            ("[compliance]\ndry_run = \"yes\"", "must be a bool"),
            (
                "[compliance.rule.x]\ndescription = \"no pattern\"",
                "needs a string `pattern`",
            ),
            ("[compliance.rule.x]\npattern = \"a(\"", "custom rule"),
        ] {
            let got = ComplianceConfig::from_toml_str(src);
            match got {
                Err(e) => assert!(e.to_string().contains(needle), "{src:?} -> {e}"),
                Ok(cfg) => {
                    // pattern errors surface at compile time
                    let e = cfg.compile_rules().unwrap_err();
                    assert!(e.to_string().contains(needle), "{src:?} -> {e}");
                }
            }
        }
    }

    #[test]
    fn env_overrides() {
        let mut cfg = ComplianceConfig::default();
        let vars: Vec<(String, String)> = [
            ("TCLOSE_COMPLIANCE_PROFILE", "gdpr"),
            ("TCLOSE_COMPLIANCE_STRATEGY", "hash"),
            ("TCLOSE_COMPLIANCE_KEY", "k2"),
            ("TCLOSE_COMPLIANCE_DRY_RUN", "1"),
            ("TCLOSE_COMPLIANCE_DISABLE", "ssn, email"),
            ("TCLOSE_COMPLIANCE_AUDIT", "false"),
            ("TCLOSE_COMPLIANCE_AUDIT_PATH", "a.jsonl"),
            ("TCLOSE_COMPLIANCE_SALT", "s2"),
        ]
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
        cfg.apply_overrides(&vars).unwrap();
        assert_eq!(cfg.profile, Profile::Gdpr);
        assert_eq!(cfg.strategy, Strategy::Hash);
        assert_eq!(cfg.key, "k2");
        assert!(cfg.dry_run);
        assert_eq!(cfg.disabled, vec!["ssn", "email"]);
        assert!(!cfg.audit_enabled);
        assert_eq!(cfg.audit_path.as_deref(), Some("a.jsonl"));
        assert_eq!(cfg.salt, "s2");

        let e = cfg
            .apply_overrides(&[("TCLOSE_COMPLIANCE_NOPE".into(), "x".into())])
            .unwrap_err();
        assert!(e.to_string().contains("unknown environment override"));
        let e = cfg
            .apply_overrides(&[("TCLOSE_COMPLIANCE_DRY_RUN".into(), "maybe".into())])
            .unwrap_err();
        assert!(e.to_string().contains("expected a bool"));
    }

    #[test]
    fn fingerprint_tracks_policy_not_reporting() {
        let base = ComplianceConfig::default();
        let fp = base.fingerprint();
        assert_eq!(fp.len(), 64);
        assert_eq!(fp, base.fingerprint(), "fingerprint is deterministic");

        // reporting knobs do not move the fingerprint
        let mut audit = base.clone();
        audit.dry_run = true;
        audit.audit_enabled = false;
        audit.audit_path = Some("x.jsonl".into());
        audit.salt = "other".into();
        assert_eq!(audit.fingerprint(), fp);

        // policy knobs do
        let mut profile = base.clone();
        profile.profile = Profile::Gdpr;
        assert_ne!(profile.fingerprint(), fp);
        let mut strat = base.clone();
        strat.strategy = Strategy::Redact;
        assert_ne!(strat.fingerprint(), fp);
        let mut key = base.clone();
        key.key = "other".into();
        assert_ne!(key.fingerprint(), fp);
        let mut dis = base.clone();
        dis.disabled = vec!["ssn".into()];
        assert_ne!(dis.fingerprint(), fp);
        let mut drop = base.clone();
        drop.drop_columns = vec!["SSN".into()];
        assert_ne!(drop.fingerprint(), fp);
    }
}
