//! The detector rule registry: built-in PII patterns and the profile
//! (HIPAA / GDPR / custom) bundles that select them.
//!
//! Each rule pairs a compiled regex with metadata: a stable id (used in
//! config, audit records, and CLI output), optional **column hints**
//! (lowercase substrings of a column name that activate the rule for
//! that column — how names are caught without a dictionary of the
//! world's names), and a `whole_cell` flag (hint-gated rules replace
//! the entire cell rather than matched spans).

use crate::pattern::{PatternError, Regex};

/// One detection rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable identifier, e.g. `"ssn"`; lowercase, used in config and audit.
    pub id: String,
    /// Human-readable one-liner for docs and scan reports.
    pub description: String,
    /// Compiled detection pattern.
    pub pattern: Regex,
    /// Lowercase column-name substrings that activate this rule. Empty
    /// means the rule applies to every scannable column.
    pub hints: Vec<String>,
    /// When true the rule fires on the whole cell (hint-gated rules
    /// like `name`); otherwise matched spans are transformed in place.
    pub whole_cell: bool,
}

impl Rule {
    /// True when this rule should run against a column named `column`.
    pub fn applies_to(&self, column: &str) -> bool {
        if self.hints.is_empty() {
            return true;
        }
        let lower = column.to_lowercase();
        self.hints.iter().any(|h| lower.contains(h.as_str()))
    }
}

/// A compliance profile: which built-in rules are bundled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// HIPAA Safe-Harbor-style direct identifiers.
    Hipaa,
    /// GDPR personal-data identifiers (HIPAA set plus IBAN).
    Gdpr,
    /// No built-ins; only `[compliance.rule.*]` custom patterns.
    Custom,
}

impl Profile {
    /// Parses a profile name as written in config (`hipaa`/`gdpr`/`custom`).
    pub fn parse(name: &str) -> Result<Profile, String> {
        match name {
            "hipaa" => Ok(Profile::Hipaa),
            "gdpr" => Ok(Profile::Gdpr),
            "custom" => Ok(Profile::Custom),
            other => Err(format!(
                "unknown compliance profile {other:?} (expected hipaa, gdpr, or custom)"
            )),
        }
    }

    /// The config-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Hipaa => "hipaa",
            Profile::Gdpr => "gdpr",
            Profile::Custom => "custom",
        }
    }

    /// Rule ids bundled by this profile, in registry order.
    pub fn rule_ids(&self) -> &'static [&'static str] {
        match self {
            Profile::Hipaa => &[
                "ssn",
                "email",
                "phone",
                "mrn",
                "dob",
                "name",
                "ip",
                "credit_card",
            ],
            Profile::Gdpr => &[
                "ssn",
                "email",
                "phone",
                "mrn",
                "dob",
                "name",
                "ip",
                "credit_card",
                "iban",
            ],
            Profile::Custom => &[],
        }
    }
}

/// Built-in registry: `(id, description, pattern, hints, whole_cell)`.
///
/// Digit-run patterns are `\b`-anchored so one rule's output can never
/// be re-matched by another (token text is `TOK_…` — the `_` is a word
/// char, so no boundary exists before its hex tail).
const BUILTINS: &[(&str, &str, &str, &[&str], bool)] = &[
    (
        "ssn",
        "US Social Security number (123-45-6789)",
        r"\b\d{3}-\d{2}-\d{4}\b",
        &[],
        false,
    ),
    (
        "email",
        "email address",
        r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b",
        &[],
        false,
    ),
    (
        "phone",
        "US phone number ((555) 123-4567, 555-123-4567, 555.123.4567)",
        r"(\(\d{3}\)[ -]?|\b\d{3}[-. ])\d{3}[-. ]\d{4}\b",
        &[],
        false,
    ),
    (
        "mrn",
        "medical record number (MRN-prefixed digit run)",
        r"\bMRN-?\d{6,10}\b",
        &["mrn", "record_id", "medical"],
        false,
    ),
    (
        "dob",
        "date of birth (ISO or US slashed, in hinted columns)",
        r"\b(\d{4}-\d{2}-\d{2}|\d{1,2}/\d{1,2}/\d{4})\b",
        &["dob", "birth"],
        false,
    ),
    (
        "name",
        "personal name (whole cell, by column hint)",
        r".",
        &["name", "patient", "surname", "given"],
        true,
    ),
    (
        "ip",
        "IPv4 address",
        r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
        &[],
        false,
    ),
    (
        "credit_card",
        "payment card number (13-16 digits, optionally dash/space grouped)",
        r"\b\d{4}[- ]?\d{4}[- ]?\d{4}[- ]?\d{1,4}\b",
        &[],
        false,
    ),
    (
        "iban",
        "IBAN (two letters, two digits, 11-30 alphanumerics)",
        r"\b[A-Z]{2}\d{2}[A-Z0-9]{11,30}\b",
        &[],
        false,
    ),
];

/// Compiles one built-in rule by id.
pub fn builtin_rule(id: &str) -> Option<Rule> {
    BUILTINS
        .iter()
        .find(|(rid, ..)| *rid == id)
        .map(|(rid, desc, pat, hints, whole)| Rule {
            id: (*rid).to_owned(),
            description: (*desc).to_owned(),
            pattern: Regex::parse(pat).expect("builtin patterns compile"),
            hints: hints.iter().map(|h| (*h).to_owned()).collect(),
            whole_cell: *whole,
        })
}

/// All built-in rule ids, in registry order.
pub fn builtin_ids() -> Vec<&'static str> {
    BUILTINS.iter().map(|(id, ..)| *id).collect()
}

/// Compiles a custom rule from a config pattern.
pub fn custom_rule(
    id: &str,
    description: &str,
    pattern: &str,
    hints: Vec<String>,
    whole_cell: bool,
) -> Result<Rule, PatternError> {
    Ok(Rule {
        id: id.to_owned(),
        description: description.to_owned(),
        pattern: Regex::parse(pattern)?,
        hints: hints.into_iter().map(|h| h.to_lowercase()).collect(),
        whole_cell,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_compile() {
        for id in builtin_ids() {
            let rule = builtin_rule(id).unwrap();
            assert_eq!(rule.id, id);
            assert!(!rule.description.is_empty());
        }
        assert!(builtin_rule("nope").is_none());
    }

    #[test]
    fn profiles_reference_real_rules() {
        for profile in [Profile::Hipaa, Profile::Gdpr, Profile::Custom] {
            for id in profile.rule_ids() {
                assert!(builtin_rule(id).is_some(), "{id} missing from registry");
            }
        }
        assert!(Profile::Gdpr.rule_ids().contains(&"iban"));
        assert!(!Profile::Hipaa.rule_ids().contains(&"iban"));
        assert!(Profile::Custom.rule_ids().is_empty());
    }

    #[test]
    fn profile_names_round_trip() {
        for p in [Profile::Hipaa, Profile::Gdpr, Profile::Custom] {
            assert_eq!(Profile::parse(p.name()), Ok(p));
        }
        assert!(Profile::parse("HIPAA").is_err());
    }

    #[test]
    fn hint_gating() {
        let name = builtin_rule("name").unwrap();
        assert!(name.applies_to("PATIENT_NAME"));
        assert!(name.applies_to("surname"));
        assert!(!name.applies_to("NOTES"));
        let ssn = builtin_rule("ssn").unwrap();
        assert!(ssn.applies_to("anything"));
    }

    #[test]
    fn builtin_patterns_detect_and_reject() {
        let hit = |id: &str, text: &str| builtin_rule(id).unwrap().pattern.is_match(text);
        assert!(hit("ssn", "123-45-6789"));
        assert!(!hit("ssn", "1234-45-6789"));
        assert!(hit("email", "a@b.co"));
        assert!(hit("phone", "(555) 210-4477"));
        assert!(hit("phone", "555.210.4477"));
        assert!(!hit("phone", "123-45-6789"));
        assert!(hit("mrn", "MRN-20441975"));
        assert!(hit("dob", "1987-04-12"));
        assert!(hit("dob", "4/12/1987"));
        assert!(hit("ip", "10.0.255.1"));
        assert!(hit("credit_card", "4111-1111-1111-1111"));
        assert!(hit("credit_card", "4111111111111111"));
        assert!(hit("iban", "DE89370400440532013000"));
        // token output is never re-matched by the digit rules
        for id in ["ssn", "phone", "credit_card", "mrn"] {
            assert!(
                !hit(id, "TOK_SSN_0123456789abcdef"),
                "{id} re-matched a token"
            );
        }
    }

    #[test]
    fn custom_rules_compile_or_report() {
        let r = custom_rule("badge", "badge id", r"B-\d{4}", vec!["Badge".into()], false).unwrap();
        assert!(r.pattern.is_match("B-1234"));
        assert_eq!(r.hints, vec!["badge"]);
        assert!(custom_rule("bad", "", "a(", vec![], false).is_err());
    }
}
