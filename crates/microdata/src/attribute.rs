//! Attribute definitions: kinds, disclosure roles and category dictionaries.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// Disclosure-oriented classification of an attribute (Hundepool et al.,
/// *Statistical Disclosure Control*, 2012).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeRole {
    /// Unambiguously identifies the subject; removed before release.
    Identifier,
    /// May identify the subject in combination with other QIs; perturbed by
    /// the anonymization algorithms.
    QuasiIdentifier,
    /// Sensitive value protected by t-closeness; released unmodified.
    Confidential,
    /// Neither identifying nor sensitive; released unmodified.
    NonConfidential,
}

impl AttributeRole {
    /// Parse from the strings used in CLI/CSV sidecar configuration.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "id" | "identifier" => Some(AttributeRole::Identifier),
            "qi" | "quasi" | "quasi-identifier" | "quasi_identifier" => {
                Some(AttributeRole::QuasiIdentifier)
            }
            "confidential" | "sensitive" | "c" => Some(AttributeRole::Confidential),
            "other" | "non-confidential" | "nonconfidential" | "non_confidential" => {
                Some(AttributeRole::NonConfidential)
            }
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            AttributeRole::Identifier => "identifier",
            AttributeRole::QuasiIdentifier => "quasi-identifier",
            AttributeRole::Confidential => "confidential",
            AttributeRole::NonConfidential => "non-confidential",
        }
    }
}

/// Storage/semantics kind of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeKind {
    /// Continuous or integer-valued numeric attribute stored as `f64`.
    Numeric,
    /// Categorical attribute whose categories have a meaningful total order
    /// (e.g. education level). Dictionary code order *is* the semantic order.
    OrdinalCategorical,
    /// Categorical attribute with no meaningful order (e.g. diagnosis).
    NominalCategorical,
}

impl AttributeKind {
    /// Short lowercase name used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            AttributeKind::Numeric => "numeric",
            AttributeKind::OrdinalCategorical => "ordinal",
            AttributeKind::NominalCategorical => "nominal",
        }
    }

    /// True for either categorical kind.
    pub fn is_categorical(&self) -> bool {
        !matches!(self, AttributeKind::Numeric)
    }
}

/// Bidirectional mapping between category labels and dense `u32` codes.
///
/// For [`AttributeKind::OrdinalCategorical`] attributes the insertion order
/// of labels defines the semantic order of the categories.
///
/// A dictionary is a shared copy-on-write value: cloning it (and so any
/// [`Schema`](crate::Schema) or [`Table`](crate::Table) holding it) shares
/// the labels, and [`Dictionary::intern`] copies them only when it adds a
/// label to a dictionary that another clone still shares.
#[derive(Clone, Default)]
pub struct Dictionary {
    shared: Arc<Labels>,
}

/// The storage behind a [`Dictionary`]: every label back to back in one
/// buffer, and an index from each label's keyed hash to its code.
#[derive(Clone, Default)]
struct Labels {
    /// The labels in code order, back to back.
    text: String,
    /// End of each label in `text`.
    ends: Vec<usize>,
    /// Keyed hash of a label → its code. A label whose hash is taken by
    /// another label takes the next free key, so a lookup walks the keys
    /// from the label's hash until it meets the label or a free key.
    /// Labels are never removed, so no walk is ever cut short.
    index: HashMap<u64, u32>,
    /// std's randomly keyed hasher: input cannot choose colliding labels.
    hasher: RandomState,
}

impl Labels {
    fn label(&self, code: usize) -> Option<&str> {
        let end = *self.ends.get(code)?;
        let start = code.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.text[start..end])
    }

    /// The code of `label`, or the free index key it would take.
    fn find(&self, label: &str) -> Result<u32, u64> {
        let mut key = self.hasher.hash_one(label);
        loop {
            match self.index.get(&key) {
                None => return Err(key),
                Some(&code) if self.label(code as usize) == Some(label) => return Ok(code),
                Some(_) => key = key.wrapping_add(1),
            }
        }
    }
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.shared, &other.shared);
        Arc::ptr_eq(a, b) || (a.ends == b.ends && a.text == b.text)
    }
}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.labels()).finish()
    }
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an ordered list of labels; duplicates are collapsed to the
    /// first occurrence.
    pub fn from_labels<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut d = Self::new();
        for l in labels {
            d.intern(&l.into());
        }
        d
    }

    /// Returns the code for `label`, inserting it if absent. Only an
    /// insertion into storage that another clone shares copies the labels.
    pub fn intern(&mut self, label: &str) -> u32 {
        let key = match self.shared.find(label) {
            Ok(code) => return code,
            Err(key) => key,
        };
        // A copy keeps the hasher, so `key` is still the label's free key.
        let labels = Arc::make_mut(&mut self.shared);
        let code = labels.ends.len() as u32;
        labels.text.push_str(label);
        labels.ends.push(labels.text.len());
        labels.index.insert(key, code);
        code
    }

    /// Code of an existing label.
    pub fn code(&self, label: &str) -> Option<u32> {
        self.shared.find(label).ok()
    }

    /// Label of an existing code.
    pub fn label(&self, code: u32) -> Option<&str> {
        self.shared.label(code as usize)
    }

    /// Number of distinct categories.
    pub fn len(&self) -> usize {
        self.shared.ends.len()
    }

    /// True when no categories have been interned.
    pub fn is_empty(&self) -> bool {
        self.shared.ends.is_empty()
    }

    /// All labels in code order.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|code| self.shared.label(code).expect("code below len"))
    }
}

/// Full definition of one attribute: name, kind, role and (for categorical
/// attributes) the category dictionary.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    /// Human-readable unique attribute name.
    pub name: String,
    /// Storage/semantics kind.
    pub kind: AttributeKind,
    /// Disclosure role.
    pub role: AttributeRole,
    /// Category dictionary; empty for numeric attributes.
    pub dictionary: Dictionary,
}

impl AttributeDef {
    /// Numeric attribute with the given role.
    pub fn numeric(name: impl Into<String>, role: AttributeRole) -> Self {
        AttributeDef {
            name: name.into(),
            kind: AttributeKind::Numeric,
            role,
            dictionary: Dictionary::new(),
        }
    }

    /// Ordinal categorical attribute; `labels` must be given in semantic
    /// (ascending) order.
    pub fn ordinal<I, S>(name: impl Into<String>, role: AttributeRole, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        AttributeDef {
            name: name.into(),
            kind: AttributeKind::OrdinalCategorical,
            role,
            dictionary: Dictionary::from_labels(labels),
        }
    }

    /// Nominal categorical attribute.
    pub fn nominal<I, S>(name: impl Into<String>, role: AttributeRole, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        AttributeDef {
            name: name.into(),
            kind: AttributeKind::NominalCategorical,
            role,
            dictionary: Dictionary::from_labels(labels),
        }
    }

    /// Replaces the role, builder-style.
    pub fn with_role(mut self, role: AttributeRole) -> Self {
        self.role = role;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_parsing_round_trips() {
        for role in [
            AttributeRole::Identifier,
            AttributeRole::QuasiIdentifier,
            AttributeRole::Confidential,
            AttributeRole::NonConfidential,
        ] {
            assert_eq!(AttributeRole::parse(role.name()), Some(role));
        }
        assert_eq!(
            AttributeRole::parse("QI"),
            Some(AttributeRole::QuasiIdentifier)
        );
        assert_eq!(
            AttributeRole::parse("sensitive"),
            Some(AttributeRole::Confidential)
        );
        assert_eq!(AttributeRole::parse("???"), None);
    }

    #[test]
    fn dictionary_interning_is_stable() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("low"), 0);
        assert_eq!(d.intern("mid"), 1);
        assert_eq!(d.intern("low"), 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.label(1), Some("mid"));
        assert_eq!(d.code("mid"), Some(1));
        assert_eq!(d.code("high"), None);
        assert_eq!(d.label(9), None);
    }

    #[test]
    fn dictionary_clone_shares_storage() {
        let a = Dictionary::from_labels(["low", "mid", "high"]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert_eq!(a, b);
        assert!(b.labels().eq(a.labels()));
    }

    #[test]
    fn interning_a_known_label_into_a_shared_clone_copies_nothing() {
        let a = Dictionary::from_labels(["low", "mid", "high"]);
        let mut b = a.clone();
        assert_eq!(b.intern("mid"), 1);
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert_eq!(Arc::strong_count(&a.shared), 2);
    }

    #[test]
    fn interning_a_new_label_changes_only_that_clone() {
        let a = Dictionary::from_labels(["low", "mid"]);
        let mut b = a.clone();
        assert_eq!(b.intern("high"), 2);
        assert!(!Arc::ptr_eq(&a.shared, &b.shared));
        assert!(a.labels().eq(["low", "mid"]));
        assert_eq!(a.code("high"), None);
        assert!(b.labels().eq(["low", "mid", "high"]));
        assert_eq!(b.code("high"), Some(2));
        assert_ne!(a, b);
        // The copy is now b's alone: further interning stays in place.
        let before = Arc::as_ptr(&b.shared);
        b.intern("top");
        assert_eq!(Arc::as_ptr(&b.shared), before);
    }

    #[test]
    fn labels_whose_hashes_collide_keep_their_own_codes() {
        let mut d = Dictionary::from_labels(["a"]);
        // Occupy the key of "b" and the one after it, as labels whose
        // hashes collide with it would.
        let labels = Arc::make_mut(&mut d.shared);
        let key = labels.hasher.hash_one("b");
        labels.index.insert(key, 0);
        labels.index.insert(key.wrapping_add(1), 0);
        assert_eq!(d.code("b"), None);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.code("b"), Some(1));
        assert_eq!(d.code("a"), Some(0));
        assert_eq!(d.label(1), Some("b"));
        assert!(d.labels().eq(["a", "b"]));
    }

    #[test]
    fn dictionaries_compare_by_their_labels_in_order() {
        let ab = Dictionary::from_labels(["a", "b"]);
        assert_eq!(ab, Dictionary::from_labels(["a", "b"]));
        assert_ne!(ab, Dictionary::from_labels(["b", "a"]));
        assert_ne!(ab, Dictionary::from_labels(["ab"]));
        assert_ne!(ab, Dictionary::from_labels(["a", "c"]));
        assert_eq!(format!("{ab:?}"), r#"["a", "b"]"#);
    }

    #[test]
    fn from_labels_collapses_duplicates() {
        let d = Dictionary::from_labels(["a", "b", "a", "c"]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.code("c"), Some(2));
    }

    #[test]
    fn attribute_constructors() {
        let a = AttributeDef::numeric("age", AttributeRole::QuasiIdentifier);
        assert_eq!(a.kind, AttributeKind::Numeric);
        assert!(a.dictionary.is_empty());

        let o = AttributeDef::ordinal("edu", AttributeRole::Confidential, ["primary", "phd"]);
        assert_eq!(o.kind, AttributeKind::OrdinalCategorical);
        assert_eq!(o.dictionary.len(), 2);
        assert!(o.kind.is_categorical());

        let n = AttributeDef::nominal("job", AttributeRole::NonConfidential, ["nurse"]);
        assert_eq!(n.kind, AttributeKind::NominalCategorical);
        let n = n.with_role(AttributeRole::Confidential);
        assert_eq!(n.role, AttributeRole::Confidential);
    }
}
