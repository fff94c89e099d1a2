//! Table schemas: ordered attribute definitions with role-based queries.

use crate::attribute::{AttributeDef, AttributeKind, AttributeRole, Dictionary};
use crate::error::{Error, Result};

/// An ordered collection of [`AttributeDef`]s with unique names.
///
/// The schema answers "which columns are quasi-identifiers?" and similar
/// role queries that every anonymization algorithm needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<AttributeDef>,
}

impl Schema {
    /// Builds a schema, validating non-emptiness and name uniqueness.
    pub fn new(attributes: Vec<AttributeDef>) -> Result<Self> {
        if attributes.is_empty() {
            return Err(Error::InvalidSchema(
                "schema must have at least one attribute".into(),
            ));
        }
        for (i, a) in attributes.iter().enumerate() {
            if a.name.is_empty() {
                return Err(Error::InvalidSchema(format!(
                    "attribute {i} has an empty name"
                )));
            }
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(Error::InvalidSchema(format!(
                    "duplicate attribute name {:?}",
                    a.name
                )));
            }
        }
        Ok(Schema { attributes })
    }

    /// Number of attributes.
    pub fn n_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// All attribute definitions, in column order.
    pub fn attributes(&self) -> &[AttributeDef] {
        &self.attributes
    }

    /// Definition of column `index`.
    pub fn attribute(&self, index: usize) -> Result<&AttributeDef> {
        self.attributes.get(index).ok_or(Error::ColumnOutOfBounds {
            index,
            n_cols: self.attributes.len(),
        })
    }

    /// Mutable definition of column `index` (used by CSV ingestion to extend
    /// dictionaries).
    pub(crate) fn attribute_mut(&mut self, index: usize) -> Result<&mut AttributeDef> {
        let n_cols = self.attributes.len();
        self.attributes
            .get_mut(index)
            .ok_or(Error::ColumnOutOfBounds { index, n_cols })
    }

    /// Column index of the attribute called `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| Error::UnknownAttribute(name.to_owned()))
    }

    /// Column indices with the given role, in column order.
    pub fn indices_with_role(&self, role: AttributeRole) -> Vec<usize> {
        self.attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| a.role == role)
            .map(|(i, _)| i)
            .collect()
    }

    /// Column indices of the quasi-identifier attributes.
    pub fn quasi_identifiers(&self) -> Vec<usize> {
        self.indices_with_role(AttributeRole::QuasiIdentifier)
    }

    /// Column indices of the confidential attributes.
    pub fn confidential(&self) -> Vec<usize> {
        self.indices_with_role(AttributeRole::Confidential)
    }

    /// Column indices of identifier attributes (to be dropped on release).
    pub fn identifiers(&self) -> Vec<usize> {
        self.indices_with_role(AttributeRole::Identifier)
    }

    /// Empties the dictionary of every categorical pass-through attribute
    /// (see [`AttributeDef::is_categorical_pass_through`]), leaving every
    /// other attribute as it is.
    pub fn clear_pass_through_labels(&mut self) {
        for a in &mut self.attributes {
            if a.is_categorical_pass_through() {
                a.dictionary = Dictionary::new();
            }
        }
    }

    /// Reassigns roles by attribute name; unknown names are an error.
    pub fn set_roles(&mut self, roles: &[(&str, AttributeRole)]) -> Result<()> {
        for (name, role) in roles {
            let i = self.index_of(name)?;
            self.attributes[i].role = *role;
        }
        Ok(())
    }

    /// New schema with only the attributes at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Result<Schema> {
        let mut attrs = Vec::with_capacity(indices.len());
        for &i in indices {
            attrs.push(self.attribute(i)?.clone());
        }
        Schema::new(attrs)
    }

    /// True when the attribute at `index` is numeric.
    pub fn is_numeric(&self, index: usize) -> bool {
        self.attributes
            .get(index)
            .map(|a| a.kind == AttributeKind::Numeric)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::new(vec![
            AttributeDef::numeric("ssn", AttributeRole::Identifier),
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("zip", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("income", AttributeRole::Confidential),
            AttributeDef::nominal("hobby", AttributeRole::NonConfidential, ["chess"]),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert!(matches!(Schema::new(vec![]), Err(Error::InvalidSchema(_))));
        let dup = vec![
            AttributeDef::numeric("a", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("a", AttributeRole::Confidential),
        ];
        assert!(matches!(Schema::new(dup), Err(Error::InvalidSchema(_))));
        let unnamed = vec![AttributeDef::numeric("", AttributeRole::Confidential)];
        assert!(matches!(Schema::new(unnamed), Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn role_queries() {
        let s = demo();
        assert_eq!(s.quasi_identifiers(), vec![1, 2]);
        assert_eq!(s.confidential(), vec![3]);
        assert_eq!(s.identifiers(), vec![0]);
        assert_eq!(s.indices_with_role(AttributeRole::NonConfidential), vec![4]);
    }

    #[test]
    fn index_of_and_projection() {
        let s = demo();
        assert_eq!(s.index_of("zip").unwrap(), 2);
        assert!(s.index_of("nope").is_err());
        let p = s.project(&[3, 1]).unwrap();
        assert_eq!(p.n_attributes(), 2);
        assert_eq!(p.attribute(0).unwrap().name, "income");
        assert_eq!(p.attribute(1).unwrap().name, "age");
        assert!(s.project(&[99]).is_err());
    }

    #[test]
    fn set_roles() {
        let mut s = demo();
        s.set_roles(&[("hobby", AttributeRole::Confidential)])
            .unwrap();
        assert_eq!(s.confidential(), vec![3, 4]);
        assert!(s
            .set_roles(&[("ghost", AttributeRole::Identifier)])
            .is_err());
    }

    #[test]
    fn clearing_pass_through_labels_keeps_interpreted_dictionaries() {
        let mut s = Schema::new(vec![
            AttributeDef::nominal("hobby", AttributeRole::NonConfidential, ["chess"]),
            AttributeDef::nominal("name", AttributeRole::Identifier, ["ann"]),
            AttributeDef::ordinal("edu", AttributeRole::QuasiIdentifier, ["lo", "hi"]),
            AttributeDef::nominal("dx", AttributeRole::Confidential, ["flu"]),
            AttributeDef::numeric("age", AttributeRole::NonConfidential),
        ])
        .unwrap();
        let before = s.clone();
        s.clear_pass_through_labels();
        let lens: Vec<usize> = s.attributes().iter().map(|a| a.dictionary.len()).collect();
        assert_eq!(lens, [0, 0, 2, 1, 0]);
        assert_eq!(s.attributes()[2..], before.attributes()[2..]);
    }

    #[test]
    fn is_numeric() {
        let s = demo();
        assert!(s.is_numeric(1));
        assert!(!s.is_numeric(4));
        assert!(!s.is_numeric(99));
    }
}
