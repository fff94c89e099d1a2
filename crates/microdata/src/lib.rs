//! # tclose-microdata
//!
//! A microdata model for statistical disclosure control (SDC).
//!
//! A *microdata set* is a table where each row holds data about one subject
//! and each column holds one attribute. For anonymization purposes the
//! attributes are classified by their disclosiveness ([`AttributeRole`]):
//!
//! * **Identifiers** — unambiguously identify the subject (name, SSN). They
//!   are dropped from any release.
//! * **Quasi-identifiers (QIs)** — do not identify a subject alone but may in
//!   combination (age, zip code, admission date). Anonymization algorithms
//!   perturb or generalize these.
//! * **Confidential attributes** — the sensitive values whose disclosure must
//!   be prevented (income, diagnosis). t-Closeness constrains their
//!   within-group distribution.
//! * **Non-confidential attributes** — everything else; released as is.
//!
//! This is the attribute taxonomy of Section 2 of the source paper
//! (Soria-Comas et al., ICDE 2016) and of the SDC literature it builds on
//! (Samarati 2001; Domingo-Ferrer & Torra 2005); every layer above —
//! metrics (EMD), microaggregation (MDAV/V-MDAV), Algorithms 1–3 — speaks
//! this vocabulary.
//!
//! The central type is [`Table`]: a typed, columnar container with O(1)
//! column access, row views, projections and CSV I/O. Columns are either
//! numerical (`f64`) or categorical (dictionary-encoded `u32` codes, ordinal
//! or nominal).
//!
//! ## Example
//!
//! ```
//! use tclose_microdata::{Table, Schema, AttributeDef, AttributeRole, Value};
//!
//! let schema = Schema::new(vec![
//!     AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
//!     AttributeDef::numeric("income", AttributeRole::Confidential),
//! ]).unwrap();
//! let mut table = Table::new(schema);
//! table.push_row(&[Value::Number(34.0), Value::Number(51_300.0)]).unwrap();
//! table.push_row(&[Value::Number(58.0), Value::Number(28_750.0)]).unwrap();
//! assert_eq!(table.n_rows(), 2);
//! assert_eq!(table.numeric_column(1).unwrap()[0], 51_300.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod column;
pub mod csv;
pub mod error;
pub mod normalize;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use attribute::{AttributeDef, AttributeKind, AttributeRole, Dictionary};
pub use column::Column;
pub use error::{Error, Result};
pub use normalize::NormalizeMethod;
pub use schema::Schema;
pub use stats::{correlation, mean, population_variance, range, std_dev, RunningStats};
pub use table::Table;
pub use value::Value;
