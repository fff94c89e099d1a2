//! The central microdata container.

use crate::attribute::{AttributeKind, AttributeRole};
use crate::column::Column;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;

/// A typed, columnar microdata set.
///
/// Rows are subjects (records), columns are attributes. The schema is fixed
/// at construction; rows are appended with [`Table::push_row`]. Numeric
/// values must be finite — anonymization distance computations do not admit
/// NaN/∞ — and categorical codes must exist in the attribute dictionary.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| Column::empty(a.kind.is_categorical()))
            .collect();
        Table {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// Builds a table directly from columns (must all have equal length and
    /// match the schema's kinds).
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.n_attributes() {
            return Err(Error::RowMismatch {
                detail: format!(
                    "{} columns supplied for a schema of {} attributes",
                    columns.len(),
                    schema.n_attributes()
                ),
            });
        }
        let n_rows = columns.first().map(Column::len).unwrap_or(0);
        for (i, c) in columns.iter().enumerate() {
            let attr = schema.attribute(i)?;
            let want_cat = attr.kind.is_categorical();
            let is_cat = matches!(c, Column::Cat(_));
            if want_cat != is_cat {
                return Err(Error::TypeMismatch {
                    attribute: attr.name.clone(),
                    expected: if want_cat { "categorical" } else { "numeric" },
                    actual: c.kind_name(),
                });
            }
            if c.len() != n_rows {
                return Err(Error::RowMismatch {
                    detail: format!(
                        "column {:?} has {} values but the first column has {}",
                        attr.name,
                        c.len(),
                        n_rows
                    ),
                });
            }
            if let Column::F64(v) = c {
                if let Some(row) = v.iter().position(|x| !x.is_finite()) {
                    return Err(Error::NonFiniteValue {
                        attribute: attr.name.clone(),
                        row,
                    });
                }
            }
            if let Column::Cat(v) = c {
                let n_cats = attr.dictionary.len() as u32;
                if let Some(&code) = v.iter().find(|&&code| code >= n_cats) {
                    return Err(Error::UnknownCategory {
                        attribute: attr.name.clone(),
                        code,
                    });
                }
            }
        }
        Ok(Table {
            schema,
            columns,
            n_rows,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable schema access (e.g. to reassign attribute roles).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Number of records.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True when the table has no records.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Appends one record given as dynamically-typed values in column order.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::RowMismatch {
                detail: format!(
                    "row has {} values but the schema has {} attributes",
                    row.len(),
                    self.columns.len()
                ),
            });
        }
        // Validate everything before mutating any column so a failed push
        // leaves the table unchanged.
        for (i, v) in row.iter().enumerate() {
            let attr = self.schema.attribute(i)?;
            if !v.is_finite() {
                return Err(Error::NonFiniteValue {
                    attribute: attr.name.clone(),
                    row: self.n_rows,
                });
            }
            match (attr.kind.is_categorical(), v) {
                (false, Value::Number(_)) => {}
                (true, Value::Category(c)) => {
                    if *c as usize >= attr.dictionary.len() {
                        return Err(Error::UnknownCategory {
                            attribute: attr.name.clone(),
                            code: *c,
                        });
                    }
                }
                _ => {
                    return Err(Error::TypeMismatch {
                        attribute: attr.name.clone(),
                        expected: if attr.kind.is_categorical() {
                            "categorical"
                        } else {
                            "numeric"
                        },
                        actual: v.kind_name(),
                    })
                }
            }
        }
        for (c, v) in self.columns.iter_mut().zip(row) {
            let ok = c.push(v);
            debug_assert!(ok, "validated push cannot fail");
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Borrow column `index`.
    pub fn column(&self, index: usize) -> Result<&Column> {
        self.columns.get(index).ok_or(Error::ColumnOutOfBounds {
            index,
            n_cols: self.columns.len(),
        })
    }

    /// Borrow column `index` as a numeric slice.
    pub fn numeric_column(&self, index: usize) -> Result<&[f64]> {
        let col = self.column(index)?;
        col.as_f64().ok_or_else(|| Error::TypeMismatch {
            attribute: self
                .schema
                .attribute(index)
                .map(|a| a.name.clone())
                .unwrap_or_default(),
            expected: "numeric",
            actual: col.kind_name(),
        })
    }

    /// Borrow column `index` as categorical codes.
    pub fn categorical_column(&self, index: usize) -> Result<&[u32]> {
        let col = self.column(index)?;
        col.as_cat().ok_or_else(|| Error::TypeMismatch {
            attribute: self
                .schema
                .attribute(index)
                .map(|a| a.name.clone())
                .unwrap_or_default(),
            expected: "categorical",
            actual: col.kind_name(),
        })
    }

    /// Borrow column `index` by attribute name as a numeric slice.
    pub fn numeric_column_by_name(&self, name: &str) -> Result<&[f64]> {
        self.numeric_column(self.schema.index_of(name)?)
    }

    /// Dynamically-typed copy of record `row`.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.n_rows {
            return Err(Error::RowOutOfBounds {
                index: row,
                n_rows: self.n_rows,
            });
        }
        Ok(self
            .columns
            .iter()
            .map(|c| c.get(row).expect("validated length"))
            .collect())
    }

    /// Overwrites one numeric cell (used by the aggregation step that
    /// replaces quasi-identifiers with cluster centroids).
    pub fn set_numeric(&mut self, col: usize, row: usize, value: f64) -> Result<()> {
        if row >= self.n_rows {
            return Err(Error::RowOutOfBounds {
                index: row,
                n_rows: self.n_rows,
            });
        }
        if !value.is_finite() {
            return Err(Error::NonFiniteValue {
                attribute: self.schema.attribute(col)?.name.clone(),
                row,
            });
        }
        let name = self.schema.attribute(col)?.name.clone();
        let n_cols = self.columns.len();
        let column = self
            .columns
            .get_mut(col)
            .ok_or(Error::ColumnOutOfBounds { index: col, n_cols })?;
        match column.as_f64_mut() {
            Some(v) => {
                v[row] = value;
                Ok(())
            }
            None => Err(Error::TypeMismatch {
                attribute: name,
                expected: "numeric",
                actual: "categorical",
            }),
        }
    }

    /// Overwrites one categorical cell.
    pub fn set_category(&mut self, col: usize, row: usize, code: u32) -> Result<()> {
        if row >= self.n_rows {
            return Err(Error::RowOutOfBounds {
                index: row,
                n_rows: self.n_rows,
            });
        }
        let attr = self.schema.attribute(col)?;
        if code as usize >= attr.dictionary.len() {
            return Err(Error::UnknownCategory {
                attribute: attr.name.clone(),
                code,
            });
        }
        let name = attr.name.clone();
        let n_cols = self.columns.len();
        let column = self
            .columns
            .get_mut(col)
            .ok_or(Error::ColumnOutOfBounds { index: col, n_cols })?;
        match column.as_cat_mut() {
            Some(v) => {
                v[row] = code;
                Ok(())
            }
            None => Err(Error::TypeMismatch {
                attribute: name,
                expected: "categorical",
                actual: "numeric",
            }),
        }
    }

    /// New table with only the attributes at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Result<Table> {
        let schema = self.schema.project(indices)?;
        let mut columns = Vec::with_capacity(indices.len());
        for &i in indices {
            columns.push(self.column(i)?.clone());
        }
        Ok(Table {
            schema,
            columns,
            n_rows: self.n_rows,
        })
    }

    /// New table with only the records at `rows`, in that order (repeats
    /// allowed — useful for bootstrap sampling).
    pub fn take_rows(&self, rows: &[usize]) -> Result<Table> {
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.n_rows) {
            return Err(Error::RowOutOfBounds {
                index: bad,
                n_rows: self.n_rows,
            });
        }
        let columns = self.columns.iter().map(|c| c.take(rows)).collect();
        Ok(Table {
            schema: self.schema.clone(),
            columns,
            n_rows: rows.len(),
        })
    }

    /// Drops identifier attributes, returning the release-ready projection.
    pub fn drop_identifiers(&self) -> Result<Table> {
        let keep: Vec<usize> = (0..self.n_cols())
            .filter(|&i| {
                self.schema
                    .attribute(i)
                    .map(|a| a.role != AttributeRole::Identifier)
                    .unwrap_or(true)
            })
            .collect();
        self.project(&keep)
    }

    /// Iterator over records as dynamically-typed vectors.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.n_rows).map(move |r| self.row(r).expect("in-bounds row"))
    }

    /// True when every attribute is numeric.
    pub fn all_numeric(&self) -> bool {
        self.schema
            .attributes()
            .iter()
            .all(|a| a.kind == AttributeKind::Numeric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::AttributeDef;

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("income", AttributeRole::Confidential),
            AttributeDef::nominal("sex", AttributeRole::QuasiIdentifier, ["f", "m"]),
        ])
        .unwrap()
    }

    fn demo() -> Table {
        let mut t = Table::new(schema());
        t.push_row(&[
            Value::Number(30.0),
            Value::Number(100.0),
            Value::Category(0),
        ])
        .unwrap();
        t.push_row(&[
            Value::Number(40.0),
            Value::Number(200.0),
            Value::Category(1),
        ])
        .unwrap();
        t.push_row(&[
            Value::Number(50.0),
            Value::Number(300.0),
            Value::Category(0),
        ])
        .unwrap();
        t
    }

    #[test]
    fn push_row_validates_arity_type_and_finiteness() {
        let mut t = Table::new(schema());
        assert!(matches!(
            t.push_row(&[Value::Number(1.0)]),
            Err(Error::RowMismatch { .. })
        ));
        assert!(matches!(
            t.push_row(&[Value::Category(0), Value::Number(1.0), Value::Category(0)]),
            Err(Error::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.push_row(&[
                Value::Number(f64::NAN),
                Value::Number(1.0),
                Value::Category(0)
            ]),
            Err(Error::NonFiniteValue { .. })
        ));
        assert!(matches!(
            t.push_row(&[Value::Number(1.0), Value::Number(1.0), Value::Category(7)]),
            Err(Error::UnknownCategory { .. })
        ));
        // failed pushes leave the table unchanged
        assert_eq!(t.n_rows(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn row_and_column_access() {
        let t = demo();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.numeric_column(0).unwrap(), &[30.0, 40.0, 50.0]);
        assert_eq!(t.categorical_column(2).unwrap(), &[0, 1, 0]);
        assert!(t.numeric_column(2).is_err());
        assert!(t.categorical_column(0).is_err());
        assert_eq!(
            t.row(1).unwrap(),
            vec![
                Value::Number(40.0),
                Value::Number(200.0),
                Value::Category(1)
            ]
        );
        assert!(t.row(3).is_err());
        assert_eq!(t.numeric_column_by_name("income").unwrap()[2], 300.0);
    }

    #[test]
    fn projection_and_row_selection() {
        let t = demo();
        let p = t.project(&[1]).unwrap();
        assert_eq!(p.n_cols(), 1);
        assert_eq!(p.numeric_column(0).unwrap(), &[100.0, 200.0, 300.0]);

        let s = t.take_rows(&[2, 0]).unwrap();
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.numeric_column(0).unwrap(), &[50.0, 30.0]);
        assert!(t.take_rows(&[9]).is_err());
    }

    #[test]
    fn set_numeric_and_set_category() {
        let mut t = demo();
        t.set_numeric(0, 1, 99.0).unwrap();
        assert_eq!(t.numeric_column(0).unwrap()[1], 99.0);
        assert!(t.set_numeric(0, 9, 1.0).is_err());
        assert!(t.set_numeric(2, 0, 1.0).is_err());
        assert!(t.set_numeric(0, 0, f64::INFINITY).is_err());

        t.set_category(2, 0, 1).unwrap();
        assert_eq!(t.categorical_column(2).unwrap()[0], 1);
        assert!(t.set_category(2, 0, 9).is_err());
        assert!(t.set_category(0, 0, 0).is_err());
    }

    #[test]
    fn from_columns_validates() {
        let s = schema();
        let cols = vec![
            Column::F64(vec![1.0, 2.0]),
            Column::F64(vec![3.0, 4.0]),
            Column::Cat(vec![0, 1]),
        ];
        let t = Table::from_columns(s.clone(), cols).unwrap();
        assert_eq!(t.n_rows(), 2);

        // ragged columns
        let cols = vec![
            Column::F64(vec![1.0]),
            Column::F64(vec![3.0, 4.0]),
            Column::Cat(vec![0, 1]),
        ];
        assert!(Table::from_columns(s.clone(), cols).is_err());

        // wrong kind
        let cols = vec![
            Column::Cat(vec![0, 0]),
            Column::F64(vec![3.0, 4.0]),
            Column::Cat(vec![0, 1]),
        ];
        assert!(Table::from_columns(s.clone(), cols).is_err());

        // non-finite numeric
        let cols = vec![
            Column::F64(vec![1.0, f64::NAN]),
            Column::F64(vec![3.0, 4.0]),
            Column::Cat(vec![0, 1]),
        ];
        assert!(Table::from_columns(s.clone(), cols).is_err());

        // out-of-dictionary code
        let cols = vec![
            Column::F64(vec![1.0, 2.0]),
            Column::F64(vec![3.0, 4.0]),
            Column::Cat(vec![0, 9]),
        ];
        assert!(Table::from_columns(s, cols).is_err());
    }

    #[test]
    fn drop_identifiers_removes_id_columns() {
        let mut s = schema();
        s.set_roles(&[("age", AttributeRole::Identifier)]).unwrap();
        let mut t = Table::new(s);
        t.push_row(&[Value::Number(1.0), Value::Number(2.0), Value::Category(1)])
            .unwrap();
        let released = t.drop_identifiers().unwrap();
        assert_eq!(released.n_cols(), 2);
        assert_eq!(released.schema().attribute(0).unwrap().name, "income");
    }

    #[test]
    fn rows_iterator_yields_all_records() {
        let t = demo();
        assert_eq!(t.rows().count(), 3);
        assert!(!t.all_numeric());
        let p = t.project(&[0, 1]).unwrap();
        assert!(p.all_numeric());
    }
}
