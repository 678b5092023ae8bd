//! Dictionary encoding of one column, built afresh or carried from the
//! encoding of the table an update replaced.
//!
//! A [`Dict`] gives every row the id of its folded value (`NULL_ID` for a
//! row without one) and keeps each distinct value once. Ids are assigned in
//! first-appearance order down the column, so an encoding is a function of
//! the column alone — whatever it was carried from. Carrying is what makes
//! an update cost its dirty rows: a row the caller maps to a row of the
//! previous encoding (`old_of`) takes that row's value by id, and only the
//! other rows render, fold and look their value up. A cold encoding is the
//! carried one with nothing carried. A carried encoding also says, per value,
//! which value of the previous encoding it is ([`PriorIds`]): handed to the
//! walk that carries the previous pass's classes, never kept.

use std::collections::btree_map::{BTreeMap, Entry};

use wrangler_table::{TableError, Value};

/// Dictionary id of a row without a value (null, or no key).
pub(crate) const NULL_ID: u32 = u32::MAX;

/// A distinct value of a dictionary: what it is ordered and looked up by.
pub(crate) trait Folded {
    /// The folded rendering the value was made from.
    fn folded(&self) -> &str;
}

impl Folded for String {
    fn folded(&self) -> &str {
        self
    }
}

/// Per dictionary of a carried build (blocks or kernel), each value's id in
/// the dictionary it was carried from, or `NULL_ID` for a value new to it;
/// empty for a dictionary built cold. What the carry learned, handed to the
/// walk carried from that build ([`crate::PriorWalk`]) so that a dirty row
/// finds the record it repeats among the prior classes by ids. No build
/// keeps it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PriorIds(pub(crate) Vec<Vec<u32>>);

impl PriorIds {
    /// Row `r`'s value in `dict` — this build's dictionary `k` — as an id of
    /// the prior's dictionary `k`: [`NULL_ID`] for a row with no value,
    /// `None` when the value is new to the prior.
    pub(crate) fn of<V>(&self, k: usize, dict: &Dict<V>, r: usize) -> Option<u32> {
        match dict.ids[r] {
            NULL_ID => Some(NULL_ID),
            id => (self.0[k].get(id as usize).copied()).filter(|&p| p != NULL_ID),
        }
    }

    /// Do these ids cover a build whose dictionaries hold `values` values
    /// each, in order (`None`: a field with no dictionary, as a numeric
    /// one)?
    pub(crate) fn fit(&self, values: impl ExactSizeIterator<Item = Option<usize>>) -> bool {
        self.0.len() == values.len()
            && (self.0.iter().zip(values)).all(|(ids, n)| ids.len() == n.unwrap_or(0))
    }
}

/// One column, dictionary-encoded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Dict<V> {
    /// Per row, the id of its value, or [`NULL_ID`].
    pub(crate) ids: Vec<u32>,
    /// The distinct values, in order of first appearance down the column.
    pub(crate) values: Vec<V>,
    /// Every id, in ascending order of its value's folded rendering: how a
    /// later encoding finds a value by rendering, and the key order blocks
    /// are laid out in.
    pub(crate) sorted: Vec<u32>,
}

impl<V: Folded + Clone> Dict<V> {
    /// `rows` rows, none with a value.
    pub(crate) fn empty(rows: usize) -> Dict<V> {
        Dict {
            ids: vec![NULL_ID; rows],
            values: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// Encode `column`: `fold` renders a row's value (`None`: the row has
    /// none) and `make` builds a distinct value from its rendering. With a
    /// `prior` encoding, row `r` with `old_of[r] = Some(o)` takes row `o`'s
    /// value without folding anything — the caller promises the two rows
    /// hold equal cells — and the rest look their rendering up among the
    /// prior values before minting a new one. Either way the result equals
    /// the cold encoding of `column`, field for field. Beside it, per value,
    /// its id in the prior encoding ([`NULL_ID`]: new); empty when cold.
    /// `old_of` is checked by [`check_old_of`] beforehand.
    pub(crate) fn encode(
        column: &[Value],
        fold: impl Fn(&Value) -> Option<String>,
        make: impl Fn(String) -> V,
        prior: Option<(&Dict<V>, &[Option<usize>])>,
    ) -> (Dict<V>, Vec<u32>) {
        let (old, old_of) = match prior {
            Some((old, old_of)) => (Some(old), old_of),
            None => (None, &[][..]),
        };
        let old_values = old.map_or(&[][..], |o| &o.values[..]);
        // Old id → new id, assigned where the value first appears.
        let mut remap = vec![NULL_ID; old_values.len()];
        // Values no prior row holds, by rendering.
        let mut fresh: BTreeMap<String, u32> = BTreeMap::new();
        let mut values: Vec<V> = Vec::new();
        let mut adopt = |a: u32, values: &mut Vec<V>| -> u32 {
            let slot = &mut remap[a as usize];
            if *slot == NULL_ID {
                // At most one value per row, and the callers bound rows
                // below `NULL_ID`.
                *slot = values.len() as u32;
                values.push(old_values[a as usize].clone());
            }
            *slot
        };
        let mut ids = Vec::with_capacity(column.len());
        for (r, v) in column.iter().enumerate() {
            let id = match (old, old_of.get(r).copied().flatten()) {
                (Some(old), Some(o)) => match old.ids[o] {
                    NULL_ID => NULL_ID,
                    a => adopt(a, &mut values),
                },
                _ => match fold(v) {
                    None => NULL_ID,
                    Some(key) => match old.and_then(|o| o.find(&key)) {
                        Some(a) => adopt(a, &mut values),
                        None => match fresh.entry(key) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                let id = values.len() as u32;
                                values.push(make(e.key().clone()));
                                *e.insert(id)
                            }
                        },
                    },
                },
            };
            ids.push(id);
        }
        // The surviving prior values keep their relative order; each fresh
        // one (in rendering order already) is merged in where it belongs.
        let survivors: Vec<u32> = old
            .map(|o| o.sorted.iter().map(|&a| remap[a as usize]))
            .into_iter()
            .flatten()
            .filter(|&id| id != NULL_ID)
            .collect();
        let mut sorted = Vec::with_capacity(values.len());
        let mut rest = &survivors[..];
        for &id in fresh.values() {
            let key = values[id as usize].folded();
            let at = rest.partition_point(|&s| values[s as usize].folded() < key);
            sorted.extend_from_slice(&rest[..at]);
            sorted.push(id);
            rest = &rest[at..];
        }
        sorted.extend_from_slice(rest);
        let mut prior_ids = Vec::new();
        if old.is_some() {
            prior_ids = vec![NULL_ID; values.len()];
            for (a, &id) in remap.iter().enumerate().filter(|&(_, &id)| id != NULL_ID) {
                prior_ids[id as usize] = a as u32;
            }
        }
        let dict = Dict {
            ids,
            values,
            sorted,
        };
        (dict, prior_ids)
    }

    /// The id of the value rendered `key`, if there is one.
    fn find(&self, key: &str) -> Option<u32> {
        let at = self
            .sorted
            .binary_search_by(|&id| self.values[id as usize].folded().cmp(key))
            .ok()?;
        Some(self.sorted[at])
    }
}

/// Is `old_of` a row map from a table of `rows` rows into one of
/// `old_rows`? A structured error otherwise, before any cell is carried.
pub(crate) fn check_old_of(
    old_of: &[Option<usize>],
    rows: usize,
    old_rows: usize,
) -> wrangler_table::Result<()> {
    if old_of.len() != rows {
        return Err(TableError::Invalid(format!(
            "a carry maps {} rows onto a table of {rows}",
            old_of.len()
        )));
    }
    match old_of.iter().flatten().find(|&&o| o >= old_rows) {
        Some(o) => Err(TableError::Invalid(format!(
            "a carry maps a row to row {o} of a table of {old_rows}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(v: &Value) -> Option<String> {
        (!v.is_null()).then(|| v.text().to_lowercase())
    }

    fn col(xs: &[Option<&str>]) -> Vec<Value> {
        xs.iter()
            .map(|x| x.map_or(Value::Null, Value::from))
            .collect()
    }

    fn cold(column: &[Value]) -> Dict<String> {
        Dict::encode(column, fold, |s| s, None).0
    }

    #[test]
    fn ids_follow_first_appearance_and_sorted_follows_rendering() {
        let d = cold(&col(&[Some("b"), None, Some("A"), Some("B"), Some("c")]));
        assert_eq!(d.ids, vec![0, NULL_ID, 1, 0, 2]);
        assert_eq!(d.values, vec!["b", "a", "c"]);
        assert_eq!(d.sorted, vec![1, 0, 2]);
        assert_eq!((d.find("c"), d.find("d")), (Some(2), None));
    }

    #[test]
    fn a_carry_renumbers_drops_and_mints_as_a_cold_encoding_would() {
        let old_col = col(&[Some("x"), Some("y"), None, Some("z")]);
        let old = cold(&old_col);
        // Rows 0 and 1 swap places and keep their cells; "z" is gone; a
        // dirty row brings "y" back by rendering, another a new value, a
        // third a null.
        let new_col = col(&[Some("y"), Some("x"), Some("Y"), Some("w"), None]);
        let old_of = [Some(1), Some(0), None, None, None];
        check_old_of(&old_of, 5, 4).unwrap();
        let (carried, prior_ids) = Dict::encode(&new_col, fold, |s| s, Some((&old, &old_of[..])));
        assert_eq!(carried, cold(&new_col));
        assert_eq!(carried.values, vec!["y", "x", "w"]);
        // A carried row takes its id without being folded at all.
        let (blind, _) = Dict::encode(&new_col, |_| None, |s| s, Some((&old, &old_of[..])));
        assert_eq!(&blind.ids[..2], &[0, 1]);
        // Each carried value knows its old id; the new one has none, and a
        // cold encoding knows nothing.
        assert_eq!(prior_ids, vec![1, 0, NULL_ID]);
        let ids = PriorIds(vec![prior_ids]);
        let in_old: Vec<_> = (0..5).map(|r| ids.of(0, &carried, r)).collect();
        assert_eq!(in_old, vec![Some(1), Some(0), Some(1), None, Some(NULL_ID)]);
        assert!(ids.fit([Some(3)].into_iter()) && !ids.fit([Some(2)].into_iter()));
        assert!(Dict::encode(&new_col, fold, |s| s, None).1.is_empty());
        assert!(check_old_of(&old_of, 4, 4).is_err());
        assert!(check_old_of(&[Some(4)], 1, 4).is_err());
    }
}
