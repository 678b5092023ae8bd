//! [`Text`], the payload of a string cell: a shared, immutable UTF-8 string.
//!
//! A cell is copied far more often than it is built: a mapped table's rows
//! go into the union, the union's cells into the claim set, and the claim
//! set into the session cache. `Text` is an `Arc<str>`, so each of those
//! copies bumps a count instead of allocating, and every copy of a cell
//! shares one allocation. It reads as a `str` everywhere (`Deref`, `Hash`,
//! `Eq`, `Ord`, `Debug` and `Display` are `str`'s), so a cell hashes, sorts
//! and prints exactly as the `str` it holds, and its wire bytes are a
//! `String`'s.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A shared, immutable UTF-8 string: cloning bumps a reference count.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Text(Arc<str>);

impl Text {
    /// Append `s`. The string is shared with every clone, so this builds a
    /// new one for `self` and leaves the clones as they were.
    pub fn push_str(&mut self, s: &str) {
        let mut grown = String::with_capacity(self.len() + s.len());
        grown.push_str(self);
        grown.push_str(s);
        self.0 = grown.into();
    }

    /// True when `a` and `b` share one allocation (not merely equal text).
    pub fn ptr_eq(a: &Text, b: &Text) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(s.into())
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text(s.into())
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}
