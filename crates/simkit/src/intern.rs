//! Name interning and the one name charset every instrument shares.
//!
//! Metric, span, phase, attribute-key and alert-rule names are all drawn
//! from `[A-Za-z0-9._-]` ([`valid_name`]), so the JSONL/CSV wire formats
//! and Prometheus label values never need escaping. An [`Interner`] maps
//! such names to dense indices once, up front, so hot loops index arrays
//! instead of hashing strings; each instrument wraps the index in its own
//! id type.

use std::collections::BTreeMap;

/// `true` for a non-empty name drawn only from `[A-Za-z0-9._-]`.
pub fn valid_name(name: &str) -> bool {
    // A fold rather than `all`: without the early exit the loop has no
    // branch per byte, and nearly every name checked is valid.
    !name.is_empty()
        && name
            .bytes()
            .fold(true, |ok, b| ok & NAME_BYTES[usize::from(b)])
}

/// How many leading bytes of `bytes` are in the name charset.
pub(crate) fn name_prefix_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .take_while(|&&b| NAME_BYTES[usize::from(b)])
        .count()
}

/// The name charset as a byte table: the codecs check every name they
/// parse, so this sits on the ingest hot path, where one load per byte
/// beats the chain of range tests.
const NAME_BYTES: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < table.len() {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || matches!(c, b'.' | b'_' | b'-');
        b += 1;
    }
    table
};

/// Interns names to dense `u16` indices handed out in first-seen order.
///
/// The table checks no charset: callers that need one check
/// [`valid_name`] first, with their own message.
///
/// # Example
///
/// ```
/// use simkit::intern::Interner;
///
/// let mut names = Interner::new();
/// let a = names.intern("step.plan");
/// assert_eq!(names.intern("step.apply"), a + 1);
/// assert_eq!(names.intern("step.plan"), a);
/// assert_eq!(names.name(a), "step.plan");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Interner {
    names: Vec<String>,
    index: BTreeMap<String, u16>,
}

impl Interner {
    /// Creates an empty table.
    pub fn new() -> Self {
        Interner::default()
    }

    /// The index of `name`, if it has been interned.
    pub fn get(&self, name: &str) -> Option<u16> {
        self.index.get(name).copied()
    }

    /// Interns `name`, returning its index (existing or fresh).
    ///
    /// # Panics
    ///
    /// Panics if the table already holds `u16::MAX` names.
    pub fn intern(&mut self, name: &str) -> u16 {
        if let Some(index) = self.get(name) {
            return index;
        }
        let index = u16::try_from(self.names.len())
            .ok()
            .filter(|&i| i < u16::MAX)
            .expect("name table full");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), index);
        index
    }

    /// The name behind `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not handed out by this table.
    pub fn name(&self, index: u16) -> &str {
        &self.names[usize::from(index)]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Every interned name, in index order.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_stable() {
        let mut names = Interner::new();
        assert_eq!(names.intern("a.x"), 0);
        assert_eq!(names.intern("b.y"), 1);
        assert_eq!(
            names.intern("a.x"),
            0,
            "re-interning returns the same index"
        );
        assert_eq!(names.get("b.y"), Some(1));
        assert_eq!(names.get("missing"), None);
        assert_eq!(names.names().collect::<Vec<_>>(), ["a.x", "b.y"]);
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn name_charset_is_escape_free() {
        for good in ["a", "rack-00.draw_w", "A.b_C-9"] {
            assert!(valid_name(good), "{good:?}");
        }
        for bad in ["", "has space", "a\"b", "a,b", "a\\b", "a=b", "a;b", "é"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
