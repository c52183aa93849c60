//! A small set of member or group names.
//!
//! Almost every such set in the GCS holds one name — the group a client
//! joined, the one local member of a client's reply group — and a fleet
//! holds thousands of them. A `BTreeSet<String>` allocates a B-tree leaf
//! with room for eleven names for each; a sorted `Vec` allocates room for
//! the names it holds, and iterates them in the same (sorted) order.

/// Names, sorted and without repeats.
#[derive(Clone, Debug, Default)]
pub(crate) struct NameSet(Vec<String>);

impl NameSet {
    fn index(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|n| n.as_str().cmp(name))
    }

    /// Adds `name` unless present.
    pub(crate) fn insert(&mut self, name: &str) {
        if let Err(i) = self.index(name) {
            // Exactly one more slot: a plain `insert` would reserve four.
            self.0.reserve_exact(1);
            self.0.insert(i, name.to_string());
        }
    }

    /// Removes `name` if present.
    pub(crate) fn remove(&mut self, name: &str) {
        if let Ok(i) = self.index(name) {
            self.0.remove(i);
        }
    }

    pub(crate) fn contains(&self, name: &str) -> bool {
        self.index(name).is_ok()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The names in sorted order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(String::as_str)
    }

    /// The names of `self` and `other` together, sorted.
    pub(crate) fn union(&self, other: &NameSet) -> NameSet {
        other.iter().fold(self.clone(), |mut all, name| {
            all.insert(name);
            all
        })
    }
}

impl<'a> FromIterator<&'a str> for NameSet {
    fn from_iter<I: IntoIterator<Item = &'a str>>(names: I) -> Self {
        let mut set = NameSet::default();
        for name in names {
            set.insert(name);
        }
        set
    }
}

impl IntoIterator for NameSet {
    type Item = String;
    type IntoIter = std::vec::IntoIter<String>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_names_sorted_and_unique() {
        let mut set: NameSet = ["b", "a", "b"].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), ["a", "b"]);
        set.insert("c");
        set.remove("a");
        set.remove("zz");
        assert!(set.contains("b") && !set.contains("a"));
        let other: NameSet = ["a", "c"].into_iter().collect();
        assert_eq!(
            set.union(&other).iter().collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        assert_eq!(set.into_iter().collect::<Vec<_>>(), ["b", "c"]);
    }
}
