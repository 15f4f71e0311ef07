//! Sorted small-vec containers: the workspace's arena-friendly stand-ins
//! for `BTreeSet`/`BTreeMap`.
//!
//! Every layer of the stack keys state by dense ids ([`crate::NodeId`],
//! edge slots, virtual-node keys) and iterates it in key order so that
//! replays are bit-identical. B-trees give that order at the cost of a
//! pointer chase per comparison; for the small, hot collections a repair
//! touches (adjacency lists, per-owner virtual-node tables, per-repair
//! scratch) a single sorted `Vec` is strictly better: one contiguous
//! allocation, binary-search lookups, and `memmove` updates that stay in
//! cache.
//!
//! [`SortedSet`] and [`SortedMap`] keep exactly the `BTreeSet`/`BTreeMap`
//! semantics the code relied on — deduplicated keys, ascending iteration —
//! so swapping them in changes no observable ordering anywhere.

/// An ordered set backed by a sorted `Vec`.
///
/// # Examples
///
/// ```
/// use fg_graph::SortedSet;
///
/// let mut s = SortedSet::new();
/// assert!(s.insert(3));
/// assert!(s.insert(1));
/// assert!(!s.insert(3), "duplicates are rejected");
/// assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![1, 3]);
/// assert!(s.remove(&1));
/// assert!(!s.contains(&1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SortedSet<T> {
    items: Vec<T>,
}

impl<T> Default for SortedSet<T> {
    fn default() -> Self {
        SortedSet { items: Vec::new() }
    }
}

impl<T: Ord> SortedSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        SortedSet { items: Vec::new() }
    }

    /// An empty set with room for `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        SortedSet {
            items: Vec::with_capacity(n),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `value` is in the set.
    pub fn contains(&self, value: &T) -> bool {
        self.items.binary_search(value).is_ok()
    }

    /// Inserts `value`; returns whether it was newly added.
    pub fn insert(&mut self, value: T) -> bool {
        match self.items.binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, value);
                true
            }
        }
    }

    /// Removes `value`; returns whether it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        match self.items.binary_search(value) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The elements as an ascending slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<&T> {
        self.items.first()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<T: Ord> FromIterator<T> for SortedSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items: Vec<T> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup_by(|a, b| a == b);
        SortedSet { items }
    }
}

impl<T: Ord> Extend<T> for SortedSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<T> IntoIterator for SortedSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a SortedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// An ordered map backed by a sorted `Vec` of key–value pairs.
///
/// # Examples
///
/// ```
/// use fg_graph::SortedMap;
///
/// let mut m = SortedMap::new();
/// m.insert(2, "b");
/// m.insert(1, "a");
/// assert_eq!(m.get(&1), Some(&"a"));
/// assert_eq!(m.insert(1, "A"), Some("a"));
/// let keys: Vec<i32> = m.keys().copied().collect();
/// assert_eq!(keys, vec![1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> SortedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_ok()
    }

    /// Borrows the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutably borrows the value for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Mutably borrows the value at `key`, inserting `default()` first if
    /// the key is absent (the `entry(..).or_insert_with(..)` pattern).
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, key: K, default: F) -> &mut V {
        let i = match self.position(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Iterates `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The entry with the smallest key, if any.
    pub fn first(&self) -> Option<(&K, &V)> {
        self.entries.first().map(|(k, v)| (k, v))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SortedMap<K, V> {
    /// Later duplicates overwrite earlier ones, matching `BTreeMap`.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = SortedMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K, V> IntoIterator for SortedMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a SortedMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_keeps_ascending_unique_order() {
        let mut s = SortedSet::new();
        for v in [5, 1, 3, 1, 5, 2] {
            s.insert(v);
        }
        assert_eq!(s.as_slice(), &[1, 2, 3, 5]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.first(), Some(&1));
        assert!(s.contains(&3));
        assert!(!s.contains(&4));
        assert!(s.remove(&3));
        assert!(!s.remove(&3));
        assert_eq!(s.as_slice(), &[1, 2, 5]);
    }

    #[test]
    fn set_from_iter_dedups() {
        let s: SortedSet<i32> = [3, 1, 3, 2, 2].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        let collected: Vec<i32> = s.into_iter().collect();
        assert_eq!(collected, vec![1, 2, 3]);
    }

    #[test]
    fn map_insert_get_remove() {
        let mut m = SortedMap::new();
        assert_eq!(m.insert(4, "d"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(4, "D"), Some("d"));
        assert_eq!(m.get(&4), Some(&"D"));
        assert_eq!(m.len(), 2);
        *m.get_mut(&2).unwrap() = "B";
        assert_eq!(m.remove(&2), Some("B"));
        assert_eq!(m.remove(&2), None);
        assert!(!m.contains_key(&2));
    }

    #[test]
    fn map_iterates_in_key_order() {
        let m: SortedMap<i32, i32> = [(3, 30), (1, 10), (2, 20)].into_iter().collect();
        let pairs: Vec<(i32, i32)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pairs, vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(m.first(), Some((&1, &10)));
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![10, 20, 30]);
    }

    #[test]
    fn map_get_or_insert_with() {
        let mut m: SortedMap<i32, Vec<i32>> = SortedMap::new();
        m.get_or_insert_with(7, Vec::new).push(1);
        m.get_or_insert_with(7, Vec::new).push(2);
        assert_eq!(m.get(&7), Some(&vec![1, 2]));
    }

    #[test]
    fn map_into_iter_is_sorted() {
        let m: SortedMap<i32, &str> = [(2, "b"), (1, "a")].into_iter().collect();
        let pairs: Vec<(i32, &str)> = m.into_iter().collect();
        assert_eq!(pairs, vec![(1, "a"), (2, "b")]);
    }
}
