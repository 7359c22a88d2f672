//! [`Map`], the JSON object type: its entries in one key-sorted vector.

use crate::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

/// The map type used for JSON objects: entries in one vector, sorted by
/// key, each key once.
///
/// Sorted rather than hashed: object iteration order is part of the
/// canonical encoding, so it must be deterministic. A vector rather than
/// a `BTreeMap`: a protocol payload holds one to seven fields, and a
/// B-tree's first insert allocates a node sized for eleven, while here an
/// object costs its entries. Lookups binary-search. [`Map::insert`]
/// appends when its key sorts last, as the keys of most builders and of
/// the canonical decoder do, and shifts the larger entries up otherwise.
/// The bulk builders (`collect`, `extend`, `From<[_; N]>`, the JSON
/// parser) sort what they add once, stably, so a repeated key keeps its
/// last value as `BTreeMap` does, and then append or merge it once.
#[derive(Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

/// Iterator over a [`Map`]'s entries in key order.
pub type Iter<'a> = std::iter::Map<
    std::slice::Iter<'a, (String, Value)>,
    fn(&'a (String, Value)) -> (&'a String, &'a Value),
>;

impl Map {
    /// An empty map; allocates nothing.
    pub const fn new() -> Map {
        Map { entries: Vec::new() }
    }

    /// An empty map with room for `n` entries.
    pub fn with_capacity(n: usize) -> Map {
        Map { entries: Vec::with_capacity(n) }
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `key` is (`Ok`) or would go (`Err`).
    fn find<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        String: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.binary_search_by(|(k, _)| Borrow::<Q>::borrow(k).cmp(key))
    }

    /// The value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&Value>
    where
        String: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutable.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut Value>
    where
        String: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Sets `key` to `value`, returning the value it replaced. Appends
    /// when `key` sorts after every key already present.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if self.entries.last().is_none_or(|(last, _)| *last < key) {
            self.entries.push((key, value));
            return None;
        }
        match self.find(key.as_str()) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Appends an entry whose key sorts after every key present, as the
    /// canonical decoder has checked.
    pub(crate) fn push_last(&mut self, key: String, value: Value) {
        debug_assert!(self.entries.last().is_none_or(|(last, _)| *last < key));
        self.entries.push((key, value));
    }

    /// Removes `key`'s entry, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<Value>
    where
        String: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Keeps only the entries for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&String, &mut Value) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// The entry for `key`, for in-place update or insertion.
    pub fn entry(&mut self, key: impl Into<String>) -> Entry<'_> {
        let key = key.into();
        match self.find(key.as_str()) {
            Ok(index) => Entry::Occupied(OccupiedEntry { map: self, index }),
            Err(index) => Entry::Vacant(VacantEntry { map: self, key, index }),
        }
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The keys in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &String> + ExactSizeIterator + Clone {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> + ExactSizeIterator + Clone {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The entry with the largest key.
    pub fn last_key_value(&self) -> Option<(&String, &Value)> {
        self.entries.last().map(|(k, v)| (k, v))
    }

    /// A map of `entries`, in any order; a repeated key keeps its last
    /// value.
    fn from_entries(entries: Vec<(String, Value)>) -> Map {
        let mut map = Map { entries };
        map.settle(0);
        map
    }

    /// Folds `entries[start..]`, appended in any order, into the map
    /// `entries[..start]`: the new entries are sorted once (stably, so
    /// the last of a repeated key wins), then appended when they all sort
    /// after the old ones and merged otherwise.
    fn settle(&mut self, start: usize) {
        let added = &mut self.entries[start..];
        if !added.is_sorted_by(|a, b| a.0 < b.0) {
            added.sort_by(|a, b| a.0.cmp(&b.0));
            self.dedup_from(start);
        }
        let overlap = match (start.checked_sub(1), self.entries.get(start)) {
            (Some(last), Some((first, _))) => self.entries[last].0 >= *first,
            _ => false,
        };
        if overlap {
            self.merge_from(start);
        }
    }

    /// Drops every entry of the sorted `entries[start..]` whose key the
    /// next entry repeats.
    fn dedup_from(&mut self, start: usize) {
        let len = self.entries.len();
        let mut kept = start;
        for i in start..len {
            if i + 1 < len && self.entries[i].0 == self.entries[i + 1].0 {
                continue;
            }
            self.entries.swap(kept, i);
            kept += 1;
        }
        self.entries.truncate(kept);
    }

    /// Merges the sorted, distinct `entries[start..]` into the sorted,
    /// distinct `entries[..start]` in one pass into a new vector; under
    /// a key both hold, the later entry wins.
    fn merge_from(&mut self, start: usize) {
        let mut old = std::mem::take(&mut self.entries);
        let mut merged = Vec::with_capacity(old.len());
        let (head, added) = old.split_at_mut(start);
        let (mut i, mut j) = (0, 0);
        while i < head.len() && j < added.len() {
            let order = head[i].0.cmp(&added[j].0);
            if order == Ordering::Less {
                merged.push(std::mem::take(&mut head[i]));
                i += 1;
            } else {
                merged.push(std::mem::take(&mut added[j]));
                j += 1;
                i += usize::from(order == Ordering::Equal);
            }
        }
        merged.extend(head[i..].iter_mut().map(std::mem::take));
        merged.extend(added[j..].iter_mut().map(std::mem::take));
        self.entries = merged;
    }
}

impl fmt::Debug for Map {
    /// Formats as `BTreeMap` does: `{"key": value, ...}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Extend<(String, Value)> for Map {
    /// Adds the entries, a later one replacing an earlier one's value;
    /// adding nothing allocates nothing.
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        let start = self.entries.len();
        self.entries.extend(iter);
        if self.entries.len() > start {
            self.settle(start);
        }
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Map {
        Map::from_entries(iter.into_iter().collect())
    }
}

impl<const N: usize> From<[(String, Value); N]> for Map {
    fn from(entries: [(String, Value); N]) -> Map {
        Map::from_entries(Vec::from(entries))
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// One key's place in a [`Map`], from [`Map::entry`].
pub enum Entry<'a> {
    /// The key has no entry yet.
    Vacant(VacantEntry<'a>),
    /// The key has an entry.
    Occupied(OccupiedEntry<'a>),
}

/// A key with no entry in its [`Map`].
pub struct VacantEntry<'a> {
    map: &'a mut Map,
    key: String,
    index: usize,
}

/// A key with an entry in its [`Map`].
pub struct OccupiedEntry<'a> {
    map: &'a mut Map,
    index: usize,
}

impl<'a> Entry<'a> {
    /// The value, inserting `default` first if the key had none.
    pub fn or_insert(self, default: Value) -> &'a mut Value {
        self.or_insert_with(|| default)
    }

    /// The value, inserting `default()` first if the key had none.
    pub fn or_insert_with(self, default: impl FnOnce() -> Value) -> &'a mut Value {
        match self {
            Entry::Vacant(e) => e.insert(default()),
            Entry::Occupied(e) => e.into_mut(),
        }
    }

    /// The value, inserting `Value::Null` first if the key had none.
    pub fn or_default(self) -> &'a mut Value {
        self.or_insert_with(Value::default)
    }

    /// Applies `f` to the value if the key has one.
    pub fn and_modify(mut self, f: impl FnOnce(&mut Value)) -> Self {
        if let Entry::Occupied(e) = &mut self {
            f(e.get_mut());
        }
        self
    }
}

impl<'a> VacantEntry<'a> {
    /// Inserts `value` under the key.
    pub fn insert(self, value: Value) -> &'a mut Value {
        self.map.entries.insert(self.index, (self.key, value));
        &mut self.map.entries[self.index].1
    }
}

impl<'a> OccupiedEntry<'a> {
    /// The value, mutable.
    pub fn get_mut(&mut self) -> &mut Value {
        &mut self.map.entries[self.index].1
    }

    /// The value, mutable for as long as the map is borrowed.
    pub fn into_mut(self) -> &'a mut Value {
        &mut self.map.entries[self.index].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[&str]) -> Vec<(String, Value)> {
        keys.iter().enumerate().map(|(i, k)| (k.to_string(), Value::from(i))).collect()
    }

    #[test]
    fn a_repeated_key_keeps_its_last_value() {
        let m: Map = pairs(&["b", "a", "b", "c", "a"]).into_iter().collect();
        let got: Vec<_> = m.iter().map(|(k, v)| (k.as_str(), v.as_int())).collect();
        assert_eq!(got, [("a", Some(4)), ("b", Some(2)), ("c", Some(3))]);
    }

    #[test]
    fn extend_appends_or_merges_and_the_added_value_wins() {
        let mut m: Map = pairs(&["b", "d"]).into_iter().collect();
        m.extend(pairs(&["e", "f"]));
        m.extend([("a".to_owned(), Value::Null), ("d".to_owned(), Value::Bool(true))]);
        let got: Vec<_> = m.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let want = [
            ("a", Value::Null),
            ("b", Value::Int(0)),
            ("d", Value::Bool(true)),
            ("e", Value::Int(0)),
            ("f", Value::Int(1)),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn duplicate_json_keys_keep_the_last_value() {
        let v = Value::parse(r#"{"b": 1, "a": 2, "b": 3, "a": {"x": 4}, "c": 5}"#).unwrap();
        assert_eq!(v.to_json(), r#"{"a":{"x":4},"b":3,"c":5}"#);
    }

    /// Canary for a quadratic builder: inserting each key where it sorts,
    /// one at a time, moves billions of entries on these inputs (19 s in
    /// release on a 2-vCPU x86 host); sorting once takes milliseconds.
    #[test]
    fn descending_builds_sort_once_instead_of_shifting_per_key() {
        const KEYS: usize = 100_000;
        let text = (0..KEYS).rev().map(|i| format!(r#""k{i:06}":{i}"#)).collect::<Vec<_>>();
        let text = format!("{{{}}}", text.join(","));
        let started = std::time::Instant::now();
        let parsed = Value::parse(&text).unwrap();
        let m = parsed.as_object().unwrap();
        assert_eq!(m.len(), KEYS);
        assert!(m.keys().zip(m.keys().skip(1)).all(|(a, b)| a < b));
        assert_eq!(m.get("k001234"), Some(&Value::Int(1234)));

        const PAIRS: usize = 65_536;
        let reversed = (0..PAIRS).rev().map(|i| (format!("{i:05}"), Value::from(i)));
        let collected: Map = reversed.collect();
        assert_eq!(collected.len(), PAIRS);
        assert_eq!(collected.iter().next(), Some((&"00000".to_owned(), &Value::Int(0))));
        assert_eq!(collected.last_key_value().map(|(_, v)| v), Some(&Value::from(PAIRS - 1)));
        assert!(started.elapsed() < std::time::Duration::from_secs(5), "{:?}", started.elapsed());
    }

    #[test]
    fn entry_inserts_in_place_and_modifies() {
        let mut m = Map::new();
        *m.entry("b").or_insert(Value::Int(1)) = Value::Int(2);
        m.entry("a").or_default();
        m.entry("b").and_modify(|v| *v = Value::Int(3)).or_insert(Value::Null);
        assert_eq!(format!("{m:?}"), r#"{"a": Null, "b": Int(3)}"#);
    }
}
