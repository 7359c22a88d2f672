//! Master-side commit application: rebuilding the hash tree.
//!
//! Implements the paper's update example: writing `a.b.c = 43` stores the
//! new value object, then rebuilds `b`, `a`, and the root bottom-up,
//! yielding a brand-new root reference while old objects remain for
//! readers still on the old root (which is what makes the root switch
//! atomic).

use crate::object::KvsObject;
use crate::path::validate_key;
use crate::store::ObjectCache;
use flux_hash::ObjectId;
use std::collections::BTreeMap;

/// One committed operation: bind `key` to the object `id`, or unlink
/// `key` when `id` is `None`.
pub type Tuple = (String, Option<ObjectId>);

/// Applies `tuples` in order against the tree rooted at `root`, storing
/// new directory objects into `cache` and returning the new root id.
///
/// Intermediate path components that exist as values are silently
/// replaced by directories (last-writer-wins, consistent with the
/// prototype's behaviour for conflicting hierarchies). Unlinking a
/// missing key is a no-op. Tuples with invalid keys are skipped — they
/// were validated at `kvs.put` time, so this is defensive only.
pub fn apply_tuples(cache: &mut ObjectCache, root: ObjectId, tuples: &[Tuple]) -> ObjectId {
    // Build a patch trie of all changes, then rebuild each touched
    // directory exactly once (a fence of 8192 tuples must not rebuild the
    // root 8192 times).
    let mut patch = PatchNode::default();
    for (key, id) in tuples {
        if validate_key(key).is_ok() {
            patch.insert(key, *id);
        }
    }
    rebuild(cache, Some(root), &patch)
}

/// A trie of pending changes, order-aware: applying a batch through the
/// trie produces exactly the tree that applying the tuples one at a time
/// would (tested by property `batch_equals_sequential`).
#[derive(Default)]
struct PatchNode {
    /// Terminal assignment at this path, if it is the *latest* write
    /// affecting this node.
    terminal: Option<Option<ObjectId>>,
    /// Deeper writes issued after any terminal write at this node.
    children: BTreeMap<String, PatchNode>,
    /// A terminal write (value or unlink) happened here earlier in the
    /// batch: the pre-existing directory content must be discarded even
    /// though later deeper writes re-created the node as a directory.
    base_cleared: bool,
}

impl PatchNode {
    /// Records a write of `id` at `path` below this node: the components
    /// of a validated key, dot-joined (`""` is this node itself).
    fn insert(&mut self, path: &str, id: Option<ObjectId>) {
        if path.is_empty() {
            // A terminal write supersedes all earlier deeper writes and
            // detaches from the pre-existing content.
            self.terminal = Some(id);
            self.children.clear();
            self.base_cleared = true;
            return;
        }
        let (first, rest) = path.split_once('.').unwrap_or((path, ""));
        let child = self.children.entry(first.to_owned()).or_default();
        if !rest.is_empty() && child.terminal.is_some() {
            // A deeper write after a terminal write at `child`: the child
            // becomes a directory built from scratch.
            child.terminal = None;
        }
        child.insert(rest, id);
    }
}

/// Rebuilds the directory previously at `base` with `patch` applied,
/// returning the id of the resulting directory object.
fn rebuild(cache: &mut ObjectCache, base: Option<ObjectId>, patch: &PatchNode) -> ObjectId {
    // Start from the existing directory if there is one; a value (or a
    // missing object) in the way is replaced by an empty directory.
    let mut entries: BTreeMap<String, ObjectId> = match base.and_then(|id| cache.get(id)) {
        Some(obj) => match &*obj {
            KvsObject::Dir(e) => e.clone(),
            KvsObject::Val(_) => BTreeMap::new(),
        },
        None => BTreeMap::new(),
    };
    for (name, child_patch) in &patch.children {
        // A terminal assignment at the child level.
        let base_child = entries.get(name).copied();
        let after_terminal = match child_patch.terminal {
            Some(Some(id)) => Some(id),
            Some(None) => None,
            None => base_child,
        };
        if child_patch.children.is_empty() {
            match after_terminal {
                Some(id) => {
                    // The rebuilt directory owns its entry names: one
                    // short-string copy per *written* child, not per entry.
                    entries.insert(name.clone(), id);
                }
                None => {
                    entries.remove(name);
                }
            }
        } else {
            // Descend: the child must become a directory. If a terminal
            // write happened at the child earlier in the batch, the
            // pre-existing content is discarded and the directory is
            // rebuilt from scratch.
            let descend_base = if child_patch.base_cleared { None } else { base_child };
            let new_child = rebuild(cache, descend_base, child_patch);
            entries.insert(name.clone(), new_child);
        }
    }
    cache.insert(KvsObject::Dir(entries))
}

/// Resolves `key` by walking directories from `root`, entirely within
/// `cache` (master-side: the cache is authoritative). Returns the object
/// id bound at the key, or `None` if any component is missing or a
/// non-directory is traversed.
pub fn resolve(cache: &mut ObjectCache, root: ObjectId, key: &str) -> Option<ObjectId> {
    validate_key(key).ok()?;
    let mut cur = root;
    for name in key.split('.') {
        let obj = cache.get(cur)?;
        let KvsObject::Dir(entries) = &*obj else { return None };
        cur = *entries.get(name)?;
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_value::Value;

    fn val_id(cache: &mut ObjectCache, v: &str) -> ObjectId {
        cache.insert(KvsObject::Val(Value::from(v)))
    }

    fn get_val(cache: &mut ObjectCache, root: ObjectId, key: &str) -> Option<Value> {
        let id = resolve(cache, root, key)?;
        match &*cache.get(id)? {
            KvsObject::Val(v) => Some(v.clone()),
            KvsObject::Dir(_) => None,
        }
    }

    fn empty_root(cache: &mut ObjectCache) -> ObjectId {
        cache.insert(KvsObject::empty_dir())
    }

    #[test]
    fn paper_worked_example() {
        // Store a.b.c = 42, then update to 43; root must change both times
        // and old root must still resolve the old value.
        let mut cache = ObjectCache::new();
        let root0 = empty_root(&mut cache);
        let v42 = cache.insert(KvsObject::Val(Value::Int(42)));
        let root1 = apply_tuples(&mut cache, root0, &[("a.b.c".into(), Some(v42))]);
        assert_ne!(root0, root1);
        assert_eq!(get_val(&mut cache, root1, "a.b.c"), Some(Value::Int(42)));

        let v43 = cache.insert(KvsObject::Val(Value::Int(43)));
        let root2 = apply_tuples(&mut cache, root1, &[("a.b.c".into(), Some(v43))]);
        assert_ne!(root1, root2);
        assert_eq!(get_val(&mut cache, root2, "a.b.c"), Some(Value::Int(43)));
        // Old snapshot still intact (atomic root switch).
        assert_eq!(get_val(&mut cache, root1, "a.b.c"), Some(Value::Int(42)));
    }

    #[test]
    fn multiple_keys_one_commit() {
        let mut cache = ObjectCache::new();
        let root0 = empty_root(&mut cache);
        let a = val_id(&mut cache, "A");
        let b = val_id(&mut cache, "B");
        let c = val_id(&mut cache, "C");
        let root = apply_tuples(
            &mut cache,
            root0,
            &[
                ("x.one".into(), Some(a)),
                ("x.two".into(), Some(b)),
                ("y".into(), Some(c)),
            ],
        );
        assert_eq!(get_val(&mut cache, root, "x.one"), Some(Value::from("A")));
        assert_eq!(get_val(&mut cache, root, "x.two"), Some(Value::from("B")));
        assert_eq!(get_val(&mut cache, root, "y"), Some(Value::from("C")));
    }

    #[test]
    fn sibling_updates_preserve_untouched_keys() {
        let mut cache = ObjectCache::new();
        let root0 = empty_root(&mut cache);
        let a = val_id(&mut cache, "A");
        let root1 = apply_tuples(&mut cache, root0, &[("d.a".into(), Some(a))]);
        let b = val_id(&mut cache, "B");
        let root2 = apply_tuples(&mut cache, root1, &[("d.b".into(), Some(b))]);
        assert_eq!(get_val(&mut cache, root2, "d.a"), Some(Value::from("A")));
        assert_eq!(get_val(&mut cache, root2, "d.b"), Some(Value::from("B")));
    }

    #[test]
    fn unlink_removes_and_missing_unlink_is_noop() {
        let mut cache = ObjectCache::new();
        let root0 = empty_root(&mut cache);
        let a = val_id(&mut cache, "A");
        let root1 = apply_tuples(&mut cache, root0, &[("k".into(), Some(a))]);
        let root2 = apply_tuples(&mut cache, root1, &[("k".into(), None)]);
        assert_eq!(resolve(&mut cache, root2, "k"), None);
        let root3 = apply_tuples(&mut cache, root2, &[("nothere".into(), None)]);
        assert_eq!(root2, root3, "no-op unlink yields identical tree");
    }

    #[test]
    fn same_key_last_tuple_wins() {
        let mut cache = ObjectCache::new();
        let root0 = empty_root(&mut cache);
        let a = val_id(&mut cache, "first");
        let b = val_id(&mut cache, "second");
        let root = apply_tuples(
            &mut cache,
            root0,
            &[("k".into(), Some(a)), ("k".into(), Some(b))],
        );
        assert_eq!(get_val(&mut cache, root, "k"), Some(Value::from("second")));
    }

    #[test]
    fn value_replaced_by_directory_on_deeper_write() {
        let mut cache = ObjectCache::new();
        let root0 = empty_root(&mut cache);
        let a = val_id(&mut cache, "scalar");
        let root1 = apply_tuples(&mut cache, root0, &[("p".into(), Some(a))]);
        let b = val_id(&mut cache, "deep");
        let root2 = apply_tuples(&mut cache, root1, &[("p.q".into(), Some(b))]);
        assert_eq!(get_val(&mut cache, root2, "p.q"), Some(Value::from("deep")));
        assert_eq!(get_val(&mut cache, root2, "p"), None, "p is now a directory");
    }

    #[test]
    fn identical_content_gives_identical_roots() {
        // Content addressing: two sessions committing the same data end up
        // at the same root id.
        let build = || {
            let mut cache = ObjectCache::new();
            let root0 = empty_root(&mut cache);
            let v = cache.insert(KvsObject::Val(Value::from("same")));
            apply_tuples(&mut cache, root0, &[("a.b".into(), Some(v)), ("c".into(), Some(v))])
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn big_fence_rebuilds_each_directory_once() {
        // 1000 keys in one directory: the patch-trie application should
        // create ~1 new dir object per level, not 1000.
        let mut cache = ObjectCache::new();
        let root0 = empty_root(&mut cache);
        let entries_before = cache.stats().entries;
        let tuples: Vec<Tuple> = (0..1000)
            .map(|i| {
                let id = cache.insert(KvsObject::Val(Value::Int(i)));
                (format!("dir.k{i:04}"), Some(id))
            })
            .collect();
        let root = apply_tuples(&mut cache, root0, &tuples);
        assert_eq!(get_val(&mut cache, root, "dir.k0500"), Some(Value::Int(500)));
        let created = cache.stats().entries - entries_before;
        // 1000 values + new "dir" + new root = 1002.
        assert_eq!(created, 1002);
    }

    #[test]
    fn resolve_rejects_traversal_through_values() {
        let mut cache = ObjectCache::new();
        let root0 = empty_root(&mut cache);
        let a = val_id(&mut cache, "leaf");
        let root = apply_tuples(&mut cache, root0, &[("x".into(), Some(a))]);
        assert_eq!(resolve(&mut cache, root, "x.deeper"), None);
        assert_eq!(resolve(&mut cache, root, "missing"), None);
    }
}
