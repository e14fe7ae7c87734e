//! User-defined tags on saved model sets.
//!
//! Archived fleets accumulate thousands of sets; analysts need to mark
//! and find the interesting ones ("post-accident", "pre-recall-fix",
//! "golden"). Tags are tiny documents in their own collection, so they
//! add no weight to the savers' artifacts and survive alongside them.

use crate::env::ManagementEnv;
use crate::model_set::ModelSetId;
use mmm_store::DocumentStore;
use mmm_util::{Error, Result};
use serde_json::{json, Value};

/// Document-store collection holding one document per (set, tag) pair.
pub const TAGS_COLLECTION: &str = "set_tags";

/// Index both fields the lookups here filter on, so a lookup costs its
/// hits and not the collection (once, when the environment opens).
pub(crate) fn declare_indexes(docs: &DocumentStore) -> Result<()> {
    docs.create_index(TAGS_COLLECTION, "tag")?;
    docs.create_index(TAGS_COLLECTION, "set")
}

/// Attach a tag to a saved set. Idempotent: tagging twice is a no-op.
pub fn tag_set(env: &ManagementEnv, id: &ModelSetId, tag: &str) -> Result<()> {
    if tags_of(env, id)?.iter().any(|t| t == tag) {
        return Ok(());
    }
    env.docs()
        .insert(TAGS_COLLECTION, json!({"set": id.to_string(), "tag": tag}))?;
    Ok(())
}

/// Remove a tag from a set (no-op when absent).
pub fn untag_set(env: &ManagementEnv, id: &ModelSetId, tag: &str) -> Result<()> {
    let hits = env
        .docs()
        .find_eq(TAGS_COLLECTION, "set", &json!(id.to_string()))?;
    #[cfg(test)]
    tests::after_lookup();
    for (doc_id, doc) in hits {
        if doc.get("tag").and_then(Value::as_str) == Some(tag) {
            // A concurrent untag of the same tag may have deleted it
            // since the lookup: already untagged.
            match env.docs().delete(TAGS_COLLECTION, doc_id) {
                Ok(()) | Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// All tags of one set, sorted.
pub fn tags_of(env: &ManagementEnv, id: &ModelSetId) -> Result<Vec<String>> {
    let hits = env
        .docs()
        .find_eq(TAGS_COLLECTION, "set", &json!(id.to_string()))?;
    let mut tags: Vec<String> = hits
        .into_iter()
        .filter_map(|(_, doc)| doc.get("tag").and_then(Value::as_str).map(String::from))
        .collect();
    tags.sort();
    tags.dedup();
    Ok(tags)
}

/// All sets carrying a tag.
pub fn find_by_tag(env: &ManagementEnv, tag: &str) -> Result<Vec<ModelSetId>> {
    let hits = env.docs().find_eq(TAGS_COLLECTION, "tag", &json!(tag))?;
    let set_of = |doc: &Value| {
        let (approach, key) = doc.get("set")?.as_str()?.split_once(':')?;
        Some(ModelSetId { approach: approach.into(), key: key.into() })
    };
    Ok(hits.iter().filter_map(|(_, doc)| set_of(doc)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-tags").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    fn id(key: &str) -> ModelSetId {
        ModelSetId { approach: "update".into(), key: key.into() }
    }

    thread_local! {
        /// Run by [`untag_set`] between its lookup and its deletes, on
        /// the threads that install it.
        static AFTER_LOOKUP: std::cell::RefCell<Option<Box<dyn Fn()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn after_lookup() {
        AFTER_LOOKUP.with(|hook| hook.borrow().as_ref().map(|hook| hook()));
    }

    /// Two writers untagging one tag at the same moment: both find the
    /// tag document before either deletes it. Both must succeed.
    #[test]
    fn concurrent_untags_of_one_tag_both_succeed() {
        use std::sync::{Arc, Barrier};
        let (_d, env) = env();
        let a = id("3");
        tag_set(&env, &a, "golden").unwrap();
        tag_set(&env, &a, "keep").unwrap();
        // Each untag waits after its lookup until the other has looked up too.
        let both_looked_up = Arc::new(Barrier::new(2));
        let results: Vec<Result<()>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (env, a, barrier) = (&env, &a, Arc::clone(&both_looked_up));
                    s.spawn(move || {
                        let rendezvous = move || {
                            barrier.wait();
                        };
                        AFTER_LOOKUP.with(|hook| *hook.borrow_mut() = Some(Box::new(rendezvous)));
                        untag_set(env, a, "golden")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for res in results {
            res.unwrap();
        }
        assert_eq!(tags_of(&env, &a).unwrap(), vec!["keep"]);
    }

    #[test]
    fn tag_untag_roundtrip() {
        let (_d, env) = env();
        let a = id("1");
        tag_set(&env, &a, "golden").unwrap();
        tag_set(&env, &a, "accident-2026-07").unwrap();
        assert_eq!(tags_of(&env, &a).unwrap(), vec!["accident-2026-07", "golden"]);
        untag_set(&env, &a, "golden").unwrap();
        assert_eq!(tags_of(&env, &a).unwrap(), vec!["accident-2026-07"]);
        // Removing an absent tag is fine.
        untag_set(&env, &a, "golden").unwrap();
    }

    #[test]
    fn tagging_is_idempotent() {
        let (_d, env) = env();
        let a = id("2");
        tag_set(&env, &a, "golden").unwrap();
        tag_set(&env, &a, "golden").unwrap();
        assert_eq!(tags_of(&env, &a).unwrap().len(), 1);
        assert_eq!(env.docs().count(TAGS_COLLECTION), 1);
    }

    #[test]
    fn find_by_tag_spans_sets() {
        let (_d, env) = env();
        tag_set(&env, &id("1"), "golden").unwrap();
        tag_set(&env, &id("7"), "golden").unwrap();
        tag_set(&env, &id("7"), "other").unwrap();
        let mut found = find_by_tag(&env, "golden").unwrap();
        found.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(found, vec![id("1"), id("7")]);
        assert!(find_by_tag(&env, "missing").unwrap().is_empty());
    }

    #[test]
    fn lookups_go_through_the_declared_indexes() {
        let (_d, env) = env();
        tag_set(&env, &id("1"), "golden").unwrap();
        tag_set(&env, &id("2"), "other").unwrap();
        // `find_eq` takes the O(hits) path exactly when an index is
        // named after the field; both fields must have one.
        for (field, value) in [("set", "update:1"), ("tag", "golden")] {
            let hits = env
                .docs()
                .find_by_key(TAGS_COLLECTION, field, &[json!(value).to_string()]);
            assert_eq!(hits.unwrap().len(), 1, "index on {field}");
        }
    }

    #[test]
    fn tags_survive_reopen() {
        let dir = TempDir::new("mmm-tags").unwrap();
        {
            let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
            tag_set(&env, &id("3"), "keep").unwrap();
        }
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        assert_eq!(tags_of(&env, &id("3")).unwrap(), vec!["keep"]);
    }
}
