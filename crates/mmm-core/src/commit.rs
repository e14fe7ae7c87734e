//! Crash-atomic saves: the commit record.
//!
//! Every saver works in two phases. Phase one writes all of a save's
//! artifacts — metadata documents and parameter/diff/provenance blobs —
//! none of which make the save visible. Phase two appends **one**
//! record to the [`COMMITS_COLLECTION`]; that single append is the
//! atomic commit point (the document log is append-only and a torn
//! append is discarded on replay, so the record is either durably
//! whole or absent).
//!
//! Readers ([`require_committed`]) and the catalog treat saves without
//! a commit record as absent. A crash anywhere in phase one therefore
//! never corrupts the store — it only strands orphaned artifacts that
//! [`crate::fsck`] can garbage-collect.
//!
//! # Record formats
//!
//! Two record shapes live in the commits collection:
//!
//! * `{"approach": a, "set": k}` — one save (the original format,
//!   still written for uncontended commits);
//! * `{"batch": [{"approach": a, "set": k}, ...]}` — a **group
//!   commit** written by [`crate::fleet::GroupCommitter`] on behalf of
//!   several concurrent saves. The batch is still one append, so its
//!   members commit all-or-nothing: a torn batch append is discarded
//!   whole on replay and none of its members become visible.
//!
//! Every reader here ([`is_committed`], [`committed_among`],
//! [`committed_ids`], [`decommit`]) understands both shapes.
//!
//! # The pair index
//!
//! Only [`committed_ids`], whose callers need every pair, walks the
//! log. The document store keeps a secondary index over this collection
//! ([`declare_index`], declared when the environment opens) that files
//! every record under each pair [`record_pairs`] reads from it, and the
//! other readers look their ids up there. The store updates it in the
//! critical section that updates the collection itself and rebuilds it
//! from the replayed log at open, so it is the log, read another way:
//! nothing of it is persisted, and whoever appends a record —
//! [`commit_save`], a group-commit batch, a test inserting straight
//! into the collection — has indexed it.

use std::collections::HashSet;

use serde_json::{json, Value};

use crate::env::ManagementEnv;
use crate::model_set::ModelSetId;
use mmm_store::DocumentStore;
use mmm_util::{Error, Result};

/// Collection holding one record per committed model-set save.
pub const COMMITS_COLLECTION: &str = "commits";

/// Name of the store-maintained index from `(approach, set)` pair to
/// the commit records covering it.
const PAIR_INDEX: &str = "pair";

/// Index key of one pair. The approach's length goes first, so no two
/// pairs share a key whatever characters their parts contain.
fn pair_key(approach: &str, set: &str) -> String {
    format!("{}:{approach}{set}", approach.len())
}

/// Declare the pair index on `docs` (once, when the environment opens).
pub(crate) fn declare_index(docs: &DocumentStore) {
    docs.create_keyed_index(COMMITS_COLLECTION, PAIR_INDEX, |doc| {
        record_pairs(doc)
            .iter()
            .map(|(a, s)| pair_key(a, s))
            .collect()
    });
}

/// The `(approach, set)` pairs one commit record covers: one for the
/// single-record format, several for a batched group commit. Malformed
/// members are skipped (they can never have been readable).
pub fn record_pairs(doc: &Value) -> Vec<(String, String)> {
    members(doc).iter().filter_map(pair_of).collect()
}

/// The members of one commit record: a batch's entries, or the record
/// itself.
fn members(doc: &Value) -> &[Value] {
    match doc.get("batch").and_then(Value::as_array) {
        Some(batch) => batch,
        None => std::slice::from_ref(doc),
    }
}

/// The `(approach, set)` pair of a well-formed member.
fn pair_of(m: &Value) -> Option<(String, String)> {
    let field = |name| Some(m.get(name)?.as_str()?.to_string());
    Some((field("approach")?, field("set")?))
}

/// Causal attribution of one commit-record member: who asked for the
/// save that this entry made visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitAttribution {
    /// Approach that wrote the save.
    pub approach: String,
    /// Set key the record committed.
    pub set: String,
    /// Tenant whose request rode in this record, when the save ran
    /// under a fleet request (absent for direct library use and for
    /// records written before attribution existed).
    pub tenant: Option<String>,
    /// Request id minted at admission (`rq-<tenant>-<n>`), same caveat.
    pub request_id: Option<String>,
}

/// The attribution rows of one commit record — one per member, in
/// batch order. Answers "which tenants' saves rode in this record":
/// the `tenant`/`rq` rider keys are read when present and `None`
/// otherwise, so records from older stores parse unchanged.
pub fn record_attribution(doc: &Value) -> Vec<CommitAttribution> {
    let member = |m: &Value| -> Option<CommitAttribution> {
        let (approach, set) = pair_of(m)?;
        let rider = |name| m.get(name).and_then(Value::as_str).map(str::to_string);
        Some(CommitAttribution {
            approach,
            set,
            tenant: rider("tenant"),
            request_id: rider("rq"),
        })
    };
    members(doc).iter().filter_map(member).collect()
}

/// Phase two of a save: append the commit record, making the save
/// visible. Every commit flows through the environment's
/// [`crate::fleet::GroupCommitter`], which coalesces concurrent
/// commits into batched records (a solo commit writes immediately).
/// Retries transient faults. Returns the record's doc id (shared by
/// all members of a batch).
pub fn commit_save(env: &ManagementEnv, id: &ModelSetId) -> Result<u64> {
    env.commit_gate().commit(env, id)
}

/// Whether `id`'s save was committed (in a single or batched record).
/// Charged as one `doc_query`.
pub fn is_committed(env: &ManagementEnv, id: &ModelSetId) -> Result<bool> {
    Ok(!committed_among(env, [id])?.is_empty())
}

/// The pairs among `ids` whose save was committed: the batched
/// [`is_committed`]. One index lookup, charged as one `doc_query` for
/// any number of ids and the bytes of the records that cover them
/// (asking about no id asks the store nothing).
pub fn committed_among<'a>(
    env: &ManagementEnv,
    ids: impl IntoIterator<Item = &'a ModelSetId>,
) -> Result<HashSet<(String, String)>> {
    let keys: Vec<String> = ids
        .into_iter()
        .map(|id| pair_key(&id.approach, &id.key))
        .collect();
    if keys.is_empty() {
        return Ok(HashSet::new());
    }
    let asked: HashSet<&String> = keys.iter().collect();
    let records = env
        .docs()
        .find_by_key(COMMITS_COLLECTION, PAIR_INDEX, &keys)?;
    // A batched record also covers pairs nobody asked about.
    Ok(records
        .iter()
        .flat_map(|(_, doc)| record_pairs(doc))
        .filter(|(a, s)| asked.contains(&pair_key(a, s)))
        .collect())
}

/// The readers' gate: error with `NotFound` unless `id` was committed.
/// An uncommitted save is indistinguishable from one that never
/// happened — exactly the contract a crash mid-save requires.
pub fn require_committed(env: &ManagementEnv, id: &ModelSetId) -> Result<()> {
    let _span = env.obs().span("commit_check");
    if is_committed(env, id)? {
        Ok(())
    } else {
        Err(Error::not_found(format!(
            "model set {id} (no commit record: the save never completed)"
        )))
    }
}

/// All committed `(approach, set-key)` pairs. Charged as one
/// `doc_query` over the whole collection — used by catalog listings and
/// fsck scans, which need every pair, and by nothing on a request path.
pub fn committed_ids(env: &ManagementEnv) -> Result<HashSet<(String, String)>> {
    let mut out = HashSet::new();
    env.docs().visit(COMMITS_COLLECTION, |_, doc| {
        out.extend(record_pairs(doc));
        true
    })?;
    Ok(out)
}

/// Remove the commit record(s) of `id` (set deletion, fsck repair).
/// Missing records are not an error; returns how many entries were
/// removed.
///
/// A batched record containing `id` alongside other saves is rewritten
/// without `id`, each surviving member as it was written (riders
/// included): the trimmed replacement is inserted **before** the old
/// record is deleted, so a crash between the two steps leaves duplicate
/// commit entries for the surviving members (harmless — commit lookup
/// is set-semantics) but can never lose a commit. The lookup and the
/// rewrite run in the commit gate's exclusive section: two decommits of
/// batch-mates would otherwise each write back the other's member.
pub fn decommit(env: &ManagementEnv, id: &ModelSetId) -> Result<usize> {
    env.commit_gate().exclusive(|| {
        let mut removed = 0;
        let key = [pair_key(&id.approach, &id.key)];
        let records = env
            .docs()
            .find_by_key(COMMITS_COLLECTION, PAIR_INDEX, &key)?;
        #[cfg(test)]
        tests::after_lookup();
        for (doc_id, doc) in records {
            let pairs = record_pairs(&doc);
            let keep = record_without(&doc, id);
            removed += pairs.len() - keep.len();
            if !keep.is_empty() {
                env.docs().insert(COMMITS_COLLECTION, record_of(keep))?;
            }
            env.docs().delete(COMMITS_COLLECTION, doc_id)?;
        }
        Ok(removed)
    })
}

/// The well-formed members of commit record `doc` other than `id`'s,
/// as written.
fn record_without(doc: &Value, id: &ModelSetId) -> Vec<Value> {
    let other = |m: &&Value| pair_of(m).is_some_and(|(a, s)| a != id.approach || s != id.key);
    members(doc).iter().filter(other).cloned().collect()
}

/// A commit record of `members` (single format for one, batch format
/// otherwise).
fn record_of(mut members: Vec<Value>) -> Value {
    match members.len() {
        1 => members.remove(0),
        _ => json!({ "batch": members }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-commit").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    fn id(approach: &str, key: &str) -> ModelSetId {
        ModelSetId { approach: approach.into(), key: key.into() }
    }

    #[test]
    fn commit_flips_visibility() {
        let (_d, env) = env();
        let a = id("baseline", "0");
        assert!(!is_committed(&env, &a).unwrap());
        assert!(matches!(require_committed(&env, &a), Err(Error::NotFound(_))));
        commit_save(&env, &a).unwrap();
        assert!(is_committed(&env, &a).unwrap());
        require_committed(&env, &a).unwrap();
    }

    #[test]
    fn commits_are_scoped_to_the_approach() {
        let (_d, env) = env();
        commit_save(&env, &id("baseline", "0")).unwrap();
        assert!(!is_committed(&env, &id("update", "0")).unwrap());
        assert!(is_committed(&env, &id("baseline", "0")).unwrap());
    }

    #[test]
    fn committed_ids_lists_all_pairs() {
        let (_d, env) = env();
        commit_save(&env, &id("baseline", "0")).unwrap();
        commit_save(&env, &id("update", "1")).unwrap();
        let all = committed_ids(&env).unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&("baseline".to_string(), "0".to_string())));
        assert!(all.contains(&("update".to_string(), "1".to_string())));
    }

    #[test]
    fn decommit_removes_only_the_named_save() {
        let (_d, env) = env();
        commit_save(&env, &id("baseline", "7")).unwrap();
        commit_save(&env, &id("update", "7")).unwrap();
        assert_eq!(decommit(&env, &id("baseline", "7")).unwrap(), 1);
        assert!(!is_committed(&env, &id("baseline", "7")).unwrap());
        assert!(is_committed(&env, &id("update", "7")).unwrap());
        assert_eq!(decommit(&env, &id("baseline", "7")).unwrap(), 0, "idempotent");
    }

    #[test]
    fn batched_records_read_like_singles() {
        let (_d, env) = env();
        env.docs()
            .insert(
                COMMITS_COLLECTION,
                json!({"batch": [
                    json!({"approach": "baseline", "set": "0"}),
                    json!({"approach": "update", "set": "1"}),
                    json!({"approach": "provenance", "set": "2"}),
                ]}),
            )
            .unwrap();
        assert!(is_committed(&env, &id("update", "1")).unwrap());
        assert!(!is_committed(&env, &id("update", "0")).unwrap(), "approach-scoped");
        assert_eq!(committed_ids(&env).unwrap().len(), 3);
        require_committed(&env, &id("baseline", "0")).unwrap();
    }

    #[test]
    fn decommit_trims_batches_without_losing_other_members() {
        let (_d, env) = env();
        env.docs()
            .insert(
                COMMITS_COLLECTION,
                json!({"batch": [
                    json!({"approach": "baseline", "set": "0"}),
                    json!({"approach": "update", "set": "1"}),
                    json!({"approach": "provenance", "set": "2"}),
                ]}),
            )
            .unwrap();
        assert_eq!(decommit(&env, &id("update", "1")).unwrap(), 1);
        assert!(!is_committed(&env, &id("update", "1")).unwrap());
        assert!(is_committed(&env, &id("baseline", "0")).unwrap(), "sibling survives");
        assert!(is_committed(&env, &id("provenance", "2")).unwrap(), "sibling survives");
        assert_eq!(committed_ids(&env).unwrap().len(), 2);
        assert_eq!(decommit(&env, &id("update", "1")).unwrap(), 0, "idempotent");
        // Trimming down to one member leaves a valid single record.
        assert_eq!(decommit(&env, &id("provenance", "2")).unwrap(), 1);
        let remaining = env.docs().all(COMMITS_COLLECTION).unwrap();
        assert_eq!(remaining.len(), 1);
        assert!(is_committed(&env, &id("baseline", "0")).unwrap());
    }

    thread_local! {
        /// Run by [`decommit`] between its lookup and its first write,
        /// on the threads that install it.
        static AFTER_LOOKUP: std::cell::RefCell<Option<Box<dyn Fn()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn after_lookup() {
        AFTER_LOOKUP.with(|hook| hook.borrow().as_ref().map(|hook| hook()));
    }

    /// Two tenants retiring batch-mates at the same moment: each
    /// decommit reads the shared record before either writes. Both
    /// must land, whoever goes first.
    #[test]
    fn concurrent_decommits_of_batch_mates_both_land() {
        use std::sync::{Arc, Condvar, Mutex};
        use std::time::Duration;
        let (_d, env) = env();
        env.docs()
            .insert(
                COMMITS_COLLECTION,
                json!({"batch": [
                    json!({"approach": "baseline", "set": "0"}),
                    json!({"approach": "update", "set": "1"}),
                ]}),
            )
            .unwrap();
        // Each decommit waits after its lookup until the other has
        // looked up too, or for a second if it cannot get there.
        let arrived = Arc::new((Mutex::new(0), Condvar::new()));
        let results: Vec<Result<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = [id("baseline", "0"), id("update", "1")]
                .into_iter()
                .map(|member| {
                    let (env, arrived) = (&env, Arc::clone(&arrived));
                    s.spawn(move || {
                        let rendezvous = move || {
                            let (count, cv) = &*arrived;
                            let mut count = count.lock().unwrap();
                            *count += 1;
                            cv.notify_all();
                            let wait =
                                cv.wait_timeout_while(count, Duration::from_secs(1), |n| *n < 2);
                            drop(wait.unwrap());
                        };
                        AFTER_LOOKUP.with(|hook| *hook.borrow_mut() = Some(Box::new(rendezvous)));
                        decommit(env, &member)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            !is_committed(&env, &id("baseline", "0")).unwrap(),
            "first pair retired"
        );
        assert!(
            !is_committed(&env, &id("update", "1")).unwrap(),
            "second pair retired"
        );
        assert_eq!(committed_ids(&env).unwrap().len(), 0);
        for res in results {
            assert_eq!(res.unwrap(), 1);
        }
    }

    #[test]
    fn decommit_keeps_the_survivors_riders() {
        let (_d, env) = env();
        let member = |approach: &str, set: &str, t: &str| {
            let rq = format!("rq-{t}-1");
            json!({"approach": approach, "set": set, "tenant": t, "rq": rq})
        };
        let members = [
            ("baseline", "0", "a"),
            ("update", "1", "b"),
            ("update", "2", "c"),
        ];
        let batch: Vec<Value> = members.iter().map(|(a, s, t)| member(a, s, t)).collect();
        let record = json!({ "batch": batch });
        env.docs().insert(COMMITS_COLLECTION, record).unwrap();
        let riders = |env: &ManagementEnv| {
            let records = env.docs().all(COMMITS_COLLECTION).unwrap();
            let rows = records.iter().flat_map(|(_, doc)| record_attribution(doc));
            let rows = rows.map(|r| (r.set, r.tenant.unwrap(), r.request_id.unwrap()));
            rows.collect::<Vec<_>>()
        };
        let row = |set: &str, tenant: &str| {
            (
                set.to_string(),
                tenant.to_string(),
                format!("rq-{tenant}-1"),
            )
        };
        assert_eq!(decommit(&env, &id("update", "1")).unwrap(), 1);
        assert_eq!(
            riders(&env),
            vec![row("0", "a"), row("2", "c")],
            "a trimmed batch"
        );
        assert_eq!(decommit(&env, &id("baseline", "0")).unwrap(), 1);
        assert_eq!(
            riders(&env),
            vec![row("2", "c")],
            "trimmed to a single record"
        );
    }

    #[test]
    fn record_attribution_reads_riders_and_tolerates_their_absence() {
        let solo = json!({"approach": "baseline", "set": "0",
                          "tenant": "acme", "rq": "rq-acme-1"});
        let rows = record_attribution(&solo);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tenant.as_deref(), Some("acme"));
        assert_eq!(rows[0].request_id.as_deref(), Some("rq-acme-1"));

        let batch = json!({"batch": [
            json!({"approach": "baseline", "set": "1",
                   "tenant": "a", "rq": "rq-a-3"}),
            json!({"approach": "update", "set": "2"}),
        ]});
        let rows = record_attribution(&batch);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].request_id.as_deref(), Some("rq-a-3"));
        assert_eq!(rows[1].tenant, None, "pre-attribution record parses");
        // Rider keys never change what the visibility readers see.
        assert_eq!(record_pairs(&solo), vec![("baseline".into(), "0".into())]);
    }

    #[test]
    fn malformed_record_members_are_invisible_not_fatal() {
        let (_d, env) = env();
        env.docs()
            .insert(COMMITS_COLLECTION, json!({"batch": [json!({"approach": "baseline"}), json!(42)]}))
            .unwrap();
        env.docs().insert(COMMITS_COLLECTION, json!({"unrelated": true})).unwrap();
        assert_eq!(committed_ids(&env).unwrap().len(), 0);
        assert!(!is_committed(&env, &id("baseline", "0")).unwrap());
    }

    #[test]
    fn pair_keys_are_unambiguous() {
        let pairs = [
            ("a", "b:c"),
            ("a:b", "c"),
            ("1", "0:x"),
            ("10", ":x"),
            ("", ""),
            ("é", "ü:1"),
        ];
        let keys: HashSet<String> = pairs.iter().map(|(a, s)| pair_key(a, s)).collect();
        assert_eq!(keys.len(), pairs.len(), "no two pairs share a key");
    }

    #[test]
    fn a_batched_lookup_is_one_query_and_the_gate_is_its_one_id_case() {
        let (_d, env) = env();
        let ids = [id("baseline", "0"), id("update", "1"), id("update", "2")];
        commit_save(&env, &ids[0]).unwrap();
        env.docs()
            .insert(
                COMMITS_COLLECTION,
                json!({"batch": [
                    json!({"approach": "update", "set": "1"}),
                    json!({"approach": "provenance", "set": "9"}),
                ]}),
            )
            .unwrap();
        let (found, m) = env.measure(|| committed_among(&env, &ids).unwrap());
        let pair = |i: &ModelSetId| (i.approach.clone(), i.key.clone());
        assert_eq!(
            found,
            HashSet::from([pair(&ids[0]), pair(&ids[1])]),
            "only what was asked"
        );
        assert_eq!(m.stats.total_ops(), 1, "one query for any number of ids");
        let (none, m) = env.measure(|| committed_among(&env, []).unwrap());
        assert!(none.is_empty());
        assert_eq!(
            m.stats.total_ops(),
            0,
            "asking about nothing asks the store nothing"
        );
        let (_, m) = env.measure(|| is_committed(&env, &ids[2]).unwrap());
        assert_eq!(m.stats.doc_queries, 1);
        assert_eq!(m.stats.bytes_read, 0, "an absent pair transfers no record");
    }

    /// The law the pair index stands on: it is the log, read another way.
    mod index_is_the_log {
        use super::*;
        use mmm_store::{BreakerConfig, FaultInjector, FaultPlan, FaultTarget, OpClass};
        use proptest::prelude::*;
        use std::time::Duration;

        /// Ids whose parts collide under any naive separator.
        const POOL: [(&str, &str); 8] = [
            ("baseline", "0"),
            ("baseline", "1"),
            ("update", "0"),
            ("update", "1"),
            ("mmlib-base", "0:3"),
            ("a:b", "c"),
            ("a", "b:c"),
            ("branch", "0"),
        ];

        fn pool(i: u8) -> ModelSetId {
            let (approach, key) = POOL[i as usize % POOL.len()];
            id(approach, key)
        }

        fn member(i: u8) -> Value {
            let id = pool(i);
            json!({"approach": id.approach, "set": id.key})
        }

        #[derive(Debug, Clone)]
        enum Op {
            Commit(u8),
            /// Commits racing into the group committer's window.
            ConcurrentCommits(Vec<u8>),
            /// Records inserted straight into the collection.
            InsertSingle(u8),
            InsertBatch(Vec<u8>),
            /// A batch with malformed members beside a good one, and a
            /// document that is no commit record at all.
            InsertMalformed(u8),
            Decommit(u8),
            /// A decommit that dies after inserting the trimmed record
            /// and before deleting the old one.
            DecommitCrashed(u8),
            /// A commit whose append is torn: never acknowledged.
            TornCommit(u8),
            Compact,
            Reopen,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let some = || proptest::collection::vec(any::<u8>(), 2..5);
            prop_oneof![
                4 => any::<u8>().prop_map(Op::Commit),
                1 => some().prop_map(Op::ConcurrentCommits),
                2 => any::<u8>().prop_map(Op::InsertSingle),
                3 => some().prop_map(Op::InsertBatch),
                1 => any::<u8>().prop_map(Op::InsertMalformed),
                4 => any::<u8>().prop_map(Op::Decommit),
                2 => any::<u8>().prop_map(Op::DecommitCrashed),
                1 => any::<u8>().prop_map(Op::TornCommit),
                1 => Just(Op::Compact),
                1 => Just(Op::Reopen),
            ]
        }

        fn open(dir: &TempDir, faults: &FaultInjector) -> ManagementEnv {
            ManagementEnv::builder(dir.path(), LatencyProfile::zero())
                .faults(faults.clone())
                // Injected failures are the point; they must not trip
                // the breaker and turn later steps into refusals.
                .breaker(BreakerConfig {
                    failure_threshold: u32::MAX,
                    ..BreakerConfig::default()
                })
                .commit_window(Duration::from_millis(2))
                .open()
                .unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// After every step of any history, for every id ever
            /// mentioned: `is_committed(id)` ⇔ `id ∈ ⋃ record_pairs(all)`,
            /// the batched form agrees, and `committed_ids` is that union.
            #[test]
            fn every_reader_agrees_with_a_walk_of_the_log(
                ops in proptest::collection::vec(arb_op(), 1..30),
            ) {
                let dir = TempDir::new("mmm-commit-law").unwrap();
                let faults = FaultInjector::new();
                let mut env = open(&dir, &faults);
                for op in ops {
                    match op {
                        Op::Commit(i) => {
                            commit_save(&env, &pool(i)).unwrap();
                        }
                        Op::ConcurrentCommits(is) => std::thread::scope(|s| {
                            for i in is {
                                let env = &env;
                                s.spawn(move || commit_save(env, &pool(i)).unwrap());
                            }
                        }),
                        Op::InsertSingle(i) => {
                            env.docs().insert(COMMITS_COLLECTION, member(i)).unwrap();
                        }
                        Op::InsertBatch(is) => {
                            let members: Vec<Value> = is.into_iter().map(member).collect();
                            env.docs().insert(COMMITS_COLLECTION, json!({ "batch": members })).unwrap();
                        }
                        Op::InsertMalformed(i) => {
                            let batch = json!({"batch": [json!({"approach": "baseline"}), json!(42), member(i)]});
                            env.docs().insert(COMMITS_COLLECTION, batch).unwrap();
                            env.docs().insert(COMMITS_COLLECTION, json!({"unrelated": true})).unwrap();
                        }
                        Op::Decommit(i) => {
                            decommit(&env, &pool(i)).unwrap();
                            prop_assert!(!is_committed(&env, &pool(i)).unwrap());
                        }
                        Op::DecommitCrashed(i) => {
                            let covered = is_committed(&env, &pool(i)).unwrap();
                            faults.arm(FaultPlan::crash_at(FaultTarget::Class(OpClass::DocDelete), 0));
                            prop_assert_eq!(decommit(&env, &pool(i)).is_err(), covered);
                            faults.disarm_all();
                        }
                        Op::TornCommit(i) => {
                            faults.arm(FaultPlan::torn_write_at(FaultTarget::Class(OpClass::DocInsert), 0, 7));
                            prop_assert!(commit_save(&env, &pool(i)).is_err());
                            faults.disarm_all();
                            // The writer died mid-append; the next open
                            // truncates the torn tail.
                            drop(env);
                            env = open(&dir, &faults);
                        }
                        Op::Compact => {
                            env.docs().compact(COMMITS_COLLECTION).unwrap();
                        }
                        Op::Reopen => {
                            drop(env);
                            env = open(&dir, &faults);
                        }
                    }
                    let log: HashSet<(String, String)> = env
                        .docs()
                        .all(COMMITS_COLLECTION)
                        .unwrap()
                        .iter()
                        .flat_map(|(_, doc)| record_pairs(doc))
                        .collect();
                    prop_assert_eq!(&committed_ids(&env).unwrap(), &log);
                    let everyone: Vec<ModelSetId> = (0..POOL.len() as u8).map(pool).collect();
                    for id in &everyone {
                        let in_log = log.contains(&(id.approach.clone(), id.key.clone()));
                        prop_assert_eq!(is_committed(&env, id).unwrap(), in_log, "{}", id);
                    }
                    prop_assert_eq!(&committed_among(&env, &everyone).unwrap(), &log);
                }
            }
        }
    }

    #[test]
    fn commit_survives_reopen() {
        let dir = TempDir::new("mmm-commit").unwrap();
        {
            let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
            commit_save(&env, &id("provenance", "3")).unwrap();
        }
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        assert!(is_committed(&env, &id("provenance", "3")).unwrap());
    }
}
