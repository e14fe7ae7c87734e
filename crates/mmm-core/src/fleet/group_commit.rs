//! Group commit: coalescing concurrent commit-record appends.
//!
//! Phase two of every save appends one record to the commits
//! collection. Under heavy concurrent save traffic those appends become
//! the write-amplification hot spot: `k` tenants committing at the same
//! time cost `k` document inserts that all contend on the same log.
//! The [`GroupCommitter`] batches them: the first committer to arrive
//! becomes the **leader**, takes everything queued at that moment (plus
//! an optional collection window), and writes **one** batched commit
//! record on behalf of the whole group; the others wait and receive the
//! leader's verdict.
//!
//! Crash atomicity is inherited, not re-implemented: a batch is still a
//! single append to the checksummed append-only commit log, so a crash
//! leaves it either durably whole (every member committed) or absent
//! (no member committed — a torn append is discarded on replay). There
//! is no partial batch, which is exactly the all-or-nothing contract
//! the chaos harness asserts.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use serde_json::json;

use crate::commit::COMMITS_COLLECTION;
use crate::env::ManagementEnv;
use crate::model_set::ModelSetId;
use mmm_util::{Error, Result, Unpoison};

/// While a leader writes on behalf of a batch it acts under the group's
/// collective authority, not its own request budget: one member's
/// expired deadline must not fail every other member's commit. The
/// leader therefore shadows its per-thread deadline with this generous
/// one for the duration of the batch write.
const GROUP_WRITE_SHIELD: Duration = Duration::from_secs(3600);

struct Pending {
    ticket: u64,
    approach: String,
    key: String,
    /// Tenant/request identity captured from the enqueuing thread's
    /// request context (None outside the fleet frontend): the rider
    /// that lets a commit record answer "whose saves rode in here".
    tenant: Option<String>,
    request: Option<String>,
}

#[derive(Default)]
struct State {
    pending: Vec<Pending>,
    /// A leader is currently writing a batch; arrivals queue for the
    /// next one.
    writing: bool,
    done: HashMap<u64, Result<u64>>,
    next_ticket: u64,
    batches: u64,
    members: u64,
    largest_batch: u64,
}

/// Cumulative group-commit counters (see [`GroupCommitter::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Commit records written (each one document insert).
    pub batches: u64,
    /// Saves committed through those records. `members / batches` is
    /// the achieved coalescing factor; > 1 means group commit saved
    /// appends.
    pub members: u64,
    /// Largest single batch so far.
    pub largest_batch: u64,
}

/// The commit coordinator of one environment (obtained from
/// [`ManagementEnv::commit_gate`]; [`crate::commit::commit_save`]
/// routes every commit through it).
///
/// A solo committer writes immediately — batch of one, the classic
/// single-record format, zero added latency. Under contention the
/// leader/follower protocol forms batches naturally: everything that
/// queues while a batch is being written rides in the next one. The
/// optional `window` (see [`GroupCommitter::with_window`]) makes the
/// leader wait briefly before collecting, trading commit latency for
/// larger batches — the same knob Postgres calls `commit_delay`.
pub struct GroupCommitter {
    window: Duration,
    state: Mutex<State>,
    cv: Condvar,
}

impl Default for GroupCommitter {
    fn default() -> Self {
        GroupCommitter::new()
    }
}

impl GroupCommitter {
    /// A committer with no collection window (batches form only from
    /// natural contention).
    pub fn new() -> Self {
        GroupCommitter::with_window(Duration::ZERO)
    }

    /// A committer whose leader waits `window` (real time) after taking
    /// leadership before collecting the batch.
    pub fn with_window(window: Duration) -> Self {
        GroupCommitter { window, state: Mutex::new(State::default()), cv: Condvar::new() }
    }

    /// The configured collection window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Commit `id` as part of the next batch; blocks until the batch's
    /// record is durably written (or its write failed). Returns the
    /// batch record's document id.
    ///
    /// Once a save is enqueued its fate is the batch's fate: even if
    /// the caller's deadline expires while waiting, the verdict
    /// reflects what actually hit the log — a committed save must never
    /// be reported as failed (or vice versa).
    pub fn commit(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<u64> {
        // Fail fast *before* enqueuing: after this point the save rides
        // the batch and the outcome is owed to the caller.
        env.service_gate().check_deadline()?;
        // Capture the caller's request identity here, on its own
        // thread: the leader that eventually writes the batch may be a
        // different tenant's thread entirely.
        let req = mmm_obs::current_request();
        let ticket = {
            let mut st = self.lock_state();
            let t = st.next_ticket;
            st.next_ticket += 1;
            st.pending.push(Pending {
                ticket: t,
                approach: id.approach.clone(),
                key: id.key.clone(),
                tenant: req.as_ref().map(|r| r.tenant.clone()),
                request: req.map(|r| r.request_id),
            });
            t
        };

        let mut st = self.lock_state();
        loop {
            if let Some(res) = st.done.remove(&ticket) {
                return res;
            }
            if !st.writing && !st.pending.is_empty() {
                // Become the leader for everything queued right now.
                st.writing = true;
                drop(st);
                if !self.window.is_zero() {
                    std::thread::sleep(self.window);
                }
                let batch = {
                    let mut st = self.lock_state();
                    std::mem::take(&mut st.pending)
                };
                let res = write_batch(env, &batch);
                st = self.lock_state();
                st.writing = false;
                st.batches += 1;
                st.members += batch.len() as u64;
                st.largest_batch = st.largest_batch.max(batch.len() as u64);
                for p in &batch {
                    st.done.insert(p.ticket, clone_result(&res));
                }
                self.cv.notify_all();
                continue;
            }
            st = self.cv.wait(st).unpoison();
        }
    }

    /// Run `f` as the only writer of the commit log: after the batch
    /// being written (if any) and before the next, excluding any other
    /// such section. A read-modify-write of commit records
    /// ([`crate::commit::decommit`]) runs here so that no other edit
    /// lands between its read and its write. `f` must not commit.
    pub(crate) fn exclusive<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Release<'a>(&'a GroupCommitter);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.lock_state().writing = false;
                self.0.cv.notify_all();
            }
        }
        let mut st = self.lock_state();
        while st.writing {
            st = self.cv.wait(st).unpoison();
        }
        st.writing = true;
        drop(st);
        let _release = Release(self);
        f()
    }

    /// Cumulative batching counters.
    pub fn stats(&self) -> GroupCommitStats {
        let st = self.lock_state();
        GroupCommitStats {
            batches: st.batches,
            members: st.members,
            largest_batch: st.largest_batch,
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        // A tenant thread that panicked mid-commit must not wedge every
        // other tenant: the state is a queue of plain data, consistent
        // at every await point, so we keep serving after a poison.
        self.state.lock().unpoison()
    }
}

/// One batch member as a commit-record entry. Tenant/request riders are
/// extra keys old readers ignore (`record_pairs` reads only
/// `approach`/`set`), so the on-disk format stays backward-compatible.
fn member_json(p: &Pending) -> serde_json::Value {
    let mut v = json!({"approach": p.approach, "set": p.key});
    if let Some(obj) = v.as_object_mut() {
        if let Some(t) = &p.tenant {
            obj.insert("tenant".into(), json!(t));
        }
        if let Some(r) = &p.request {
            obj.insert("rq".into(), json!(r));
        }
    }
    v
}

/// Write one commit record covering `batch` (single-record format for a
/// batch of one, the `{"batch": [...]}` format otherwise) and report
/// the batching to the observer. The commit span is tagged with the
/// comma-joined request ids the batch coalesced, so per-batch spans
/// attribute back to per-request spans.
fn write_batch(env: &ManagementEnv, batch: &[Pending]) -> Result<u64> {
    let rids: Vec<&str> = batch.iter().filter_map(|p| p.request.as_deref()).collect();
    let _span = if rids.is_empty() {
        env.obs().span("commit")
    } else {
        env.obs().span_tagged("commit", rids.join(","))
    };
    let _shield = env.service_gate().arm_deadline(GROUP_WRITE_SHIELD);
    let doc = if batch.len() == 1 {
        member_json(&batch[0])
    } else {
        let members: Vec<_> = batch.iter().map(member_json).collect();
        json!({ "batch": members })
    };
    let res = env.with_retry(|| env.docs().insert(COMMITS_COLLECTION, doc.clone()));
    env.obs().inc("mmm_commit_batches_total", 1);
    env.obs().inc("mmm_commit_members_total", batch.len() as u64);
    env.obs().observe("mmm_commit_batch_size", batch.len() as u64);
    res
}

fn clone_result(res: &Result<u64>) -> Result<u64> {
    match res {
        Ok(v) => Ok(*v),
        Err(e) => Err(clone_error(e)),
    }
}

/// [`Error`] is not `Clone` (it wraps `std::io::Error`); a batch
/// verdict must still be delivered to every member, so rebuild an
/// equivalent error per follower.
fn clone_error(e: &Error) -> Error {
    match e {
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
        Error::NotFound(s) => Error::NotFound(s.clone()),
        Error::Corrupt(s) => Error::Corrupt(s.clone()),
        Error::Invalid(s) => Error::Invalid(s.clone()),
        Error::Transient(s) => Error::Transient(s.clone()),
        Error::DeadlineExceeded(s) => Error::DeadlineExceeded(s.clone()),
        Error::Unavailable(s) => Error::Unavailable(s.clone()),
        other => Error::invalid(format!("commit batch failed: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit;
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn id(approach: &str, key: &str) -> ModelSetId {
        ModelSetId { approach: approach.into(), key: key.into() }
    }

    #[test]
    fn solo_commits_use_the_single_record_format() {
        let dir = TempDir::new("mmm-gc").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        commit::commit_save(&env, &id("baseline", "0")).unwrap();
        assert!(commit::is_committed(&env, &id("baseline", "0")).unwrap());
        let stats = env.commit_gate().stats();
        assert_eq!(stats, GroupCommitStats { batches: 1, members: 1, largest_batch: 1 });
        // On disk: one record, old shape (no "batch" key).
        let docs = env.docs().all(COMMITS_COLLECTION).unwrap();
        assert_eq!(docs.len(), 1);
        assert!(docs[0].1.get("batch").is_none());
        assert_eq!(docs[0].1.get("set").unwrap(), "0");
    }

    #[test]
    fn commit_records_carry_tenant_and_request_riders() {
        let dir = TempDir::new("mmm-gc").unwrap();
        let obs = mmm_obs::Observer::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .observer(obs.clone())
            .open()
            .unwrap();
        {
            let _req = mmm_obs::enter_request("t-0", "rq-t-0-1");
            commit::commit_save(&env, &id("baseline", "0")).unwrap();
        }
        let docs = env.docs().all(COMMITS_COLLECTION).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].1.get("tenant").and_then(|v| v.as_str()), Some("t-0"));
        assert_eq!(docs[0].1.get("rq").and_then(|v| v.as_str()), Some("rq-t-0-1"));
        // Old readers still see the commit.
        assert!(commit::is_committed(&env, &id("baseline", "0")).unwrap());
        // The commit span carries the coalesced request ids as its tag.
        let spans = obs.finished_spans();
        let commit_span = spans.iter().find(|s| s.name == "commit").unwrap();
        assert_eq!(commit_span.tag.as_deref(), Some("rq-t-0-1"));
    }

    #[test]
    fn concurrent_commits_coalesce_into_fewer_records() {
        const TENANTS: usize = 16;
        let dir = TempDir::new("mmm-gc").unwrap();
        // A 30ms collection window guarantees the stragglers pile into
        // the leader's batch, making the assertion deterministic.
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .commit_window(Duration::from_millis(30))
            .open()
            .unwrap();

        let before = env.stats().doc_inserts;
        std::thread::scope(|s| {
            for t in 0..TENANTS {
                let env = &env;
                s.spawn(move || {
                    commit::commit_save(env, &id("baseline", &t.to_string())).unwrap();
                });
            }
        });

        for t in 0..TENANTS {
            assert!(
                commit::is_committed(&env, &id("baseline", &t.to_string())).unwrap(),
                "tenant {t} committed"
            );
        }
        // The acceptance criterion: fewer commit-record appends than
        // saves, visible in the store's own op accounting.
        let inserts = env.stats().doc_inserts - before;
        assert!(
            inserts < TENANTS as u64,
            "group commit must coalesce: {inserts} inserts for {TENANTS} commits"
        );
        let stats = env.commit_gate().stats();
        assert_eq!(stats.members, TENANTS as u64);
        assert_eq!(stats.batches, inserts);
        assert!(stats.largest_batch > 1, "at least one real batch formed");
        assert_eq!(env.docs().count(COMMITS_COLLECTION) as u64, inserts);
    }

    #[test]
    fn a_failed_batch_write_fails_every_member() {
        use mmm_store::{FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-gc").unwrap();
        let faults = mmm_store::FaultInjector::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .faults(faults.clone())
            .commit_window(Duration::from_millis(30))
            .open()
            .unwrap();
        // The 4 committers may race into 1–4 batches depending on
        // scheduling; crash every possible commit-record append so the
        // verdict is deterministic either way. (4 failures stays below
        // the breaker's default threshold of 5.)
        for i in 0..4 {
            faults.arm(FaultPlan::crash_at(FaultTarget::Class(OpClass::DocInsert), i));
        }

        let outcomes: Vec<Result<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let env = &env;
                    s.spawn(move || commit::commit_save(env, &id("update", &t.to_string())))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // All-or-nothing: the single append failed, so every member
        // failed and none is visible.
        for (t, out) in outcomes.iter().enumerate() {
            assert!(out.is_err(), "member {t} must see the batch failure");
        }
        assert_eq!(commit::committed_ids(&env).unwrap().len(), 0);
    }
}
