//! Version graphs: fork, structural diff, and three-way merge of saved
//! model sets.
//!
//! The paper's lineage model is a linear chain of update cycles, but real
//! fleets derive models in *graphs*: fork a set to retrain a tenant's
//! slice, compare the result against the mainline, merge the survivors
//! back. This module adds that layer on top of the Update approach
//! without a new storage format:
//!
//! * **fork** — a new lineage head is an ordinary `kind: "diff"` set
//!   document with an *empty* diff blob and a copy of the fork point's
//!   per-layer hash table. Under the CAS backend every hash-table chunk
//!   dedups against the parent's blob, so a fork writes O(metadata)
//!   bytes (documents + a chunk manifest), never O(set).
//! * **branch heads** — one document per branch in [`BRANCHES_COLLECTION`],
//!   made crash-atomic by an ordinary commit record with approach
//!   [`BRANCH_APPROACH`]. Branch commits flow through the same group
//!   commit gate as saves, so concurrent forks coalesce into one
//!   commit-record append (no store syncs to disk yet).
//!   The document store is append-only, so advancing a head inserts a
//!   new document, commits it, and only then retires the old one —
//!   readers resolve ties by taking the highest committed document id.
//! * **diff** — compares two sets' stored hash tables layer by layer;
//!   no parameter blob is ever read.
//! * **merge** — three-way per-layer resolution over the hash tables of
//!   (base, ours, theirs). A layer changed on only one side takes that
//!   side; changed identically on both takes either; changed differently
//!   is a conflict. Conflicts abort the merge *before any write* — the
//!   outcome reports them explicitly, nothing is silently overwritten.
//! * **delete** — branch deletion walks the branch-exclusive node list
//!   recorded on the head document, newest first, so a transient fault
//!   mid-deletion can simply replay the same `delete_branch` call:
//!   every step treats "already gone" as success and CAS refcounts are
//!   released exactly once (when a node's manifest is deleted).

use std::collections::BTreeMap;

use crate::approach::common;
use crate::approach::{ModelSetSaver, UpdateSaver};
use crate::commit;
use crate::env::ManagementEnv;
use crate::gc;
use crate::layout;
use crate::lineage;
use crate::model_set::{Derivation, ModelSetId};
use crate::param_codec::encode_diff;
use mmm_dnn::TrainConfig;
use mmm_util::{Error, Result};
use serde_json::{json, Value};

/// Collection holding one head document per branch (plus retired
/// predecessors awaiting cleanup).
pub const BRANCHES_COLLECTION: &str = "branches";

/// Approach tag used in the commit records that make branch-head
/// documents crash-atomic. Branch commits are ordinary commit records,
/// so they ride the group-commit gate and are visible to fsck.
pub const BRANCH_APPROACH: &str = "branch";

/// The commit-record id guarding one branch-head document.
pub fn branch_commit_id(doc_id: u64) -> ModelSetId {
    ModelSetId { approach: BRANCH_APPROACH.into(), key: doc_id.to_string() }
}

/// One named lineage head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    /// Branch name (unique among live branches).
    pub name: String,
    /// Document id of the committed head document.
    pub doc_id: u64,
    /// The set the branch currently points at.
    pub head: ModelSetId,
    /// Set key of the fork point — the newest lineage node *shared* with
    /// the parent line. Deletion never walks past it.
    pub root: String,
    /// Set keys exclusive to this branch, oldest first (the fork node
    /// plus every advance). This is the deletion work list.
    pub nodes: Vec<String>,
}

fn parse_branch_doc(doc_id: u64, doc: &Value) -> Result<Branch> {
    let field = |k: &str| {
        doc.get(k)
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| Error::corrupt(format!("branch document without {k}")))
    };
    let nodes = doc
        .get("nodes")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::corrupt("branch document without nodes"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(String::from)
                .ok_or_else(|| Error::corrupt("branch node key is not a string"))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Branch {
        name: field("branch")?,
        doc_id,
        head: ModelSetId { approach: field("approach")?, key: field("head")? },
        root: field("root")?,
        nodes,
    })
}

/// All live branches, sorted by name. For each name the *highest
/// committed* document id wins — lower ones are retired predecessors
/// left by a crash mid-advance (harmless; cleaned up on the next
/// advance or delete).
pub fn branches(env: &ManagementEnv) -> Result<Vec<Branch>> {
    // Parsed in the scan; a parse error matters only for a committed head.
    let mut docs = Vec::new();
    env.docs().visit(BRANCHES_COLLECTION, |doc_id, doc| {
        docs.push((branch_commit_id(doc_id), parse_branch_doc(doc_id, doc)));
        true
    })?;
    let committed = commit::committed_among(env, docs.iter().map(|(head, _)| head))?;
    let mut latest: BTreeMap<String, Branch> = BTreeMap::new();
    for (head, parsed) in docs {
        if !committed.contains(&(head.approach, head.key)) {
            continue;
        }
        let b = parsed?;
        match latest.get(&b.name) {
            Some(cur) if cur.doc_id >= b.doc_id => {}
            _ => {
                latest.insert(b.name.clone(), b);
            }
        }
    }
    Ok(latest.into_values().collect())
}

/// Resolve a branch by name.
pub fn branch_by_name(env: &ManagementEnv, name: &str) -> Result<Branch> {
    branches(env)?
        .into_iter()
        .find(|b| b.name == name)
        .ok_or_else(|| Error::not_found(format!("no branch named {name:?}")))
}

fn require_update(id: &ModelSetId, what: &str) -> Result<()> {
    if id.approach != "update" {
        return Err(Error::invalid(format!(
            "{what} requires the update approach (per-layer hash tables); got {:?}",
            id.approach
        )));
    }
    Ok(())
}

/// Fork a new branch named `name` off `source`'s lineage, `back`
/// versions behind it (`back == 0` forks at `source` itself).
///
/// The new head is a depth+1 diff node with an empty diff and the fork
/// point's hash table; under CAS every hash chunk dedups, so the write
/// cost is metadata only. Crash-atomic: the branch becomes visible only
/// when its commit record lands (after the fork node's own commit), so
/// a crash at any intermediate write leaves the parent untouched and
/// the partial fork as invisible, fsck-collectable debris.
pub fn fork(env: &ManagementEnv, source: &ModelSetId, back: usize, name: &str) -> Result<Branch> {
    let _span = env.obs().span("fork");
    if name.is_empty() || name.contains(':') || name.contains('/') {
        return Err(Error::invalid(format!("invalid branch name {name:?}")));
    }
    require_update(source, "fork")?;
    if branches(env)?.iter().any(|b| b.name == name) {
        return Err(Error::invalid(format!("branch {name:?} already exists")));
    }
    commit::require_committed(env, source)?;
    let chain = lineage::lineage(env, source)?;
    let node = chain.get(back).ok_or_else(|| {
        Error::invalid(format!("cannot fork {back} versions back: lineage has {}", chain.len()))
    })?;
    commit::require_committed(env, &node.id)?;
    let node_doc_id = common::doc_id_of(&node.id)?;
    let node_doc = env.docs().get(common::SETS_COLLECTION, node_doc_id)?;
    let n_models = node_doc
        .get("n_models")
        .and_then(Value::as_u64)
        .ok_or_else(|| Error::corrupt("fork point document without n_models"))?;
    let depth = node_doc
        .get("depth")
        .and_then(Value::as_u64)
        .ok_or_else(|| Error::corrupt("fork point document without depth"))?;

    // The fork node: empty diff + the fork point's hash table verbatim.
    let doc = json!({
        "approach": "update",
        "kind": "diff",
        "base": node.id.key,
        "n_models": n_models,
        "n_changed_layers": 0,
        "depth": depth + 1,
        "branch": name,
    });
    let fork_doc_id = common::insert_set_doc(env, &doc)?;
    {
        let _span = env.obs().span("blob_put");
        let empty = encode_diff(&[])?;
        env.with_retry(|| env.blobs().put(&layout::diff_key(fork_doc_id), &empty))?;
        let hashes = UpdateSaver::read_hash_table(env, node_doc_id)?;
        UpdateSaver::put_hash_table(env, fork_doc_id, &hashes)?;
    }
    let head = layout::set_id("update", fork_doc_id);
    let branch_doc = json!({
        "branch": name,
        "approach": "update",
        "head": head.key.clone(),
        "root": node.id.key,
        "nodes": [head.key.as_str()],
    });
    let branch_doc_id = {
        let _span = env.obs().span("doc_insert");
        env.with_retry(|| env.docs().insert(BRANCHES_COLLECTION, branch_doc.clone()))?
    };
    // Two gated commits: the fork node first (so the branch never points
    // at an uncommitted set), then the branch head. Concurrent forks
    // coalesce into shared commit batches.
    commit::commit_save(env, &head)?;
    commit::commit_save(env, &branch_commit_id(branch_doc_id))?;
    env.obs().inc("mmm_branch_forks_total", 1);
    env.obs().inc(&format!("mmm_branch_ops_total{{branch=\"{name}\"}}"), 1);
    Ok(Branch { name: name.into(), doc_id: branch_doc_id, head, root: node.id.key.clone(), nodes: vec![fork_doc_id.to_string()] })
}

/// One changed layer in a structural diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerDelta {
    /// Model index within the set.
    pub model: usize,
    /// Parametric layer index within the model.
    pub layer: usize,
    /// Size of the layer's parameters (the byte cost of shipping the
    /// change as an Update diff entry).
    pub bytes: u64,
}

/// Structural comparison of two sets, computed from stored hash tables
/// without materializing any parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetDiff {
    /// Left-hand set.
    pub a: ModelSetId,
    /// Right-hand set.
    pub b: ModelSetId,
    /// Layers present in both sets whose contents differ.
    pub changed: Vec<LayerDelta>,
    /// Models present only in `b`.
    pub added_models: usize,
    /// Models present only in `a`.
    pub removed_models: usize,
    /// Total bytes across `changed`.
    pub bytes_changed: u64,
    /// Total parameter bytes of the added models.
    pub bytes_added: u64,
    /// Total parameter bytes of the removed models.
    pub bytes_removed: u64,
}

impl SetDiff {
    /// True when the sets are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.added_models == 0 && self.removed_models == 0
    }
}

/// Parametric layer byte sizes, read from the chain's full-snapshot
/// document (the only place the architecture is recorded).
fn chain_layer_bytes(env: &ManagementEnv, id: &ModelSetId) -> Result<Vec<u64>> {
    let chain = lineage::lineage(env, id)?;
    let root = chain.last().ok_or_else(|| Error::corrupt("empty lineage"))?;
    let doc = env.docs().get(common::SETS_COLLECTION, common::doc_id_of(&root.id)?)?;
    let sizes = doc
        .get("layer_sizes")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::corrupt("full set document without layer_sizes"))?;
    sizes
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|s| 4 * s)
                .ok_or_else(|| Error::corrupt("non-integer layer size"))
        })
        .collect()
}

fn hash_table_of(env: &ManagementEnv, id: &ModelSetId) -> Result<Vec<Vec<u64>>> {
    UpdateSaver::read_hash_table(env, common::doc_id_of(id)?)
}

/// Structural diff of two committed update sets: changed / added /
/// removed layers with byte-level delta sizes. Reads only the two hash
/// tables and one metadata document — O(models × layers), independent
/// of parameter count.
pub fn diff(env: &ManagementEnv, a: &ModelSetId, b: &ModelSetId) -> Result<SetDiff> {
    let _span = env.obs().span("diff");
    require_update(a, "diff")?;
    require_update(b, "diff")?;
    commit::require_committed(env, a)?;
    commit::require_committed(env, b)?;
    let ha = hash_table_of(env, a)?;
    let hb = hash_table_of(env, b)?;
    let layer_bytes = chain_layer_bytes(env, a)?;
    let per_model: u64 = layer_bytes.iter().sum();
    for row in ha.iter().chain(hb.iter()) {
        if row.len() != layer_bytes.len() {
            return Err(Error::invalid(format!(
                "cannot diff {a} against {b}: layer counts differ ({} vs {})",
                row.len(),
                layer_bytes.len()
            )));
        }
    }
    let common_models = ha.len().min(hb.len());
    let mut changed = Vec::new();
    let mut bytes_changed = 0u64;
    for mi in 0..common_models {
        for (li, (x, y)) in ha[mi].iter().zip(&hb[mi]).enumerate() {
            if x != y {
                let bytes = layer_bytes[li];
                changed.push(LayerDelta { model: mi, layer: li, bytes });
                bytes_changed += bytes;
            }
        }
    }
    let added_models = hb.len() - common_models;
    let removed_models = ha.len() - common_models;
    env.obs().inc("mmm_branch_diffs_total", 1);
    Ok(SetDiff {
        a: a.clone(),
        b: b.clone(),
        changed,
        added_models,
        removed_models,
        bytes_changed,
        bytes_added: added_models as u64 * per_model,
        bytes_removed: removed_models as u64 * per_model,
    })
}

/// One layer both sides changed, differently, relative to the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeConflict {
    /// Model index within the set.
    pub model: usize,
    /// Parametric layer index within the model.
    pub layer: usize,
}

/// Result of a three-way merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The merged set — `None` when conflicts aborted the merge (in
    /// which case nothing was written).
    pub merged: Option<ModelSetId>,
    /// Layers changed differently on both sides. Non-empty implies
    /// `merged` is `None`: conflicts are reported, never overwritten.
    pub conflicts: Vec<MergeConflict>,
    /// Layers taken from `ours` because only `ours` changed them.
    pub took_ours: usize,
    /// Layers taken from `theirs` because only `theirs` changed them.
    pub took_theirs: usize,
}

impl MergeOutcome {
    /// True when the merge produced a set.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Three-way merge of `ours` and `theirs` against their common ancestor
/// `base`, resolved per layer on the stored hash tables:
///
/// * unchanged on both sides, or changed identically → either side;
/// * changed only on one side → that side;
/// * changed differently on both sides → **conflict**.
///
/// Any conflict aborts before a single write and is reported in the
/// outcome. A clean merge saves a new update set derived from `ours`
/// whose diff blob carries exactly the `theirs`-side layers, and leaves
/// branch heads untouched (advance one explicitly with [`advance`]).
pub fn merge(
    env: &ManagementEnv,
    base: &ModelSetId,
    ours: &ModelSetId,
    theirs: &ModelSetId,
) -> Result<MergeOutcome> {
    let _span = env.obs().span("merge");
    for (id, what) in [(base, "merge base"), (ours, "merge ours"), (theirs, "merge theirs")] {
        require_update(id, what)?;
        commit::require_committed(env, id)?;
    }
    let hb = hash_table_of(env, base)?;
    let ho = hash_table_of(env, ours)?;
    let ht = hash_table_of(env, theirs)?;
    if ho.len() != hb.len() || ht.len() != hb.len() {
        return Err(Error::invalid(format!(
            "merge requires equal model counts (base {}, ours {}, theirs {})",
            hb.len(),
            ho.len(),
            ht.len()
        )));
    }
    let mut conflicts = Vec::new();
    let mut take_theirs: Vec<(usize, usize)> = Vec::new();
    let mut took_ours = 0usize;
    for mi in 0..hb.len() {
        if ho[mi].len() != hb[mi].len() || ht[mi].len() != hb[mi].len() {
            return Err(Error::invalid("merge requires identical layer layouts"));
        }
        for li in 0..hb[mi].len() {
            let (b, o, t) = (hb[mi][li], ho[mi][li], ht[mi][li]);
            if o == t {
                continue; // agreed (both unchanged, or converged)
            } else if o == b {
                take_theirs.push((mi, li));
            } else if t == b {
                took_ours += 1;
            } else {
                conflicts.push(MergeConflict { model: mi, layer: li });
            }
        }
    }
    if !conflicts.is_empty() {
        env.obs().inc("mmm_branch_merge_conflicts_total", 1);
        return Ok(MergeOutcome { merged: None, conflicts, took_ours, took_theirs: take_theirs.len() });
    }
    if take_theirs.is_empty() {
        // Nothing to take from theirs: the merge *is* ours.
        env.obs().inc("mmm_branch_merges_total", 1);
        return Ok(MergeOutcome { merged: Some(ours.clone()), conflicts, took_ours, took_theirs: 0 });
    }

    // Materialize: ours in full, theirs only for the models we take
    // layers from (selective recovery), then save as an ordinary update
    // derived from ours — the diff blob holds exactly the theirs-side
    // layers, so the merge costs what it changes.
    let saver = UpdateSaver::new();
    let mut set = {
        let _span = env.obs().span("merge_materialize");
        saver.recover_set(env, ours)?
    };
    let mut indices: Vec<usize> = take_theirs.iter().map(|&(mi, _)| mi).collect();
    indices.sort_unstable();
    indices.dedup();
    let theirs_models = saver.recover_models(env, theirs, &indices)?;
    let pos: std::collections::HashMap<usize, usize> =
        indices.iter().enumerate().map(|(p, &i)| (i, p)).collect();
    for &(mi, li) in &take_theirs {
        set.models[mi].layers[li].data = theirs_models[pos[&mi]].layers[li].data.clone();
    }
    let d = Derivation {
        base: ours.clone(),
        train: TrainConfig::regression_default(0),
        updates: vec![],
    };
    let merged = UpdateSaver::new().save_set(env, &set, Some(&d))?;
    env.obs().inc("mmm_branch_merges_total", 1);
    Ok(MergeOutcome {
        merged: Some(merged),
        conflicts,
        took_ours,
        took_theirs: take_theirs.len(),
    })
}

/// How many things a deletion removed: one, or none when it answers
/// `NotFound` — an earlier attempt already got here, so a replay
/// counts it as done rather than failed.
pub(crate) fn deleted(r: Result<()>) -> Result<usize> {
    match r {
        Ok(()) => Ok(1),
        Err(Error::NotFound(_)) => Ok(0),
        Err(e) => Err(e),
    }
}

/// Advance a branch head to `new_head`, which must be a committed
/// update set descending from the current head (fast-forward only — a
/// non-descendant head would silently abandon nodes the deletion walk
/// could then never find).
///
/// Crash-safe on the append-only store: insert the new head document,
/// commit it, then retire older documents. A crash mid-way leaves two
/// committed heads; readers take the highest document id and the next
/// advance or delete cleans up.
pub fn advance(env: &ManagementEnv, name: &str, new_head: &ModelSetId) -> Result<Branch> {
    let _span = env.obs().span("branch_advance");
    let cur = branch_by_name(env, name)?;
    require_update(new_head, "advance")?;
    commit::require_committed(env, new_head)?;
    let chain = lineage::lineage(env, new_head)?;
    let cut = chain.iter().position(|n| n.id.key == cur.head.key).ok_or_else(|| {
        Error::invalid(format!(
            "set {new_head} does not descend from {name:?}'s head {} (fast-forward only)",
            cur.head
        ))
    })?;
    let mut nodes = cur.nodes.clone();
    // Keys strictly between the old head and the new one, oldest first.
    nodes.extend(chain[..cut].iter().rev().map(|n| n.id.key.clone()));
    let doc = json!({
        "branch": name,
        "approach": "update",
        "head": new_head.key,
        "root": cur.root,
        "nodes": nodes,
    });
    let doc_id = env.with_retry(|| env.docs().insert(BRANCHES_COLLECTION, doc.clone()))?;
    commit::commit_save(env, &branch_commit_id(doc_id))?;
    #[cfg(test)]
    tests::after_commit();
    // Retire every older document for this name (tolerating replays).
    // A newer one is a concurrent advance's head: readers take the
    // newest, so it stays.
    for (old_id, _) in env.docs().find_eq(BRANCHES_COLLECTION, "branch", &json!(name))? {
        if old_id >= doc_id {
            continue;
        }
        commit::decommit(env, &branch_commit_id(old_id))?;
        deleted(env.docs().delete(BRANCHES_COLLECTION, old_id))?;
    }
    env.obs().inc(&format!("mmm_branch_ops_total{{branch=\"{name}\"}}"), 1);
    Ok(Branch { name: name.into(), doc_id, head: new_head.clone(), root: cur.root, nodes })
}

/// What a branch deletion removed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BranchDeleteReport {
    /// Branch-exclusive sets deleted (newest first).
    pub sets_deleted: usize,
    /// Documents removed across sets and branch heads.
    pub docs_deleted: usize,
    /// Blobs removed.
    pub blobs_deleted: usize,
    /// Commit records removed.
    pub commits_deleted: usize,
    /// Set on which the walk stopped because another committed set
    /// still chains to it (e.g. a sub-branch forked from this branch).
    /// Everything above it was deleted; it and its ancestors survive.
    pub stopped_on_dependent: Option<ModelSetId>,
}

/// Delete a branch: its head pointer and every branch-exclusive set,
/// newest first, stopping (without error) at any node another committed
/// set still depends on.
///
/// **Idempotent under retry.** Deleting an unknown branch succeeds with
/// an empty report, and every internal step treats "already gone" as
/// done, so a transient-fault plan can replay the same call and CAS
/// refcounts are decremented exactly once — a chunk is released when
/// its manifest is deleted, and a replay finds no manifest to re-release.
/// Each set is decommitted before its artifacts are touched, so a crash
/// mid-deletion leaves only invisible, fsck-collectable orphans.
pub fn delete_branch(env: &ManagementEnv, name: &str) -> Result<BranchDeleteReport> {
    let _span = env.obs().span("branch_delete");
    let mut report = BranchDeleteReport::default();
    let docs = env.docs().find_eq(BRANCHES_COLLECTION, "branch", &json!(name))?;
    let Some((_, latest)) = docs.iter().max_by_key(|(id, _)| *id) else {
        return Ok(report); // already gone — replay-friendly
    };
    let branch = parse_branch_doc(0, latest)?;

    // Branch-exclusive sets, newest first: each node's only committed
    // dependent is the next newer node, so this order never trips the
    // dependency check unless a *foreign* set (another branch) chains in.
    for key in branch.nodes.iter().rev() {
        let id = ModelSetId { approach: "update".into(), key: key.clone() };
        match gc::delete_set(env, &id, false) {
            Ok(r) => {
                report.sets_deleted += 1;
                report.docs_deleted += r.docs_deleted;
                report.blobs_deleted += r.blobs_deleted;
                report.commits_deleted += r.commits_deleted;
            }
            Err(Error::NotFound(_)) => {} // an earlier attempt got here
            Err(Error::Invalid(_)) => {
                report.stopped_on_dependent = Some(id);
                break;
            }
            Err(e) => return Err(e), // transient — caller replays the call
        }
    }

    // The head documents go last: as long as one survives, a replay can
    // still find the node list and finish the job.
    for (doc_id, _) in &docs {
        report.commits_deleted += commit::decommit(env, &branch_commit_id(*doc_id))?;
        report.docs_deleted += deleted(env.docs().delete(BRANCHES_COLLECTION, *doc_id))?;
    }
    env.obs().inc("mmm_branch_deletes_total", 1);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_set::ModelSet;
    use mmm_dnn::Architectures;
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n).map(|i| arch.build(seed + i as u64).export_param_dict()).collect();
        ModelSet::new(arch, models)
    }

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-branch").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    fn deriv(base: &ModelSetId) -> Derivation {
        Derivation { base: base.clone(), train: TrainConfig::regression_default(0), updates: vec![] }
    }

    #[test]
    fn fork_shares_content_and_recovers_identically() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s = set(4, 1);
        let id0 = saver.save_initial(&env, &s).unwrap();
        let b = fork(&env, &id0, 0, "exp").unwrap();
        assert_eq!(b.root, id0.key);
        assert_eq!(saver.recover_set(&env, &b.head).unwrap(), s);
        assert_eq!(branch_by_name(&env, "exp").unwrap(), b);
    }

    #[test]
    fn fork_back_versions_picks_the_ancestor() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(3, 2);
        let id0 = saver.save_initial(&env, &s).unwrap();
        let snap0 = s.clone();
        s.models[0].layers[0].data[0] += 1.0;
        let id1 = saver.save_set(&env, &s, Some(&deriv(&id0))).unwrap();
        let b = fork(&env, &id1, 1, "old").unwrap();
        assert_eq!(b.root, id0.key);
        assert_eq!(saver.recover_set(&env, &b.head).unwrap(), snap0);
        assert!(fork(&env, &id1, 2, "toofar").is_err());
    }

    #[test]
    fn duplicate_and_malformed_names_are_rejected() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let id0 = saver.save_initial(&env, &set(2, 3)).unwrap();
        fork(&env, &id0, 0, "a").unwrap();
        assert!(fork(&env, &id0, 0, "a").is_err());
        assert!(fork(&env, &id0, 0, "").is_err());
        assert!(fork(&env, &id0, 0, "a:b").is_err());
    }

    #[test]
    fn diff_reports_changed_layers_with_bytes() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(3, 4);
        let id0 = saver.save_initial(&env, &s).unwrap();
        s.models[1].layers[2].data[0] += 0.5;
        let id1 = saver.save_set(&env, &s, Some(&deriv(&id0))).unwrap();
        let d = diff(&env, &id0, &id1).unwrap();
        assert_eq!(d.changed.len(), 1);
        assert_eq!((d.changed[0].model, d.changed[0].layer), (1, 2));
        assert_eq!(d.changed[0].bytes, 4 * s.arch.parametric_layer_sizes()[2] as u64);
        assert_eq!(d.bytes_changed, d.changed[0].bytes);
        assert!(diff(&env, &id0, &id0).unwrap().is_empty());
    }

    #[test]
    fn clean_merge_applies_both_sides() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(2, 5);
        let base = saver.save_initial(&env, &s0).unwrap();

        let mut ours_set = s0.clone();
        ours_set.models[0].layers[0].data[0] += 1.0;
        let ours = saver.save_set(&env, &ours_set, Some(&deriv(&base))).unwrap();

        let mut theirs_set = s0.clone();
        theirs_set.models[1].layers[3].data[0] -= 1.0;
        let theirs = saver.save_set(&env, &theirs_set, Some(&deriv(&base))).unwrap();

        let out = merge(&env, &base, &ours, &theirs).unwrap();
        assert!(out.is_clean());
        assert_eq!(out.took_theirs, 1);
        let merged = saver.recover_set(&env, out.merged.as_ref().unwrap()).unwrap();
        let mut want = s0.clone();
        want.models[0].layers[0].data[0] += 1.0;
        want.models[1].layers[3].data[0] -= 1.0;
        assert_eq!(merged, want);
    }

    #[test]
    fn conflicting_merge_reports_and_writes_nothing() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(2, 6);
        let base = saver.save_initial(&env, &s0).unwrap();
        let mut a = s0.clone();
        a.models[0].layers[1].data[0] = 7.0;
        let ours = saver.save_set(&env, &a, Some(&deriv(&base))).unwrap();
        let mut b = s0.clone();
        b.models[0].layers[1].data[0] = -7.0;
        let theirs = saver.save_set(&env, &b, Some(&deriv(&base))).unwrap();

        let n_docs = env.docs().count(common::SETS_COLLECTION);
        let out = merge(&env, &base, &ours, &theirs).unwrap();
        assert!(out.merged.is_none());
        assert_eq!(out.conflicts, vec![MergeConflict { model: 0, layer: 1 }]);
        assert_eq!(env.docs().count(common::SETS_COLLECTION), n_docs, "conflict wrote nothing");
    }

    #[test]
    fn advance_is_fast_forward_only() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(2, 7);
        let id0 = saver.save_initial(&env, &s).unwrap();
        let b = fork(&env, &id0, 0, "dev").unwrap();
        s.models[0].layers[0].data[0] += 2.0;
        let id1 = saver.save_set(&env, &s, Some(&deriv(&b.head))).unwrap();
        let b2 = advance(&env, "dev", &id1).unwrap();
        assert_eq!(b2.head, id1);
        assert_eq!(b2.nodes.len(), 2);
        // A set not descending from the head is refused.
        assert!(advance(&env, "dev", &id0).is_err());
    }

    thread_local! {
        /// Run by [`advance`] between committing its new head and
        /// retiring older ones, on the threads that install it.
        static AFTER_COMMIT: std::cell::RefCell<Option<Box<dyn Fn()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn after_commit() {
        AFTER_COMMIT.with(|hook| hook.borrow().as_ref().map(|hook| hook()));
    }

    /// Two writers advancing one branch at the same moment: each commits
    /// its new head before either retires anything. The newer head must
    /// survive as the branch, and the older one be retired.
    #[test]
    fn concurrent_advances_of_one_branch_keep_the_newest_head() {
        use std::sync::{Arc, Barrier};
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(2, 9);
        let id0 = saver.save_initial(&env, &s).unwrap();
        let b = fork(&env, &id0, 0, "dev").unwrap();
        s.models[0].layers[0].data[0] += 1.0;
        let id1 = saver.save_set(&env, &s, Some(&deriv(&b.head))).unwrap();
        // Each advance waits after its commit until the other has
        // committed too. Both go to the same head, which is a valid
        // fast-forward whichever head the other's lookup finds.
        let both_committed = Arc::new(Barrier::new(2));
        let advanced: Vec<Branch> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (env, head, barrier) = (&env, &id1, Arc::clone(&both_committed));
                    s.spawn(move || {
                        let rendezvous = move || {
                            barrier.wait();
                        };
                        AFTER_COMMIT.with(|hook| *hook.borrow_mut() = Some(Box::new(rendezvous)));
                        advance(env, "dev", head).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let newest = advanced.iter().max_by_key(|b| b.doc_id).unwrap();
        assert_eq!(branch_by_name(&env, "dev").unwrap(), *newest);
        let docs = env.docs().find_eq(BRANCHES_COLLECTION, "branch", &json!("dev")).unwrap();
        let ids: Vec<u64> = docs.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![newest.doc_id], "every older head is retired");
        assert!(commit::is_committed(&env, &branch_commit_id(newest.doc_id)).unwrap());
    }

    #[test]
    fn delete_branch_is_idempotent_and_leaves_parent() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(3, 8);
        let id0 = saver.save_initial(&env, &s).unwrap();
        let b = fork(&env, &id0, 0, "scratch").unwrap();
        s.models[2].layers[0].data[0] += 1.0;
        let id1 = saver.save_set(&env, &s, Some(&deriv(&b.head))).unwrap();
        advance(&env, "scratch", &id1).unwrap();

        let r1 = delete_branch(&env, "scratch").unwrap();
        assert_eq!(r1.sets_deleted, 2);
        assert!(branch_by_name(&env, "scratch").is_err());
        assert!(saver.recover_set(&env, &id1).is_err());
        assert!(saver.recover_set(&env, &id0).is_ok(), "parent lineage untouched");

        let r2 = delete_branch(&env, "scratch").unwrap();
        assert_eq!(r2, BranchDeleteReport::default(), "replay is a no-op");
    }

    #[test]
    fn delete_stops_at_foreign_dependent() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let id0 = saver.save_initial(&env, &set(2, 9)).unwrap();
        let b = fork(&env, &id0, 0, "main2").unwrap();
        // A second branch forked *from main2's head* pins it.
        fork(&env, &b.head, 0, "sub").unwrap();
        let r = delete_branch(&env, "main2").unwrap();
        assert_eq!(r.stopped_on_dependent, Some(b.head.clone()));
        assert!(branch_by_name(&env, "main2").is_err(), "the name is gone regardless");
        assert!(saver.recover_set(&env, &b.head).is_ok(), "pinned set survives");
        // Once the sub-branch goes, a replayed delete finishes the job.
        delete_branch(&env, "sub").unwrap();
        // b.head itself is now unpinned but main2's docs are gone; it
        // remains as an anonymous set deletable via gc.
        gc::delete_set(&env, &b.head, false).unwrap();
    }
}
