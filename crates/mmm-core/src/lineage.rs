//! Lineage inspection for saved model sets.
//!
//! Update and Provenance sets form chains back to a full snapshot; this
//! module walks those chains (read-only) so tools can display or reason
//! about recovery cost before paying it.

use crate::approach::common;
use crate::env::ManagementEnv;
use crate::layout::{self, MmlibBatch, MMLIB_BASE};
use crate::model_set::ModelSetId;
use mmm_util::{Error, Result};
use serde_json::Value;

/// One link in a set's lineage chain.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageNode {
    /// The set's id.
    pub id: ModelSetId,
    /// `"full"`, `"diff"`, or `"prov"`.
    pub kind: String,
    /// Models in the set.
    pub n_models: usize,
    /// Changed layers (diff) or recorded updates (prov); 0 for full.
    pub n_changes: usize,
}

/// The set documents of `id`'s chain, from the requested set back to
/// the full snapshot it bottoms out in, each read once.
pub(crate) fn chain_docs(env: &ManagementEnv, id: &ModelSetId) -> Result<Vec<(u64, Value)>> {
    let start = common::doc_id_of(id)?;
    let walked = common::walk(env, start, |_| false, |doc| Ok(doc.clone()))?;
    let mut nodes = walked.chain;
    nodes.extend(walked.full.map(|doc| (walked.end, doc)));
    Ok(nodes)
}

/// Walk a set's lineage from the requested set back to its full
/// snapshot. The first element is the requested set; the last is the
/// full snapshot it bottoms out in. Baseline and MMlib-base sets have a
/// single-node lineage. Costs one document read per node.
pub fn lineage(env: &ManagementEnv, id: &ModelSetId) -> Result<Vec<LineageNode>> {
    if id.approach == MMLIB_BASE {
        // Per-model storage; the set is self-contained by construction.
        return Ok(vec![LineageNode {
            id: id.clone(),
            kind: "full".into(),
            n_models: MmlibBatch::parse(&id.key)?.count,
            n_changes: 0,
        }]);
    }
    let node = |(doc_id, doc): (u64, Value)| {
        let kind = doc
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::corrupt("set document without kind"))?;
        let n_changes = doc.get("n_changed_layers").or_else(|| doc.get("n_updates"));
        Ok(LineageNode {
            id: layout::set_id(&id.approach, doc_id),
            kind: kind.to_string(),
            n_models: doc.get("n_models").and_then(Value::as_u64).unwrap_or(0) as usize,
            n_changes: n_changes.and_then(Value::as_u64).unwrap_or(0) as usize,
        })
    };
    chain_docs(env, id)?.into_iter().map(node).collect()
}

/// The recovery depth of a set: how many derived levels sit between it
/// and its full snapshot (0 for a full save).
pub fn recovery_depth(env: &ManagementEnv, id: &ModelSetId) -> Result<usize> {
    Ok(lineage(env, id)?.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::{ModelSetSaver, UpdateSaver};
    use crate::model_set::{Derivation, ModelSet};
    use mmm_dnn::{Architectures, TrainConfig};
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n).map(|i| arch.build(seed + i as u64).export_param_dict()).collect();
        ModelSet::new(arch, models)
    }

    #[test]
    fn chain_depth_tracks_saves() {
        let dir = TempDir::new("mmm-lineage").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let mut saver = UpdateSaver::new();
        let mut s = set(4, 0);
        let id0 = saver.save_initial(&env, &s).unwrap();
        assert_eq!(recovery_depth(&env, &id0).unwrap(), 0);

        for v in &mut s.models[0].layers[0].data {
            *v += 1.0;
        }
        let d = Derivation {
            base: id0.clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        let id1 = saver.save_set(&env, &s, Some(&d)).unwrap();
        assert_eq!(recovery_depth(&env, &id1).unwrap(), 1);

        let (chain, m) = env.measure(|| lineage(&env, &id1).unwrap());
        assert_eq!(chain.len(), 2);
        assert_eq!(
            m.stats.doc_queries,
            chain.len() as u64,
            "one document read per node"
        );
        assert_eq!(m.stats.total_ops(), m.stats.doc_queries, "and nothing else");
        assert_eq!(chain[0].kind, "diff");
        assert_eq!(chain[0].n_changes, 1);
        assert_eq!(chain[1].kind, "full");
        assert_eq!(chain[1].id, id0);
    }

    #[test]
    fn empty_set_has_a_single_node_lineage() {
        // A fleet can legitimately archive an empty set (all models
        // retired); the chain walk must not choke on zero models.
        let dir = TempDir::new("mmm-lineage").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let empty = ModelSet::new(Architectures::ffnn(6), vec![]);
        let id = UpdateSaver::new().save_initial(&env, &empty).unwrap();
        let chain = lineage(&env, &id).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].kind, "full");
        assert_eq!(chain[0].n_models, 0);
        assert_eq!(recovery_depth(&env, &id).unwrap(), 0);
    }

    #[test]
    fn missing_set_errors_cleanly_not_panics() {
        let dir = TempDir::new("mmm-lineage").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let ghost = ModelSetId { approach: "update".into(), key: "404".into() };
        assert!(lineage(&env, &ghost).is_err());
    }

    #[test]
    fn depth_zero_fork_adds_one_empty_link() {
        // Forking at the head itself (at_version = 0) must produce a
        // two-node chain whose new head records zero changes.
        let dir = TempDir::new("mmm-lineage").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let mut saver = UpdateSaver::new();
        let s = set(3, 20);
        let id0 = saver.save_initial(&env, &s).unwrap();
        let b = crate::branch::fork(&env, &id0, 0, "edge0").unwrap();
        let chain = lineage(&env, &b.head).unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].kind, "diff");
        assert_eq!(chain[0].n_changes, 0, "a fork changes nothing");
        assert_eq!(chain[1].id, id0);
        assert_eq!(recovery_depth(&env, &b.head).unwrap(), 1);
        assert_eq!(saver.recover_set(&env, &b.head).unwrap(), s);
    }

    #[test]
    fn fork_of_fork_walks_through_both_empty_links() {
        let dir = TempDir::new("mmm-lineage").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let mut saver = UpdateSaver::new();
        let s = set(2, 21);
        let id0 = saver.save_initial(&env, &s).unwrap();
        let b1 = crate::branch::fork(&env, &id0, 0, "edge1").unwrap();
        let b2 = crate::branch::fork(&env, &b1.head, 0, "edge2").unwrap();
        let chain = lineage(&env, &b2.head).unwrap();
        assert_eq!(chain.len(), 3);
        assert!(chain[..2].iter().all(|n| n.kind == "diff" && n.n_changes == 0));
        assert_eq!(chain[2].id, id0);
        // Recovery replays two empty diffs onto the snapshot — still
        // bit-identical to the original.
        assert_eq!(saver.recover_set(&env, &b2.head).unwrap(), s);
        // And a fork *behind* a fork-of-fork resolves to the mid node.
        let b3 = crate::branch::fork(&env, &b2.head, 1, "edge3").unwrap();
        assert_eq!(b3.root, b1.head.key);
    }

    #[test]
    fn mmlib_lineage_is_single_node() {
        let dir = TempDir::new("mmm-lineage").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let id = ModelSetId { approach: "mmlib-base".into(), key: "0:12".into() };
        let chain = lineage(&env, &id).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].n_models, 12);
    }
}
