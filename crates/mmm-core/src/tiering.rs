//! Hot/cold tiering policy over archived sets.
//!
//! [`mmm_store::TieredStore`] provides the *mechanism* — per-key
//! demotion and promotion between a fast hot tier and a slow
//! "object store" cold tier. This module provides the *policy*: which
//! sets' blobs belong on which tier. The rule mirrors how chains are
//! actually recovered — the newest versions are touched constantly
//! (fleet tips, rollback candidates), while links deep in a version
//! chain matter only when a rare deep re-derivation walks through them.
//!
//! [`demote_old_sets`] therefore keeps the most recent `keep_hot`
//! history entries hot and moves every older set's blobs cold;
//! [`promote_set`] pulls one set's blobs back ahead of a planned deep
//! recovery. Both are cheap no-ops for blobs already on the right tier,
//! so the sweep is safe to re-run after every save (like a retention
//! sweep).

use crate::env::ManagementEnv;
use crate::layout::SetLayout;
use crate::model_set::ModelSetId;
use mmm_store::{StorageTier, TieredStore};
use mmm_util::{Error, Result};

/// What one tiering sweep did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierReport {
    /// Sets whose blobs were moved to the cold tier this sweep.
    pub demoted: Vec<ModelSetId>,
    /// Blob bytes moved hot → cold this sweep.
    pub bytes_demoted: u64,
    /// Individual blobs moved hot → cold this sweep.
    pub blobs_demoted: usize,
}

/// The tiered store; on plain or CAS there is no cold tier to move to.
fn tiered(env: &ManagementEnv) -> Result<&TieredStore> {
    env.tiered()
        .ok_or_else(|| Error::invalid("tiering requires the 'tiered' storage backend"))
}

/// Move every blob of set `id` that sits on tier `from` to the other
/// tier, retrying transient faults. Returns `(blobs moved, bytes moved)`.
fn move_set(
    env: &ManagementEnv,
    tiered: &TieredStore,
    id: &ModelSetId,
    from: StorageTier,
) -> Result<(usize, u64)> {
    let (mut blobs, mut bytes) = (0usize, 0u64);
    for key in SetLayout::of(id)?.list_blobs(env)? {
        if tiered.tier_of(&key) != Some(from) {
            continue;
        }
        bytes += env.blobs().size(&key)?;
        env.with_retry(|| match from {
            StorageTier::Hot => tiered.demote(&key),
            StorageTier::Cold => tiered.promote(&key),
        })?;
        blobs += 1;
    }
    Ok((blobs, bytes))
}

/// Demote every set older than the most recent `keep_hot` history
/// entries: all their blobs move to the cold tier (a charged cold-tier
/// put per blob — the cross-tier transfer). Blobs already cold are
/// skipped, so re-running after each save only pays for newly aged-out
/// sets. `history` is ordered oldest-first, as kept by the CLI and the
/// fleet frontend.
///
/// Requires the `tiered` backend ([`Error::Invalid`] otherwise — on
/// plain or CAS there is no cold tier to demote to).
pub fn demote_old_sets(
    env: &ManagementEnv,
    history: &[ModelSetId],
    keep_hot: usize,
) -> Result<TierReport> {
    let tiered = tiered(env)?;
    let mut report = TierReport::default();
    for id in &history[..history.len().saturating_sub(keep_hot)] {
        let (blobs, bytes) = move_set(env, tiered, id, StorageTier::Hot)?;
        report.blobs_demoted += blobs;
        report.bytes_demoted += bytes;
        if blobs > 0 {
            report.demoted.push(id.clone());
        }
    }
    Ok(report)
}

/// Promote every blob of one set back to the hot tier (a charged
/// cold-tier get per blob), e.g. ahead of a planned deep recovery or a
/// rollback to an old version. Blobs already hot are skipped. Returns
/// `(blobs promoted, bytes promoted)`.
pub fn promote_set(env: &ManagementEnv, id: &ModelSetId) -> Result<(usize, u64)> {
    move_set(env, tiered(env)?, id, StorageTier::Cold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::{BaselineSaver, MmlibBaseSaver, ModelSetSaver};
    use crate::model_set::ModelSet;
    use mmm_dnn::Architectures;
    use mmm_store::{LatencyProfile, StorageBackend, StorageTier};
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(4);
        let models = (0..n).map(|i| arch.build(seed + i as u64).export_param_dict()).collect();
        ModelSet::new(arch, models)
    }

    fn tiered_env(dir: &TempDir) -> ManagementEnv {
        ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .backend(StorageBackend::Tiered)
            .open()
            .unwrap()
    }

    #[test]
    fn sweep_demotes_only_aged_out_sets_and_recovery_still_works() {
        let dir = TempDir::new("mmm-tiering").unwrap();
        let env = tiered_env(&dir);
        let mut saver = BaselineSaver::new();
        let sets: Vec<ModelSet> = (0..4).map(|i| set(3, 10 * i as u64)).collect();
        let history: Vec<ModelSetId> =
            sets.iter().map(|s| saver.save_initial(&env, s).unwrap()).collect();

        let report = demote_old_sets(&env, &history, 2).unwrap();
        assert_eq!(report.demoted, history[..2].to_vec());
        assert!(report.blobs_demoted >= 2, "params blob per demoted set");
        assert!(report.bytes_demoted > 0);

        let tiered = env.tiered().unwrap();
        let old_key = format!("baseline/{}/params.bin", history[0].key);
        let new_key = format!("baseline/{}/params.bin", history[3].key);
        assert_eq!(tiered.tier_of(&old_key), Some(StorageTier::Cold));
        assert_eq!(tiered.tier_of(&new_key), Some(StorageTier::Hot));

        // Demoted sets recover bit-identically (just slower in sim time).
        assert_eq!(saver.recover_set(&env, &history[0]).unwrap(), sets[0]);

        // Re-running the sweep is a no-op.
        let again = demote_old_sets(&env, &history, 2).unwrap();
        assert_eq!(again, TierReport::default());

        // An MMlib-base set is one more input: its per-model blobs move,
        // the catalog shows them cold, and it recovers bit-identically.
        let mut mmlib = MmlibBaseSaver::new();
        let id = mmlib.save_initial(&env, &sets[0]).unwrap();
        let stored = |id: &ModelSetId| {
            let listed = crate::catalog::list_sets(&env).unwrap();
            listed.iter().find(|s| &s.id == id).unwrap().bytes_stored
        };
        let bytes = stored(&id);
        assert!(bytes.total > 0 && bytes.cold == 0, "{bytes:?}");
        let report = demote_old_sets(&env, std::slice::from_ref(&id), 0).unwrap();
        assert_eq!(report.demoted, vec![id.clone()]);
        assert_eq!(
            report.blobs_demoted,
            3 * sets[0].len(),
            "params, code, env per model"
        );
        assert_eq!(report.bytes_demoted, bytes.total);
        assert_eq!(
            tiered.tier_of("mmlib/m0/params.pt"),
            Some(StorageTier::Cold)
        );
        assert_eq!((stored(&id).hot, stored(&id).cold), (0, bytes.total));
        assert_eq!(mmlib.recover_set(&env, &id).unwrap(), sets[0]);
        assert_eq!(
            promote_set(&env, &id).unwrap(),
            (report.blobs_demoted, bytes.total)
        );
        assert_eq!(stored(&id).cold, 0);
        assert_eq!(mmlib.recover_set(&env, &id).unwrap(), sets[0]);
    }

    #[test]
    fn promote_restores_the_hot_tier() {
        let dir = TempDir::new("mmm-tiering").unwrap();
        let env = tiered_env(&dir);
        let mut saver = BaselineSaver::new();
        let s = set(2, 99);
        let id = saver.save_initial(&env, &s).unwrap();
        demote_old_sets(&env, std::slice::from_ref(&id), 0).unwrap();
        let key = format!("baseline/{}/params.bin", id.key);
        assert_eq!(env.tiered().unwrap().tier_of(&key), Some(StorageTier::Cold));
        let (blobs, bytes) = promote_set(&env, &id).unwrap();
        assert!(blobs >= 1);
        assert!(bytes > 0);
        assert_eq!(env.tiered().unwrap().tier_of(&key), Some(StorageTier::Hot));
        assert_eq!(saver.recover_set(&env, &id).unwrap(), s);
        // Promoting a hot set is a no-op.
        assert_eq!(promote_set(&env, &id).unwrap(), (0, 0));
    }

    #[test]
    fn tiering_on_a_plain_backend_is_invalid() {
        let dir = TempDir::new("mmm-tiering").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let id = ModelSetId { approach: "baseline".into(), key: "0".into() };
        assert!(matches!(
            demote_old_sets(&env, std::slice::from_ref(&id), 0),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(promote_set(&env, &id), Err(Error::Invalid(_))));
    }
}
