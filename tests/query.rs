//! Property tests of the model-lake query engine.
//!
//! Two laws pin the API redesign:
//!
//! 1. `query "true"` is the catalog: for arbitrary environment
//!    populations (baseline saves, update chains, mmlib batches) the
//!    trivial query returns exactly the sets `catalog::list_sets`
//!    reports, with agreeing metadata.
//! 2. Printing round-trips: every expression the parser can represent
//!    prints (`Display`) to a string that parses back to an equal AST.
//! 3. A probe is a filtered scan: `tag:T and e` / `branch:B and e`,
//!    answered by fetching the probe's candidates by id, return exactly
//!    what evaluating the same expression over the whole catalogue does.

use mmm::core::approach::{
    ApproachSpec, BaselineSaver, MmlibBaseSaver, ModelSetSaver, UpdateSaver, SETS_COLLECTION,
};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::{Derivation, ModelSet, ModelSetId};
use mmm::core::query::{CmpOp, Expr, NumField, Query, QueryOutput, StrField};
use mmm::core::{branch, catalog, commit, gc, query, tags};
use mmm::dnn::{ArchitectureSpec, Architectures, TrainConfig};
use mmm::store::LatencyProfile;
use mmm::util::{Rng, SplitMix64, TempDir};
use proptest::prelude::*;

fn small_set(arch: &ArchitectureSpec, seed: u64, n_models: usize) -> ModelSet {
    let models =
        (0..n_models).map(|i| arch.build(seed ^ i as u64).export_param_dict()).collect();
    ModelSet::new(arch.clone(), models)
}

/// Build a random expression from a seeded generator. Pools cover the
/// printing edge cases: values needing quoting (spaces, empty, unicode),
/// numeric names with and without leading zeros, and keyword-shaped
/// names (`true`).
fn arb_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    const STRS: &[&str] = &["full", "diff", "a b", "x-1", "", "Ünïcode"];
    const NAMES: &[&str] = &["prod", "a b", "123", "0123", "v1.2-rc", "true", ""];
    const IDS: &[(&str, &str)] =
        &[("update", "1"), ("baseline", "42"), ("mmlib-base", "0:3"), ("provenance", "head")];
    let pick = |rng: &mut SplitMix64, n: usize| rng.below(n as u64) as usize;
    let set_id = |rng: &mut SplitMix64| {
        let (a, k) = IDS[pick(rng, IDS.len())];
        ModelSetId { approach: a.into(), key: k.into() }
    };
    let arms = if depth == 0 { 8 } else { 11 };
    match rng.below(arms) {
        0 => Expr::True,
        1 => Expr::False,
        2 => Expr::StrCmp {
            field: [StrField::Kind, StrField::Approach, StrField::Key, StrField::Base]
                [pick(rng, 4)],
            negated: rng.below(2) == 0,
            value: STRS[pick(rng, STRS.len())].to_string(),
        },
        3 => Expr::NumCmp {
            field: [NumField::NModels, NumField::Depth, NumField::Bytes][pick(rng, 3)],
            op: [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                [pick(rng, 6)],
            value: rng.below(1_000_000),
        },
        4 => Expr::Tag(NAMES[pick(rng, NAMES.len())].to_string()),
        5 => Expr::Branch(NAMES[pick(rng, NAMES.len())].to_string()),
        6 => Expr::DescendantOf(set_id(rng)),
        7 => Expr::SimilarTo(set_id(rng), rng.below(1001) as f64 / 1000.0),
        8 => Expr::Not(Box::new(arb_expr(rng, depth - 1))),
        9 => Expr::And(
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        ),
        _ => Expr::Or(
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        ),
    }
}

fn set_id(approach: &str, key: &str) -> ModelSetId {
    ModelSetId {
        approach: approach.into(),
        key: key.into(),
    }
}

/// Archive a chain of `versions` sets with `saver`, each derived from
/// the one before. Returns the ids, oldest first.
fn save_chain(
    env: &ManagementEnv,
    saver: &mut dyn ModelSetSaver,
    arch: &ArchitectureSpec,
    seed: u64,
    versions: usize,
) -> Vec<ModelSetId> {
    let mut set = small_set(arch, seed, 2);
    let mut ids = vec![saver.save_initial(env, &set).unwrap()];
    for v in 1..versions {
        set.models[v % 2].layers[0].data[0] += 1.0;
        let d = Derivation {
            base: ids[v - 1].clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        ids.push(saver.save_set(env, &set, Some(&d)).unwrap());
    }
    ids
}

/// The tag and branch names the random expressions draw from.
const TAGS: &[&str] = &["prod", "a b", "123", "0123", "v1.2-rc", "true", ""];
const BRANCHES: &[&str] = &["prod", "123", "v1.2-rc", "a b", "ghost"];

/// A lake mixing all four approaches, a `snapshot-every` chain, forks
/// (one advanced, one of a fork), a chain with a decommitted middle
/// node and phase-one debris, with tags on live, deleted,
/// never-committed, debris, MMlib-base, branch-head and malformed ids.
/// Returns the tip of the chain with the decommitted middle node.
fn mixed_lake(env: &ManagementEnv, rng: &mut SplitMix64) -> ModelSetId {
    let arch = Architectures::ffnn(4);
    let seed = rng.next_u64();
    // Document 1 is an update set, so `similar-to(update:1, t)` and
    // `descendant-of(update:1)` of `arb_expr` have something to find.
    let chain = save_chain(env, &mut UpdateSaver::new(), &arch, seed, 4);
    let baseline = save_chain(env, &mut BaselineSaver::new(), &arch, seed ^ 1, 2);
    let mut snapshots = ApproachSpec::parse("update:snapshot-every=2")
        .unwrap()
        .build();
    let snap = save_chain(env, snapshots.as_mut(), &arch, seed ^ 2, 5);
    let mut provenance = ApproachSpec::parse("provenance").unwrap().build();
    let prov = save_chain(env, provenance.as_mut(), &arch, seed ^ 3, 3);
    let mmlib: Vec<ModelSetId> = [3usize, 2]
        .iter()
        .map(|&n| {
            MmlibBaseSaver::new()
                .save_initial(env, &small_set(&arch, seed ^ n as u64, n))
                .unwrap()
        })
        .collect();
    assert_eq!(mmlib[0], set_id("mmlib-base", "0:3"));

    // Forks: at the head, two versions back, and of a fork; `prod` then
    // advances by one save.
    let prod = branch::fork(env, &chain[3], 0, "prod").unwrap();
    branch::fork(env, &chain[3], 2, "v1.2-rc").unwrap();
    let sub = branch::fork(env, &prod.head, 0, "123").unwrap();
    let mut on_prod = small_set(&arch, seed, 2);
    on_prod.models[0].layers[0].data[0] -= 3.0;
    let d = Derivation {
        base: prod.head.clone(),
        train: TrainConfig::regression_default(0),
        updates: vec![],
    };
    let advanced = UpdateSaver::new()
        .save_set(env, &on_prod, Some(&d))
        .unwrap();
    branch::advance(env, "prod", &advanced).unwrap();

    // A chain whose middle node loses its commit record (a hop onto
    // debris), a phase-one document that never committed, and a
    // deleted set.
    let holed = save_chain(env, &mut UpdateSaver::new(), &arch, seed ^ 4, 3);
    commit::decommit(env, &holed[1]).unwrap();
    let debris = serde_json::json!({"approach": "update", "kind": "diff", "n_models": 2, "base": chain[3].key});
    let debris = set_id(
        "update",
        &env.docs()
            .insert(SETS_COLLECTION, debris)
            .unwrap()
            .to_string(),
    );
    gc::delete_set(env, &baseline[1], false).unwrap();

    let mut live: Vec<ModelSetId> =
        [&chain[..], &baseline[..1], &snap[..], &prov[..], &mmlib[..]].concat();
    live.extend([
        prod.head,
        sub.head,
        advanced,
        holed[0].clone(),
        holed[2].clone(),
    ]);
    for id in &live {
        for _ in 0..rng.below(3) {
            tags::tag_set(env, id, TAGS[rng.below(TAGS.len() as u64) as usize]).unwrap();
        }
    }
    let strays = [
        baseline[1].clone(),         // deleted
        holed[1].clone(),            // decommitted
        debris,                      // never committed
        set_id("update", "999"),     // never existed
        set_id("update", "01"),      // a live document, misspelt
        set_id("mmlib-base", "0:2"), // no such batch
        set_id("mmlib-base", "0:99999999999"),
        set_id("branch", "0"),               // a committed pair that is no set
        set_id("provenance", &chain[0].key), // a live document of another approach
    ];
    for id in &strays {
        tags::tag_set(env, id, TAGS[rng.below(TAGS.len() as u64) as usize]).unwrap();
        tags::tag_set(env, id, "prod").unwrap();
    }
    holed[2].clone()
}

/// Whether `r` carries the tag or sits on the branch a probe label
/// (`tag:<name>` / `branch:<name>`) names.
fn carries(r: &query::SetRecord, label: &str) -> bool {
    match label.split_once(':').expect("a probe label") {
        ("tag", name) => r.tags.iter().any(|t| t == name),
        ("branch", name) => r.branches.iter().any(|b| b == name),
        other => panic!("unknown probe {other:?}"),
    }
}

/// Check one probe query against the scan it replaces. `probe` is the
/// top-level conjunct the planner turns into an index probe; wrapping
/// the whole expression in a double negation keeps its meaning and
/// hides every conjunct from the planner.
fn assert_probe_is_filtered_scan(env: &ManagementEnv, full: &QueryOutput, probe: Expr, e: &Expr) {
    let label = match &probe {
        Expr::Tag(t) => format!("tag:{t}"),
        Expr::Branch(b) => format!("branch:{b}"),
        other => panic!("{other} is not a probe"),
    };
    let expr = Expr::And(Box::new(probe), Box::new(e.clone()));
    let hidden = Expr::Not(Box::new(Expr::Not(Box::new(expr.clone()))));
    let probed = Query::from_expr(expr.clone()).run(env);
    let scanned = Query::from_expr(hidden).run(env);
    let (probed, scanned) = match (probed, scanned) {
        (Ok(p), Ok(s)) => (p, s),
        // E.g. a `similar-to` reference without a hash table.
        (Err(_), Err(_)) => return,
        (p, s) => panic!(
            "`{expr}`: probe {:?} but scan {:?}",
            p.map(|_| ()),
            s.map(|_| ())
        ),
    };
    // `e` may add probes of its own; the one under test comes first.
    assert_eq!(probed.probes[0], label);
    assert!(
        scanned.probes.is_empty(),
        "the double negation must force a scan"
    );
    assert_eq!(scanned.scanned, full.records.len());
    assert_eq!(
        probed.records, scanned.records,
        "`{expr}`: probed records or their order differ from the scan's"
    );
    let candidate = |r: &&query::SetRecord| probed.probes.iter().all(|p| carries(r, p));
    assert_eq!(
        probed.scanned,
        full.records.iter().filter(candidate).count(),
        "`{expr}`: scanned must count the catalogued candidates"
    );
    // The scan's records are `true`'s, filtered, in `true`'s order.
    let mut rest = full.records.iter();
    for r in &scanned.records {
        assert!(carries(r, &label), "{} does not carry {label}", r.id);
        let row = rest
            .find(|row| row.id == r.id)
            .expect("a record of `true`, in its order");
        assert_eq!(
            query::SetRecord {
                similarity: None,
                ..r.clone()
            },
            *row
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Law 3: a probe is a filtered scan. Over a lake mixing everything
    /// the catalogue can hold, for random `T`, `B` and `e`,
    /// `tag:T and e` and `branch:B and e` return exactly the records the
    /// same expression selects from the whole catalogue, in the same
    /// order, having joined only the catalogued candidates.
    #[test]
    fn a_probe_is_a_filtered_scan(seed in any::<u64>()) {
        let dir = TempDir::new("prop-query-probe").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let mut rng = SplitMix64::new(seed);
        let holed_tip = mixed_lake(&env, &mut rng);
        let full = query::run(&env, "true").unwrap();
        prop_assert_eq!(full.records.len(), 21);
        let depth_of = |key: &str| full.records.iter().find(|r| r.id.key == key).map(|r| r.depth);
        for _ in 0..16 {
            let depth = rng.below(3) as usize;
            let e = arb_expr(&mut rng, depth);
            let tag = TAGS[rng.below(TAGS.len() as u64) as usize];
            assert_probe_is_filtered_scan(&env, &full, Expr::Tag(tag.into()), &e);
            let name = BRANCHES[rng.below(BRANCHES.len() as u64) as usize];
            assert_probe_is_filtered_scan(&env, &full, Expr::Branch(name.into()), &e);
        }
        // The lake holds what the law is about: a probe that needs a
        // lineage walk over fetched ancestors, and one that steps onto
        // debris (the hop counts, then the walk stops).
        let prod = branch::branch_by_name(&env, "prod").unwrap();
        prop_assert_eq!(prod.nodes.len(), 2);
        prop_assert_eq!(depth_of(&prod.head.key), Some(5));
        prop_assert_eq!(depth_of(&holed_tip.key), Some(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Law 1: `query "true"` returns exactly the catalog — baseline
    /// saves, update chains, and grouped mmlib batches alike — with
    /// kind and model counts agreeing row for row.
    #[test]
    fn query_true_is_the_catalog(
        n_baseline in 0usize..3,
        chain in 0usize..3,
        batches in proptest::collection::vec(1usize..4, 0..3),
        seed in any::<u64>(),
    ) {
        let dir = TempDir::new("prop-query").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let arch = Architectures::ffnn(4);

        for i in 0..n_baseline {
            BaselineSaver::new()
                .save_initial(&env, &small_set(&arch, seed ^ i as u64, 2))
                .unwrap();
        }
        if chain > 0 {
            let mut saver = UpdateSaver::new();
            let mut set = small_set(&arch, seed ^ 0x77, 2);
            let mut id = saver.save_initial(&env, &set).unwrap();
            tags::tag_set(&env, &id, "chain-root").unwrap();
            for _ in 1..chain {
                set.models[0].layers[0].data[0] += 1.0;
                let d = Derivation {
                    base: id.clone(),
                    train: TrainConfig::regression_default(0),
                    updates: vec![],
                };
                id = saver.save_set(&env, &set, Some(&d)).unwrap();
            }
        }
        for (bi, n) in batches.iter().enumerate() {
            MmlibBaseSaver::new()
                .save_initial(&env, &small_set(&arch, seed ^ (0x1000 + bi as u64), *n))
                .unwrap();
        }

        let summaries = catalog::list_sets(&env).unwrap();
        let out = query::run(&env, "true").unwrap();
        let mut listed: Vec<String> = summaries.iter().map(|s| s.id.to_string()).collect();
        let mut queried: Vec<String> = out.records.iter().map(|r| r.id.to_string()).collect();
        listed.sort();
        queried.sort();
        prop_assert_eq!(&queried, &listed);
        prop_assert_eq!(out.scanned, summaries.len());
        for s in &summaries {
            let r = out.records.iter().find(|r| r.id == s.id).unwrap();
            prop_assert_eq!(r.kind, s.kind);
            prop_assert_eq!(r.n_models, s.n_models);
            prop_assert_eq!(r.bytes_stored, s.bytes_stored);
        }
        // The tag probe narrows the scan and agrees with the tag index.
        if chain > 0 {
            let probed = query::run(&env, "tag:chain-root").unwrap();
            prop_assert_eq!(probed.records.len(), 1);
            prop_assert_eq!(probed.scanned, 1, "tag probe must narrow the scan");
        }
    }

    /// Law 2: whatever the AST, `Display` prints a string the parser
    /// maps back to an equal AST — parenthesization, quoting, and
    /// numeric names included.
    #[test]
    fn every_expression_round_trips_display_then_parse(
        seed in any::<u64>(),
        depth in 0usize..4,
    ) {
        let mut rng = SplitMix64::new(seed);
        let expr = arb_expr(&mut rng, depth);
        let printed = format!("{expr}");
        let back = Query::parse(&printed);
        prop_assert!(back.is_ok(), "`{}` failed to re-parse: {:?}", printed, back.err());
        let back = back.unwrap();
        prop_assert_eq!(
            back.expr(),
            &expr,
            "`{}` re-parsed to a different AST",
            printed
        );
    }
}
