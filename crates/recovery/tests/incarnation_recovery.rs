//! Regression tests for Lemma-1 totality under repeated crash/rollback
//! sessions — the incarnation-numbered-interval model.
//!
//! Before incarnation numbers, interval indices reused by a re-execution
//! aliased the indices of the abandoned attempt, and stale ("orphaned")
//! causal knowledge could block every stored checkpoint of a live process
//! in a later session. These tests pin the fixed behaviour:
//!
//! * knowledge of a dead incarnation never blocks a live checkpoint;
//! * the self-precedence guard holds across incarnations;
//! * exhausting a process's store is a hard [`RecoveryError`] for safe
//!   collectors and a reported degradation for the time-based baseline.

use rdt_base::{CheckpointIndex, DependencyVector, Incarnation, Payload, ProcessId};
use rdt_core::{CheckpointStore, GcKind};
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_recovery::{FaultySet, RecoveryError, RecoveryManager};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn idx(i: usize) -> CheckpointIndex {
    CheckpointIndex::new(i)
}

fn faulty(ids: &[usize]) -> FaultySet {
    ids.iter().map(|&i| p(i)).collect()
}

/// The orphaned-knowledge scenario that motivated the incarnation model.
///
/// `f` rolls back *below its last stable checkpoint* in a correlated
/// session (its recent checkpoint is blocked by the co-faulty `q`), so `r`'s
/// surviving knowledge of `f`'s interval 2 refers to a dead execution. In a
/// later session where `f` fails alone, that stale entry must not block
/// `r` — the raw interval aliases `f`'s re-executed live interval 2.
#[test]
fn dead_incarnation_knowledge_never_blocks_later_sessions() {
    let n = 3;
    let (q, f, r) = (p(0), p(1), p(2));
    // NoForced keeps the protocol out of the way: the point is the GC /
    // recovery interplay, and a forced checkpoint would split f's interval
    // before the q-dependency lands.
    let mut mws: Vec<Middleware> = (0..n)
        .map(|i| Middleware::new(p(i), n, ProtocolKind::NoForced, GcKind::RdtLgc))
        .collect();

    // q checkpoints s_q^1 and sends from its volatile interval 2.
    mws[0].basic_checkpoint().unwrap();
    let mq = mws[0].send(f, Payload::empty());

    // f checkpoints s_f^1, informs r from interval 2, then learns q's
    // volatile interval and checkpoints s_f^2 (now blocked by q's failure).
    mws[1].basic_checkpoint().unwrap();
    let mf = mws[1].send(r, Payload::empty());
    mws[1].receive(&mq).unwrap();
    mws[1].basic_checkpoint().unwrap();

    // r's volatile state knows f's interval 2 — and nothing of q.
    mws[2].receive(&mf).unwrap();
    assert_eq!(mws[2].dv().entry(f).value(), 2);
    assert_eq!(mws[2].dv().entry(q).value(), 0);

    // Correlated session: q and f fail together. s_f^2 depends on q's lost
    // volatile interval, so f rolls to s_f^1 — abandoning its interval 2,
    // which r's knowledge refers to. r itself is untouched.
    mws[0].crash();
    mws[1].crash();
    let report = RecoveryManager::new()
        .recover(&mut mws, &faulty(&[0, 1]))
        .expect("Lemma 1 total");
    assert_eq!(report.line, vec![idx(1), idx(1), idx(1)]);
    assert_eq!(mws[1].incarnation(), Incarnation::new(1));
    assert!(report.degraded.is_empty());
    // r survived with its stale (incarnation-0) knowledge of f intact.
    assert_eq!(mws[2].dv().lineage(f).interval().value(), 2);
    assert_eq!(mws[2].dv().lineage(f).incarnation(), Incarnation::ZERO);

    // Later session: f fails alone, with last stable s_f^1 in incarnation 1.
    // r's stale raw entry 2 > 1 would have blocked its volatile state (and
    // its stored s_r^0... every checkpoint recording f) under raw interval
    // comparison; the incarnation component marks it dead.
    mws[1].crash();
    let line = RecoveryManager::new()
        .recovery_line(&mws, &faulty(&[1]))
        .expect("Lemma 1 total");
    assert_eq!(
        line,
        vec![
            mws[0].last_stable().next(), // q keeps its volatile state
            idx(1),                      // f restores its last stable
            mws[2].last_stable().next(), // r keeps its volatile state
        ],
        "dead-incarnation knowledge must not block live states"
    );
    let report = RecoveryManager::new()
        .recover(&mut mws, &faulty(&[1]))
        .expect("Lemma 1 total");
    assert_eq!(report.rolled_back, vec![(f, idx(1))]);
    assert_eq!(mws[1].incarnation(), Incarnation::new(2));
}

/// Satellite regression: the `s_f^last` self-precedence guard across
/// incarnations. After two rollbacks onto the same checkpoint, the stored
/// copy of `f`'s last stable checkpoint was written in an incarnation two
/// generations older than the live one — it still must not read as its own
/// blocker, and the line component must be exactly the last stable.
#[test]
fn self_precedence_guard_holds_across_incarnations() {
    let n = 2;
    let f = p(0);
    let mut mws: Vec<Middleware> = (0..n)
        .map(|i| Middleware::new(p(i), n, ProtocolKind::Fdas, GcKind::RdtLgc))
        .collect();
    mws[0].basic_checkpoint().unwrap(); // s_f^1, stored in incarnation 0

    for round in 1..=3u32 {
        mws[0].crash();
        let line = RecoveryManager::new()
            .recovery_line(&mws, &faulty(&[0]))
            .expect("a process is never its own blocker");
        assert_eq!(
            line[0],
            mws[0].last_stable(),
            "round {round}: the faulty process restores its last stable"
        );
        let report = RecoveryManager::new()
            .recover(&mut mws, &faulty(&[0]))
            .unwrap();
        assert_eq!(report.rolled_back, vec![(f, idx(1))]);
        assert_eq!(mws[0].incarnation(), Incarnation::new(round));
        // The stored copy keeps its original incarnation; only the live
        // execution advances.
        assert_eq!(
            mws[0].store().lineage(0, f).incarnation(),
            Incarnation::ZERO
        );
    }
}

/// Builds a crashed middleware over a hand-crafted store whose every
/// checkpoint records dependencies on the faulty peer's live volatile
/// execution — the "store exhausted" shape.
fn exhausted_store_middleware(gc: GcKind) -> Middleware {
    let owner = p(1);
    let mut store = CheckpointStore::new(owner);
    // Both surviving checkpoints depend on p0's volatile intervals (> its
    // last stable 0) — earlier, f-ignorant checkpoints were "collected".
    store.insert(idx(1), DependencyVector::from_raw(vec![2, 1]));
    store.insert(idx(2), DependencyVector::from_raw(vec![3, 2]));
    Middleware::from_store(owner, 2, ProtocolKind::Fdas, gc, store)
}

/// Satellite regression: under a *safe* collector the oldest-survivor
/// fallback is gone — exhausting the store is a release-mode error.
#[test]
fn exhaustion_under_safe_collector_is_an_error() {
    let mut mws = vec![
        Middleware::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc),
        exhausted_store_middleware(GcKind::RdtLgc),
    ];
    mws[0].crash();
    let err = RecoveryManager::new()
        .recovery_line(&mws, &faulty(&[0, 1]))
        .unwrap_err();
    assert_eq!(
        err,
        RecoveryError::LineExhausted {
            process: p(1),
            gc: GcKind::RdtLgc,
        }
    );
    // recover() surfaces the same error instead of restoring an
    // inconsistent state...
    let err = RecoveryManager::new()
        .recover(&mut mws, &faulty(&[0, 1]))
        .unwrap_err();
    // ...and converts into the workspace error type for simulator plumbing.
    assert!(matches!(
        rdt_base::Error::from(err),
        rdt_base::Error::RecoveryLineExhausted { process } if process == p(1)
    ));
}

/// The time-based baseline keeps the graceful degradation: its safety rests
/// on real-time assumptions, and breaking them *is* the experiment. The
/// fallback is reported per process, not silent.
#[test]
fn exhaustion_under_time_based_collector_degrades_and_reports() {
    let mut mws = vec![
        Middleware::new(
            p(0),
            2,
            ProtocolKind::Fdas,
            GcKind::TimeBased { horizon: 10 },
        ),
        exhausted_store_middleware(GcKind::TimeBased { horizon: 10 }),
    ];
    mws[0].crash();
    let report = RecoveryManager::new()
        .recover(&mut mws, &faulty(&[0, 1]))
        .expect("time-based collectors degrade instead of erroring");
    assert_eq!(report.degraded, vec![p(1)]);
    assert_eq!(report.line[1], idx(1), "oldest survivor");
    assert!(!mws[1].is_crashed());
}
