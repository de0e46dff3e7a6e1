//! Property tests for the serving plane.
//!
//! 1. Cache transparency: for any interleaving of queries and
//!    epoch-advancing ingestions, the result-cache path answers
//!    byte-identically to direct (uncached) `Query::run`. The cache may
//!    only change *when* a result is computed, never *what* it is.
//! 2. Retry termination: for any sequence of server backoff hints, the
//!    client's cumulative sleep stays under the policy cap and every
//!    individual sleep is strictly positive (a `0` hint can't busy-loop).
//! 3. Decoder hostility: every serving-plane decoder answers arbitrary,
//!    truncated, or bit-flipped bytes with a typed error — never a panic.

use mssg_core::ingest::{ingest, IngestOptions};
use mssg_core::{BackendKind, BackendOptions, MssgCluster};
use mssg_serve::{Failure, FailureKind, Query, Reject, ResponseBody, ResultCache, RetryPolicy};
use mssg_types::{Edge, Gid, GraphStorageError};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    // Each case runs real ingestions; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 8 })]

    #[test]
    fn cached_and_uncached_results_agree_across_random_epochs(
        seed in any::<u64>(),
        picks in prop::collection::vec((0u64..16, 0u32..4), 4..24),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "serve-props-{}-{seed:x}-{}", std::process::id(), picks.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        ingest(
            &mut cluster,
            (0..12).map(|i| Edge::of(i, i + 1)),
            &IngestOptions::default(),
        )
        .unwrap();
        let mut cache = ResultCache::new(16);
        for (step, &(v, shape)) in picks.iter().enumerate() {
            // Every 5th step is an epoch-advancing ingestion of one new
            // seed-derived edge, so queries run across several epochs.
            if step % 5 == 4 {
                let a = (seed.wrapping_mul(step as u64 + 1)) % 12;
                ingest(
                    &mut cluster,
                    std::iter::once(Edge::of(a, 20 + step as u64)),
                    &IngestOptions::default(),
                )
                .unwrap();
            }
            let query = match shape {
                0 => Query::Degree { vertex: Gid::new(v) },
                1 => Query::KHop { source: Gid::new(v), k: (v % 3) as u32 },
                2 => Query::Bfs { source: Gid::new(v), dest: Gid::new((v * 7) % 16) },
                _ => Query::Components,
            };
            let uncached = query.run(&cluster).unwrap();
            let epoch = cluster.epoch();
            let key = query.encode();
            let via_cache = match cache.get(epoch, &key) {
                Some(hit) => hit.to_string(),
                None => {
                    let computed = query.run(&cluster).unwrap();
                    cache.insert(epoch, &key, &computed);
                    computed
                }
            };
            prop_assert_eq!(
                &via_cache, &uncached,
                "step {} epoch {} {:?}", step, epoch, query
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Any well-formed query, its ids drawn from the whole 61-bit id space.
fn arb_query() -> impl Strategy<Value = Query> {
    prop_oneof![
        (0..=Gid::MAX.raw(), 0..=Gid::MAX.raw()).prop_map(|(s, d)| Query::Bfs {
            source: Gid::new(s),
            dest: Gid::new(d),
        }),
        (0..=Gid::MAX.raw(), any::<u32>()).prop_map(|(s, k)| Query::KHop {
            source: Gid::new(s),
            k,
        }),
        (0..=Gid::MAX.raw()).prop_map(|v| Query::Degree {
            vertex: Gid::new(v),
        }),
        Just(Query::Components),
    ]
}

/// Any failure: every kind, any message.
fn arb_failure() -> impl Strategy<Value = Failure> {
    (
        prop_oneof![
            Just(FailureKind::Storage),
            Just(FailureKind::Invalid),
            Just(FailureKind::Engine),
            Just(FailureKind::Panicked),
        ],
        prop::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(kind, text)| Failure {
            kind,
            message: String::from_utf8_lossy(&text).into_owned(),
        })
}

fn assert_typed(outcome: mssg_types::Result<()>, what: &str) -> Result<(), TestCaseError> {
    if let Err(e) = outcome {
        prop_assert!(
            matches!(
                e,
                GraphStorageError::Corrupt(_) | GraphStorageError::Unsupported(_)
            ),
            "{} decoder answered an untyped error: {:?}",
            what,
            e
        );
    }
    Ok(())
}

proptest! {
    // Satellite: retry backoff termination. The policy's pure `backoff`
    // is the entire sleep decision, so sweeping it proves the client
    // loop's bounds for any reject sequence the server could emit.
    #[test]
    fn retry_backoff_is_positive_and_cumulatively_bounded(
        attempts in 1u32..8,
        min_ms in 0u64..50,
        cap_ms in 0u64..2000,
        hints in prop::collection::vec(any::<u32>(), 1..32),
    ) {
        let policy = RetryPolicy {
            attempts,
            min_backoff: Duration::from_millis(min_ms),
            max_total_backoff: Duration::from_millis(cap_ms),
        };
        let mut waited = Duration::ZERO;
        for &hint in &hints {
            match policy.backoff(hint, waited) {
                Some(pause) => {
                    // A 0ms hint (or 0ms min_backoff) still sleeps: the
                    // retry loop can never spin on a hot server.
                    prop_assert!(pause > Duration::ZERO, "hint {} slept 0", hint);
                    waited += pause;
                    prop_assert!(
                        waited <= policy.max_total_backoff,
                        "cumulative sleep {:?} past the {:?} cap",
                        waited,
                        policy.max_total_backoff
                    );
                }
                None => {
                    // Refusal happens exactly when the budget is spent,
                    // and it is sticky: no later hint revives the loop.
                    prop_assert!(waited >= policy.max_total_backoff);
                    prop_assert!(policy.backoff(u32::MAX, waited).is_none());
                    prop_assert!(policy.backoff(0, waited).is_none());
                }
            }
        }
    }

    #[test]
    fn proto_round_trips_for_any_values(
        query in arb_query(),
        epoch in any::<u64>(),
        cached in any::<bool>(),
        text in prop::collection::vec(any::<u8>(), 0..64),
        retry_after_ms in any::<u32>(),
        failure in arb_failure(),
    ) {
        prop_assert_eq!(Query::decode(&query.encode()).unwrap(), query);
        let body = ResponseBody {
            epoch,
            cached,
            result: String::from_utf8_lossy(&text).into_owned(),
        };
        prop_assert_eq!(ResponseBody::decode(&body.encode()).unwrap(), body);
        let reject = Reject::Overloaded { retry_after_ms };
        prop_assert_eq!(Reject::decode(&reject.encode()).unwrap(), reject);
        prop_assert_eq!(Failure::decode(&failure.encode()).unwrap(), failure);
    }

    // Satellite: decoder fuzz. Arbitrary byte soup into every proto
    // decoder — a typed Corrupt/Unsupported or a valid value, only.
    #[test]
    fn proto_decoders_answer_soup_with_typed_errors(
        soup in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        assert_typed(Query::decode(&soup).map(|_| ()), "query")?;
        assert_typed(ResponseBody::decode(&soup).map(|_| ()), "response")?;
        assert_typed(Reject::decode(&soup).map(|_| ()), "reject")?;
        assert_typed(Failure::decode(&soup).map(|_| ()), "failure")?;
    }

    // Near-valid hostility: take a real encoding, then truncate it or
    // flip one bit. These are the wire-fault shapes the chaos simulator
    // produces; the decoders must stay typed on all of them.
    #[test]
    fn mutated_valid_encodings_fail_typed_or_reparse(
        query in arb_query(),
        epoch in any::<u64>(),
        cached in any::<bool>(),
        text in prop::collection::vec(any::<u8>(), 0..48),
        retry_after_ms in any::<u32>(),
        failure in arb_failure(),
        pick in any::<u64>(),
        bit in 0u8..8,
        truncate in any::<bool>(),
    ) {
        let body = ResponseBody {
            epoch,
            cached,
            result: String::from_utf8_lossy(&text).into_owned(),
        };
        let encodings = [
            ("query", query.encode()),
            ("response", body.encode()),
            ("reject", Reject::Overloaded { retry_after_ms }.encode()),
            ("failure", failure.encode()),
        ];
        for (what, enc) in encodings {
            let mut enc = enc;
            if truncate {
                enc.truncate((pick % (enc.len() as u64 + 1)) as usize);
            } else {
                let at = (pick % enc.len() as u64) as usize;
                enc[at] ^= 1 << bit;
            }
            let outcome = match what {
                "query" => Query::decode(&enc).map(|_| ()),
                "response" => ResponseBody::decode(&enc).map(|_| ()),
                "reject" => Reject::decode(&enc).map(|_| ()),
                _ => Failure::decode(&enc).map(|_| ()),
            };
            assert_typed(outcome, what)?;
        }
    }
}
