//! Property-based tests for the transport: arbitrary operation sequences
//! against a reference model — every transfer completes exactly once at
//! both ends, regions behave like a last-write-wins map, and path
//! selection/statistics are consistent.

use bytes::Bytes;
use proptest::prelude::*;
use sitra_dart::{Event, Fabric, NetworkModel, Path};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Export {
        owner: usize,
        key: u64,
        len: usize,
    },
    Unexport {
        owner: usize,
        key: u64,
    },
    Get {
        requester: usize,
        owner: usize,
        key: u64,
    },
    Send {
        from: usize,
        to: usize,
        len: usize,
    },
}

fn arb_ops(n_eps: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..n_eps, 0u64..4, 1usize..10_000).prop_map(|(owner, key, len)| Op::Export {
                owner,
                key,
                len
            }),
            (0..n_eps, 0u64..4).prop_map(|(owner, key)| Op::Unexport { owner, key }),
            (0..n_eps, 0..n_eps, 0u64..4).prop_map(|(requester, owner, key)| Op::Get {
                requester,
                owner,
                key
            }),
            (0..n_eps, 0..n_eps, 1usize..10_000).prop_map(|(from, to, len)| Op::Send {
                from,
                to,
                len
            }),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transfers_complete_exactly_once(ops in arb_ops(3)) {
        let model = NetworkModel::gemini();
        let fabric = Fabric::new(model);
        let eps: Vec<_> = (0..3).map(|_| fabric.register()).collect();
        // Reference model of exported regions.
        let mut regions: HashMap<(usize, u64), usize> = HashMap::new();
        let mut expected_gets = 0usize; // successful gets issued
        let mut expected_msgs = 0usize;
        let mut sent_bytes = 0u64;

        for op in &ops {
            match *op {
                Op::Export { owner, key, len } => {
                    eps[owner].export(key, Bytes::from(vec![owner as u8; len]));
                    regions.insert((owner, key), len);
                }
                Op::Unexport { owner, key } => {
                    eps[owner].unexport(key);
                    regions.remove(&(owner, key));
                }
                Op::Get { requester, owner, key } => {
                    let res = eps[requester].rdma_get(eps[owner].id(), key);
                    match regions.get(&(owner, key)) {
                        Some(_) => {
                            prop_assert!(res.is_ok());
                            expected_gets += 1;
                        }
                        None => prop_assert!(res.is_err()),
                    }
                }
                Op::Send { from, to, len } => {
                    eps[from]
                        .smsg_send(eps[to].id(), Bytes::from(vec![9u8; len]))
                        .unwrap();
                    expected_msgs += 1;
                    sent_bytes += len as u64;
                }
            }
        }

        // Drain all events: a get is served when it is issued, so every
        // event is already queued — every issued get yields exactly one
        // requester-side completion and one source-side event.
        let mut get_completes = 0;
        let mut get_served = 0;
        let mut messages = 0;
        for ep in &eps {
            while let Some(ev) = ep.try_event() {
                match ev {
                    Event::GetComplete { data, .. } => {
                        get_completes += 1;
                        prop_assert!(!data.is_empty());
                    }
                    Event::GetServed { .. } => get_served += 1,
                    Event::Message { data, .. } => {
                        messages += 1;
                        prop_assert!(!data.is_empty());
                    }
                    _ => {}
                }
            }
        }
        prop_assert_eq!(get_completes, expected_gets, "requester completions");
        prop_assert_eq!(get_served, get_completes, "source completions");
        prop_assert_eq!(messages, expected_msgs);

        let stats = fabric.stats();
        prop_assert_eq!(stats.smsg_messages as usize, expected_msgs);
        prop_assert_eq!(stats.smsg_bytes, sent_bytes);
        prop_assert_eq!(stats.bte_transfers as usize, get_completes);
        fabric.shutdown();
    }

    #[test]
    fn model_path_selection_consistent(bytes in 0usize..100_000_000,
                                       thresh in 1usize..1_000_000) {
        let model = NetworkModel {
            smsg_threshold: thresh,
            ..NetworkModel::gemini()
        };
        let p = model.path_for(bytes);
        prop_assert_eq!(p == Path::Smsg, bytes <= thresh);
        // Time is positive and finite either way.
        let t = model.auto_transfer_time(bytes);
        prop_assert!(t > 0.0 && t.is_finite());
    }
}
