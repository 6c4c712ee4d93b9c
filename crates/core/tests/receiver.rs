//! Hostile input for the Graphene receiver machine: arbitrary sequences of
//! valid, field-mutated, wrong-block, replayed and out-of-phase messages
//! and rung changes. It must never panic, must report a block only with
//! ids that pass its Merkle check, and must keep its rateless decode state
//! under the cap it is given.

use graphene::protocol1::sender_encode;
use graphene::receiver::{Input, Receiver, RxEnv, Step};
use graphene::recovery::{Ladder, RungKind};
use graphene::session::serve;
use graphene::GrapheneConfig;
use graphene_blockchain::{Scenario, ScenarioParams, Transaction};
use graphene_wire::messages::{BlockTxnMsg, GetMoreCellsMsg, Message};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn scenario(seed: u64) -> Scenario {
    let params = ScenarioParams {
        block_size: 40,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: 0.6,
        ..Default::default()
    };
    Scenario::generate(&params, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #[test]
    fn receiver_survives_hostile_sequences(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(any::<u32>(), 1..48),
        cap_pick in 0usize..4,
    ) {
        let cfg = GrapheneConfig::default();
        let (s, other) = (scenario(seed), scenario(seed ^ 0x5eed));
        let (block, id, m) = (&s.block, s.block.id(), s.receiver_mempool.len());
        let cap = [0, 600, 4096, 1 << 20][cap_pick];
        let env = RxEnv { mempool: &s.receiver_mempool, cfg: &cfg, rateless_cap: cap };
        // The honest messages of one relay, collected by walking an honest
        // receiver, plus another block's Protocol 1 message to splice from.
        let p1 = sender_encode(block, m as u64, None, &cfg).0;
        let alien = sender_encode(&other.block, m as u64, None, &cfg).0;
        let answer = |step| match step {
            Step::Send(req) => serve(block, &req, m, None, &cfg, None),
            _ => None,
        };
        let mut walk = Receiver::new(id);
        let Some(Message::GrapheneRecovery(recovery)) =
            answer(walk.step(Input::Block(&p1, id), &env))
        else {
            panic!("a 60% mempool needs Protocol 2");
        };
        let fetch = match answer(walk.step(Input::Recovery(&recovery), &env)) {
            Some(Message::BlockTxn(fetch)) => fetch,
            _ => BlockTxnMsg { block_id: id, txns: block.txns()[..3].to_vec() },
        };
        let window = |i: usize| {
            let req = GetMoreCellsMsg { block_id: id, from_index: 8 * i as u64, count: 8 };
            match serve(block, &Message::GetMoreCells(req), m, None, &cfg, None) {
                Some(Message::RatelessCells(cells)) => cells,
                other => panic!("a window request answered with {other:?}"),
            }
        };

        let mut rx = Receiver::new(id);
        // The window an honest server would send next, so streams progress.
        let mut next_window = 0;
        for op in ops {
            let (kind, arg) = (op % 9, op / 9);
            let junk = Transaction::new(arg.to_le_bytes().to_vec());
            let step = match kind {
                0 => {
                    let mut msg = p1.clone();
                    match arg % 3 {
                        1 => msg.block_tx_count += 1 + u64::from(arg % 50),
                        2 => msg.iblt_i = alien.iblt_i.clone(),
                        _ => {}
                    }
                    rx.step(Input::Block(&msg, msg.header.id()), &env)
                }
                // Another block's message, routed here by mistake.
                1 => rx.step(Input::Block(&alien, alien.header.id()), &env),
                2 => {
                    let mut msg = recovery.clone();
                    match arg % 3 {
                        1 => msg.missing = vec![junk],
                        2 => msg.block_id = alien.header.id(),
                        _ => {}
                    }
                    rx.step(Input::Recovery(&msg), &env)
                }
                3..=5 => {
                    let i = if arg % 3 == 0 { arg as usize / 3 % 12 } else { next_window };
                    let mut msg = window(i);
                    match (arg / 12) % 4 {
                        1 => msg.salt ^= 1,
                        2 => msg.cells[0].key_sum ^= u64::from(arg) | 1,
                        _ => {}
                    }
                    let step = rx.step(Input::Cells(&msg), &env);
                    next_window += rx.streaming() as usize;
                    step
                }
                6 => {
                    let mut msg = fetch.clone();
                    match arg % 3 {
                        1 => msg.txns[0] = junk,
                        2 => msg.block_id = alien.header.id(),
                        _ => {}
                    }
                    rx.step(Input::Txns(&msg), &env)
                }
                // A rung change, the rateless rung half the time.
                _ => {
                    let rung = [RungKind::Graphene, RungKind::GrapheneRetry, RungKind::ShortIdFetch]
                        .get(arg as usize % 6)
                        .copied()
                        .unwrap_or(RungKind::Rateless);
                    rx.step(Input::Rung(Ladder { rung, retries: arg / 6 % 4 }), &env)
                }
            };
            if !rx.streaming() {
                next_window = 0;
            }
            if let Step::Done { header, checked } = &step {
                prop_assert_eq!(header, block.header());
                prop_assert_eq!(checked.ids(), &block.ids()[..]);
            }
            let held = rx.rateless_state_bytes();
            prop_assert!(held <= cap, "rateless state {} B over its {} B cap", held, cap);
        }
    }
}
