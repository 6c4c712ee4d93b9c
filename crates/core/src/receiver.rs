//! The Graphene receive sequence as one sans-IO state machine.
//!
//! A receiver runs one fixed sequence (§3): decode Protocol 1; on failure
//! send Protocol 2's request and complete it; then fetch the short IDs it
//! still cannot resolve. On the ladder's rateless rung (arXiv 2402.02668)
//! it streams coded cells instead, one incremental-redundancy round per
//! window. [`Receiver`] owns that sequence — awaiting P1, P2 requested,
//! rateless stream, extra fetch — and nothing else: no socket, timer or
//! budget. Two drivers step it: the in-process relay ([`crate::session`])
//! answers each step with the sender functions and counts the bytes; the
//! netsim peer adds routing, timers, hedging, breakers, bans, bodies and
//! resource caps. Where they differ, the driver decides (a malformed
//! Protocol 1 message bans in netsim, but carries on to Protocol 2
//! in-process).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::config::GrapheneConfig;
use crate::error::{P1Failure, P2Failure};
use crate::protocol1::{self, CandidateSet};
use crate::protocol2;
use crate::recovery::{
    rateless_open, rateless_resolve, rateless_salt, Ladder, RecoveryPolicy, RungFailure, RungKind,
};
use graphene_blockchain::{CheckedIds, Header, Mempool, TxId};
use graphene_hashes::{short_id_8, Digest};
use graphene_iblt::rateless::{DecodeProgress, RatelessDecoder, RatelessError};
use graphene_iblt::{Iblt, CELL_BYTES};
use graphene_wire::messages::{
    BlockTxnMsg, GetDataMsg, GetGrapheneRetryMsg, GetGrapheneTxnMsg, GetMoreCellsMsg,
    GrapheneBlockMsg, GrapheneRecoveryMsg, Message, RatelessCellsMsg,
};
use std::collections::HashMap;

/// What a receiver reads from its node on every step.
#[derive(Clone, Copy)]
pub struct RxEnv<'a> {
    /// The node's mempool: Protocol 1's candidates, and the `m` it reports.
    pub mempool: &'a Mempool,
    /// The receiver's configuration.
    pub cfg: &'a GrapheneConfig,
    /// Most bytes of rateless decode state the receiver may hold; a stream
    /// that would outgrow it is abandoned.
    pub rateless_cap: u64,
}

/// One input to the machine.
pub enum Input<'a> {
    /// A Protocol 1 message and its header's id, as the driver derived it.
    Block(&'a GrapheneBlockMsg, Digest),
    /// Protocol 2's recovery message.
    Recovery(&'a GrapheneRecoveryMsg),
    /// A window of rateless coded cells.
    Cells(&'a RatelessCellsMsg),
    /// Bodies fetched by short ID.
    Txns(&'a BlockTxnMsg),
    /// The ladder moved (or grants the stream one more window).
    Rung(Ladder),
}

/// What the driver does next.
#[derive(Debug)]
pub enum Step {
    /// Send this to the serving peer (the driver arms its timer).
    Send(Message),
    /// The block's ids, Merkle-checked against `header`.
    Done {
        /// The header the ids commit to.
        header: Header,
        /// The ids, in block order.
        checked: CheckedIds,
    },
    /// The rung stopped: hand `why` to the [`Ladder`]. On the rateless
    /// rung `Failed` is a window that did not decode (the stream may go on
    /// while its budget lasts).
    Failed {
        /// What the ladder should make of it.
        why: RungFailure,
        /// The Protocol 2 failure nearest to the cause.
        cause: P2Failure,
    },
    /// The server sent a provably malformed structure (§6.1); `resume` is
    /// the Protocol 2 request for a driver that carries on regardless.
    Malformed {
        /// What was malformed.
        why: &'static str,
        /// The request that continues the session, if any.
        resume: Option<Message>,
    },
    /// Stale, duplicated or out-of-phase input: nothing to do.
    Ignore,
}

/// What a failed Protocol 1 message committed the session to.
struct P1 {
    header: Header,
    order_bytes: Vec<u8>,
    block_tx_count: usize,
}

enum State {
    /// No decode in progress: a request for Protocol 1 is (or will be) out.
    AwaitP1,
    /// Protocol 2's request is out.
    P2Requested,
    /// Coded-cell windows streaming against the candidates' short IDs.
    Rateless(Box<(HashMap<u64, TxId>, RatelessDecoder)>),
    /// Bodies requested by short ID: the candidate map they complete, and
    /// how many were asked for.
    Fetch(Box<(HashMap<u64, TxId>, usize)>),
}

/// A Graphene receiver session for one block. See the module docs.
pub struct Receiver {
    block_id: Digest,
    state: State,
    p1: Option<Box<P1>>,
    /// The failed attempt's candidate set, while a later rung may still
    /// stream against it.
    candidates: Option<Box<CandidateSet>>,
}

impl Receiver {
    /// A session for `block_id`, awaiting Protocol 1.
    pub fn new(block_id: Digest) -> Receiver {
        Receiver { block_id, state: State::AwaitP1, p1: None, candidates: None }
    }

    /// Where the ladder goes after rung `at` stopped for `why`, given what
    /// the session holds: a failed attempt's candidates open the rateless
    /// rung, and a rateless rung whose stream is gone (decoded into a fetch
    /// that failed, or dropped over its cap) has nothing left to grow.
    pub fn next(&self, at: Ladder, policy: &RecoveryPolicy, why: RungFailure) -> Option<Ladder> {
        let spent = at.rung == RungKind::Rateless && !self.streaming();
        at.next(policy, self.candidates.is_some(), if spent { RungFailure::Abandoned } else { why })
    }

    /// Whether a rateless stream is in flight.
    pub fn streaming(&self) -> bool {
        matches!(self.state, State::Rateless(_))
    }

    /// Bytes of rateless decode state held (zero off the rateless rung).
    pub fn rateless_state_bytes(&self) -> u64 {
        match &self.state {
            State::Rateless(s) => s.1.state_bytes(),
            _ => 0,
        }
    }

    /// Feed one input; see [`Step`] for what comes out.
    pub fn step(&mut self, input: Input<'_>, env: &RxEnv<'_>) -> Step {
        let cfg = env.cfg;
        match (input, &mut self.state, self.p1.as_deref()) {
            // A Protocol 1 frame only while one is awaited: a late or
            // duplicated copy must not reset a session past Protocol 1.
            (Input::Block(msg, id), State::AwaitP1, _) if id == self.block_id => {
                self.on_block(msg, env)
            }
            (Input::Recovery(msg), State::P2Requested, Some(p1))
                if msg.block_id == self.block_id =>
            {
                let Some(candidates) = self.candidates.as_mut() else { return abandoned() };
                let root = p1.header.merkle_root;
                match protocol2::receiver_complete(candidates, msg, root, &p1.order_bytes, cfg) {
                    Ok(ok) if !ok.needs_fetch.is_empty() => self.fetch(ok.resolved, ok.needs_fetch),
                    Ok(ok) => done(Some(p1), ok.checked, RungFailure::Failed),
                    Err(P2Failure::Malformed(why)) => Step::Malformed { why, resume: None },
                    Err(cause) => Step::Failed { why: RungFailure::Failed, cause },
                }
            }
            (Input::Cells(msg), ..) if msg.block_id == self.block_id => self.on_cells(msg, env),
            (Input::Txns(msg), State::Fetch(fetch), _) if msg.block_id == self.block_id => {
                let (resolved, wanted) = &mut **fetch;
                // After a spent stream the rung has nothing left to grow.
                let why = match self.candidates {
                    Some(_) => RungFailure::Failed,
                    None => RungFailure::Abandoned,
                };
                if msg.txns.len() != *wanted {
                    // The sender does not recognize a short ID: hostile or
                    // collided state.
                    return Step::Failed { why, cause: P2Failure::ShortIdCollision };
                }
                for tx in &msg.txns {
                    resolved.insert(short_id_8(tx.id()), *tx.id());
                }
                finalize(self.p1.as_deref(), resolved, why, cfg)
            }
            (Input::Rung(at), ..) => self.enter(at, env),
            // Another block's frame, or one for a phase the session is not in.
            _ => Step::Ignore,
        }
    }

    fn on_block(&mut self, msg: &GrapheneBlockMsg, env: &RxEnv<'_>) -> Step {
        let (failure, candidates) = match protocol1::receiver_decode(msg, env.mempool, env.cfg) {
            Ok(ok) => return Step::Done { header: msg.header, checked: ok.checked },
            Err(e) => e,
        };
        let block_tx_count = msg.block_tx_count as usize;
        let order_bytes = msg.order_bytes.clone();
        self.p1 = Some(Box::new(P1 { header: msg.header, order_bytes, block_tx_count }));
        // Direct-fetch extension: a *complete* IBLT decode that merely
        // revealed missing transactions already identifies exactly what to
        // fetch — the Protocol 2 structures would carry no new information.
        let step = if env.cfg.direct_fetch
            && matches!(failure, P1Failure::MissingTransactions { .. })
            && candidates.i_delta.as_ref().is_some_and(Iblt::is_drained)
        {
            let mut resolved = candidates.by_short.clone();
            for fp in &candidates.partial_right {
                resolved.remove(fp);
            }
            self.fetch(resolved, candidates.partial_left.clone())
        } else {
            let m = env.mempool.len();
            let (req, _) =
                protocol2::receiver_request(&candidates, self.block_id, block_tx_count, m, env.cfg);
            self.state = State::P2Requested;
            match failure {
                P1Failure::Malformed(why) => {
                    Step::Malformed { why, resume: Some(Message::GrapheneRequest(req)) }
                }
                _ => Step::Send(Message::GrapheneRequest(req)),
            }
        };
        self.candidates = Some(Box::new(candidates));
        step
    }

    fn on_cells(&mut self, msg: &RatelessCellsMsg, env: &RxEnv<'_>) -> Step {
        // The codec salt is a public function of the block ID: any other
        // salt is provably hostile.
        if msg.salt != rateless_salt(&self.block_id) {
            return Step::Malformed { why: "rateless salt", resume: None };
        }
        let State::Rateless(stream) = &mut self.state else {
            return Step::Ignore; // a window from a rung we left
        };
        let (by_short, decoder) = &mut **stream;
        let incoming = (msg.cells.len() * CELL_BYTES) as u64;
        let progress = if decoder.state_bytes() + incoming > env.rateless_cap {
            None
        } else {
            match decoder.push_cells(msg.start_index, &msg.cells) {
                // A duplicated or reordered window: not attributable, not
                // useful — the driver's timer re-requests the pending one.
                Err(RatelessError::Gap { .. }) => return Step::Ignore,
                // Double-decode: the §6.1 attack in rateless form.
                Err(RatelessError::Malformed(why)) => return Step::Malformed { why, resume: None },
                Ok(DecodeProgress::NeedMore(_)) if decoder.state_bytes() <= env.rateless_cap => {
                    // One more incremental-redundancy round, while the
                    // ladder's budget lasts.
                    return Step::Failed {
                        why: RungFailure::Failed,
                        cause: P2Failure::IbltIncomplete,
                    };
                }
                Ok(DecodeProgress::NeedMore(_)) => None,
                Ok(DecodeProgress::Decoded(diff)) => {
                    Some((rateless_resolve(by_short, &diff), diff))
                }
            }
        };
        self.state = State::AwaitP1;
        match progress {
            // Decode state would outgrow its budget: abandon the stream
            // (short IDs bound the worst case instead).
            None => abandoned(),
            Some((resolved, diff)) if !diff.only_remote.is_empty() => {
                self.fetch(resolved, diff.only_remote)
            }
            // Decoded, but a stream that will not finalize cannot do better.
            Some((resolved, _)) => {
                finalize(self.p1.as_deref(), &resolved, RungFailure::Abandoned, env.cfg)
            }
        }
    }

    /// Ask for the bodies of `needs` by short ID.
    fn fetch(&mut self, resolved: HashMap<u64, TxId>, needs: Vec<u64>) -> Step {
        self.state = State::Fetch(Box::new((resolved, needs.len())));
        let block_id = self.block_id;
        Step::Send(Message::GetGrapheneTxn(GetGrapheneTxnMsg { block_id, short_ids: needs }))
    }

    /// Enter rung `at`. The Graphene rungs restart from Protocol 1; the
    /// rateless rung opens a stream against the failed attempt's candidate
    /// set, or asks for the next window of the one in flight; the deeper
    /// rungs are the driver's, so the machine just goes idle.
    fn enter(&mut self, at: Ladder, env: &RxEnv<'_>) -> Step {
        let (block_id, mempool_count) = (self.block_id, env.mempool.len() as u64);
        if let (RungKind::Rateless, State::Rateless(stream)) = (at.rung, &self.state) {
            let (from_index, count) = (stream.1.received(), stream.1.suggested_batch() as u32);
            return Step::Send(Message::GetMoreCells(GetMoreCellsMsg {
                block_id,
                from_index,
                count,
            }));
        }
        self.state = State::AwaitP1;
        let candidates = self.candidates.take();
        match at.rung {
            RungKind::Graphene => {
                Step::Send(Message::GetData(GetDataMsg { block_id, mempool_count }))
            }
            RungKind::GrapheneRetry => Step::Send(Message::GetGrapheneRetry(GetGrapheneRetryMsg {
                block_id,
                mempool_count,
                attempt: at.retries,
            })),
            RungKind::ShortIdFetch | RungKind::FullBlock => Step::Ignore,
            RungKind::Rateless => {
                let (Some(candidates), Some(p1)) = (candidates, self.p1.as_deref()) else {
                    return abandoned();
                };
                let (decoder, batch) = rateless_open(&block_id, &candidates, p1.block_tx_count);
                if decoder.state_bytes() > env.rateless_cap {
                    return abandoned();
                }
                self.state = State::Rateless(Box::new((candidates.by_short, decoder)));
                let more = GetMoreCellsMsg { block_id, from_index: 0, count: batch as u32 };
                Step::Send(Message::GetMoreCells(more))
            }
        }
    }
}

/// The rung cannot make progress: fall through, whatever budget is left.
fn abandoned() -> Step {
    Step::Failed { why: RungFailure::Abandoned, cause: P2Failure::IbltIncomplete }
}

/// Check a completed candidate map against the header.
fn finalize(
    p1: Option<&P1>,
    resolved: &HashMap<u64, TxId>,
    why: RungFailure,
    cfg: &GrapheneConfig,
) -> Step {
    let Some(p1) = p1 else { return abandoned() };
    match protocol2::finalize_p2(resolved, p1.header.merkle_root, &p1.order_bytes, cfg) {
        Ok(ok) => done(Some(p1), ok.checked, why),
        Err(cause) => Step::Failed { why, cause },
    }
}

/// The block, once the Merkle check passed.
fn done(p1: Option<&P1>, checked: Option<CheckedIds>, why: RungFailure) -> Step {
    match (checked, p1) {
        (Some(checked), Some(p1)) => Step::Done { header: p1.header, checked },
        _ => Step::Failed { why, cause: P2Failure::MerkleMismatch },
    }
}
