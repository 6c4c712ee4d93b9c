//! Deterministic benchmark runner for the regression gate.
//!
//! Unlike the Criterion benches (adaptive sampling, human-oriented), this
//! binary runs every benchmark for a *fixed* iteration count so the
//! workload is identical from run to run, then emits a small JSON document
//! (`BENCH_*.json`). CI runs it in `--quick` mode on one thread and diffs
//! against the committed baseline with a tolerance band; see
//! `EXPERIMENTS.md` ("Benchmark regression gate") for the policy.
//!
//! ```text
//! bench_runner [--quick] [--out PATH] [--compare BASELINE] [--tolerance X]
//! ```
//!
//! Exit status is nonzero iff `--compare` was given and at least one bench
//! regressed beyond the tolerance band.

use graphene::config::GrapheneConfig;
use graphene::protocol1;
use graphene::session::{relay_block, relay_block_cached};
use graphene::EncodeCache;
use graphene_bench::bench_scenario;
use graphene_bench::reference::{
    ref_merkle_root, ref_peel_cells, ref_subtract_peel, RefBloom, RefGcs,
};
use graphene_bench::runner::{regressions, result, time_fn, to_json, BenchResult};
use graphene_bloom::{
    bitvec::BitVec, BloomFilter, GcsBuilder, HashStrategy, Membership, ProbeScratch,
};
use graphene_hashes::{
    merkle_root, sha256, siphash24, siphash24_x4_u64, Digest, SipKey, SIP_LANES,
};
use graphene_iblt::{CellStream, DecodeProgress, Iblt, PeelScratch, RatelessDecoder};
use graphene_iblt_params::hypergraph::Scratch;
use graphene_iblt_params::{params_for, search_c_with, FailureRate, SearchConfig};
use graphene_netsim::{Network, PeerId, RelayProtocol, SimTime};
use std::hint::black_box;

fn ids(n: usize, tag: u64) -> Vec<Digest> {
    (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
}

/// Per-mode iteration counts: (warmup, timed).
struct Iters {
    quick: bool,
}

impl Iters {
    fn of(&self, full: u64) -> (u64, u64) {
        let timed = if self.quick { (full / 10).max(1) } else { full };
        ((timed / 10).max(1), timed)
    }
}

fn strategy_suffix(strategy: HashStrategy) -> &'static str {
    match strategy {
        HashStrategy::DoubleHashing => "double",
        HashStrategy::KPiece => "kpiece",
    }
}

fn bench_bloom_insert(it: &Iters, strategy: HashStrategy) -> BenchResult {
    let set = ids(2000, 1);
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        let mut f = BloomFilter::with_strategy(set.len(), 0.02, 9, strategy);
        for id in &set {
            f.insert(id);
        }
        black_box(f.inserted());
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut f = RefBloom::with_strategy(set.len(), 0.02, 9, strategy);
        for id in &set {
            f.insert(id);
        }
        black_box(f.hash_count());
    });
    result(&format!("bloom_insert_{}_n2000", strategy_suffix(strategy)), iters, ns, Some(ref_ns))
}

fn bench_bloom_contains(it: &Iters, strategy: HashStrategy) -> BenchResult {
    let set = ids(2000, 2);
    let probes = ids(2000, 3);
    let mut f = BloomFilter::with_strategy(set.len(), 0.02, 9, strategy);
    let mut r = RefBloom::with_strategy(set.len(), 0.02, 9, strategy);
    for id in &set {
        f.insert(id);
        r.insert(id);
    }
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        let mut hits = 0usize;
        for id in set.iter().chain(&probes) {
            hits += f.contains(id) as usize;
        }
        black_box(hits);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut hits = 0usize;
        for id in set.iter().chain(&probes) {
            hits += r.contains(id) as usize;
        }
        black_box(hits);
    });
    result(
        &format!("bloom_contains_{}_n4000probes", strategy_suffix(strategy)),
        iters,
        ns,
        Some(ref_ns),
    )
}

fn bench_bloom_contains_batch(it: &Iters) -> BenchResult {
    // The batched membership sweep every receiver filter pass now runs:
    // 2000 probes against an n=2000 filter through `contains_batch_with`
    // (interleaved hashing, reused scratch and mask, divide-free index
    // chains) versus the scalar probe loop those callers used before. The
    // probe mix is the receiver's: half the mempool is in the block, so
    // half the probes pay the full k-probe member path.
    let set = ids(2000, 21);
    let mut probes = ids(1000, 22);
    probes.extend_from_slice(&set[..1000]);
    let mut f = BloomFilter::with_strategy(set.len(), 0.02, 9, HashStrategy::DoubleHashing);
    f.insert_batch(&set);
    let (warmup, iters) = it.of(400);
    let mut scratch = ProbeScratch::default();
    let mut hits = BitVec::new(probes.len());
    let ns = time_fn(warmup, iters, || {
        f.contains_batch_with(&probes, &mut hits, &mut scratch);
        black_box(hits.get(1063));
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut n = 0usize;
        for id in &probes {
            n += f.contains(id) as usize;
        }
        black_box(n);
    });
    result("bloom_contains_batch_double_n2000", iters, ns, Some(ref_ns))
}

fn bench_siphash_x4(it: &Iters) -> BenchResult {
    // The interleaved SipHash kernel: 4096 single-word messages hashed
    // four lanes at a time versus the scalar dependency chain.
    let vals: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let keys = [SipKey::new(3, 0x5350_4c49_5431); SIP_LANES];
    let (warmup, iters) = it.of(2000);
    let ns = time_fn(warmup, iters, || {
        let mut acc = 0u64;
        for chunk in vals.chunks_exact(SIP_LANES) {
            let mut lanes = [0u64; SIP_LANES];
            lanes.copy_from_slice(chunk);
            let h = siphash24_x4_u64(&keys, &lanes);
            acc ^= h.iter().fold(0, |x, v| x ^ v);
        }
        black_box(acc);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut acc = 0u64;
        for v in &vals {
            acc ^= siphash24(keys[0], &v.to_le_bytes());
        }
        black_box(acc);
    });
    result("siphash_x4_4096vals", iters, ns, Some(ref_ns))
}

fn bench_merkle_root(it: &Iters) -> BenchResult {
    // The receiver's Merkle check on a 2000-transaction block (the
    // relay-partial block size): pairs hashed eight lanes at a time with
    // direct padding, versus the byte-at-a-time hasher run one node at a
    // time.
    let leaves = ids(2000, 31);
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        black_box(merkle_root(black_box(&leaves)));
    });
    let ref_ns = time_fn(warmup, iters, || {
        black_box(ref_merkle_root(black_box(&leaves)));
    });
    result("merkle_root_2000", iters, ns, Some(ref_ns))
}

fn bench_iblt_peel(it: &Iters) -> BenchResult {
    // The receiver decode hot path: a 50-item difference between two
    // 2000-item tables sized by the paper's parameter search.
    let p = params_for(50, 240);
    let mut sender = Iblt::new(p.c, p.k, 3);
    let mut local = Iblt::new(p.c, p.k, 3);
    for v in 0..2000u64 {
        sender.insert(v);
        if v >= 50 {
            local.insert(v);
        }
    }
    let (warmup, iters) = it.of(500);
    let mut diff = Iblt::new(p.c, p.k, 3);
    let mut scratch = PeelScratch::new();
    let ns = time_fn(warmup, iters, || {
        sender.subtract_into(&local, &mut diff).unwrap();
        black_box(diff.peel_in_place(&mut scratch).unwrap().len());
    });
    // Reference: allocate the difference (`subtract`), copy it again for the
    // peel (the old `peel_clone` pattern), per-value index Vecs + HashSet.
    let ref_ns = time_fn(warmup, iters, || {
        black_box(ref_subtract_peel(&sender, &local).unwrap().len());
    });
    result("iblt_subtract_peel_j50", iters, ns, Some(ref_ns))
}

fn bench_iblt_peel_partitioned(it: &Iters) -> BenchResult {
    // The partitioned peel against the element-at-a-time reference on the
    // same j=50 difference as `iblt_subtract_peel_j50`. Both sides pay one
    // `subtract_into` per iteration; the reference additionally copies the
    // cell array, exactly as the old owned-cells peel did.
    let p = params_for(50, 240);
    let mut sender = Iblt::new(p.c, p.k, 5);
    let mut local = Iblt::new(p.c, p.k, 5);
    for v in 0..2000u64 {
        sender.insert(v);
        if v >= 50 {
            local.insert(v);
        }
    }
    let (warmup, iters) = it.of(500);
    let mut diff = Iblt::new(p.c, p.k, 5);
    let mut scratch = PeelScratch::new();
    let ns = time_fn(warmup, iters, || {
        sender.subtract_into(&local, &mut diff).unwrap();
        black_box(diff.peel_in_place(&mut scratch).unwrap().len());
    });
    let ref_ns = time_fn(warmup, iters, || {
        sender.subtract_into(&local, &mut diff).unwrap();
        let cells = diff.cells().to_vec();
        black_box(ref_peel_cells(cells, diff.hash_count(), diff.salt()).unwrap().len());
    });
    result("iblt_peel_partitioned_j50", iters, ns, Some(ref_ns))
}

/// Strata-estimator assignment, mirroring `graphene-baselines`' Difference
/// Digest: stratum = trailing zeros of an independent hash.
fn stratum_of(salt: u64, value: u64, levels: usize) -> usize {
    let h = siphash24(SipKey::new(salt, 0x5354_5241), &value.to_le_bytes());
    (h.trailing_zeros() as usize).min(levels - 1)
}

fn build_strata(values: impl Iterator<Item = u64>, levels: usize, salt: u64) -> Vec<Iblt> {
    let mut strata: Vec<Iblt> =
        (0..levels).map(|i| Iblt::new(80, 4, salt ^ ((i as u64) << 8))).collect();
    for v in values {
        let s = stratum_of(salt, v, levels);
        strata[s].insert(v);
    }
    strata
}

fn bench_strata_estimate(it: &Iters) -> BenchResult {
    // The Difference Digest estimator decode loop: 12 strata of 80 cells,
    // one subtract + peel each. The old code allocated a fresh difference
    // table and peel scratch per stratum (`subtract` + allocating peel);
    // the new one reuses a single table and `PeelScratch` across all levels.
    let levels = 12usize;
    let salt = 77u64;
    let mine = build_strata((0..2000u64).map(|v| v.wrapping_mul(0x9e37_79b9)), levels, salt);
    let theirs = build_strata((100..2100u64).map(|v| v.wrapping_mul(0x9e37_79b9)), levels, salt);
    let (warmup, iters) = it.of(500);
    let mut diff = Iblt::new(80, 4, salt);
    let mut scratch = PeelScratch::new();
    let ns = time_fn(warmup, iters, || {
        let mut count = 0usize;
        for i in (0..levels).rev() {
            mine[i].subtract_into(&theirs[i], &mut diff).unwrap();
            match diff.peel_in_place(&mut scratch) {
                Ok(r) if r.complete => count += r.len(),
                _ => {
                    count = count.max(1) << (i + 1);
                    break;
                }
            }
        }
        black_box(count);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut count = 0usize;
        for i in (0..levels).rev() {
            match ref_subtract_peel(&mine[i], &theirs[i]) {
                Ok(r) if r.complete => count += r.len(),
                _ => {
                    count = count.max(1) << (i + 1);
                    break;
                }
            }
        }
        black_box(count);
    });
    result("iblt_strata_estimate_12x80", iters, ns, Some(ref_ns))
}

fn bench_gcs_contains(it: &Iters) -> BenchResult {
    let set = ids(1000, 4);
    let probes = ids(200, 5);
    let mut b = GcsBuilder::new(set.len(), 0.01, 6);
    for id in &set {
        b.insert(id);
    }
    let g = b.build();
    let r = RefGcs::build(&set, set.len(), 0.01, 6);
    let (warmup, iters) = it.of(500);
    let ns = time_fn(warmup, iters, || {
        let mut hits = 0usize;
        for id in &probes {
            hits += g.contains(id) as usize;
        }
        black_box(hits);
    });
    // The reference decodes the whole stream per query — run far fewer
    // iterations, ns/iter is what matters.
    let (ref_warmup, ref_iters) = it.of(20);
    let ref_ns = time_fn(ref_warmup, ref_iters, || {
        let mut hits = 0usize;
        for id in &probes {
            hits += r.contains(id) as usize;
        }
        black_box(hits);
    });
    result("gcs_contains_200probes_n1000", iters, ns, Some(ref_ns))
}

fn bench_param_search(it: &Iters) -> BenchResult {
    let cfg = SearchConfig { max_trials: 2000, ..SearchConfig::default() };
    let (warmup, iters) = it.of(10);
    let mut scratch = Scratch::default();
    let ns = time_fn(warmup, iters, || {
        black_box(search_c_with(50, 4, FailureRate(1.0 / 24.0), &cfg, &mut scratch));
    });
    result("param_search_j50_rate24", iters, ns, None)
}

fn bench_protocol1(it: &Iters) -> BenchResult {
    let cfg = GrapheneConfig::default();
    let s = bench_scenario(500, 11);
    let m = s.receiver_mempool.len() as u64;
    let (warmup, iters) = it.of(100);
    let ns = time_fn(warmup, iters, || {
        let (msg, _) = protocol1::sender_encode(&s.block, m, None, &cfg);
        black_box(protocol1::receiver_decode(&msg, &s.receiver_mempool, &cfg).is_ok());
    });
    result("protocol1_roundtrip_n500", iters, ns, None)
}

fn bench_protocol1_receiver(it: &Iters) -> BenchResult {
    // The receiver-side pass in isolation: one pre-encoded Protocol 1
    // message decoded against a ~2000-txn mempool. The batched Bloom
    // sweep over the whole pool dominates, so this is the end-to-end view
    // of `bloom_contains_batch_double_n2000`.
    let cfg = GrapheneConfig::default();
    let s = bench_scenario(1000, 19);
    let m = s.receiver_mempool.len() as u64;
    let (msg, _) = protocol1::sender_encode(&s.block, m, None, &cfg);
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        black_box(protocol1::receiver_decode(&msg, &s.receiver_mempool, &cfg).is_ok());
    });
    result("protocol1_receiver_pass_m2000", iters, ns, None)
}

fn bench_relay_block(it: &Iters) -> BenchResult {
    // Full session: Protocol 1, Protocol 2 fallback, ordering recovery.
    let cfg = GrapheneConfig::default();
    let s = bench_scenario(500, 12);
    let (warmup, iters) = it.of(100);
    let ns = time_fn(warmup, iters, || {
        black_box(relay_block(&s.block, None, &s.receiver_mempool, &cfg).outcome.is_success());
    });
    result("relay_block_n500", iters, ns, None)
}

fn bench_relay_fanout(it: &Iters) -> BenchResult {
    // Encode-once fan-out: one 150-txn block relayed to 64 receivers in
    // four mempool-size classes. The measured path serves canonical
    // frames from a per-iteration relay cache; the reference performs the
    // same canonical encode fresh for every receiver.
    let cfg = GrapheneConfig::default();
    let s = bench_scenario(150, 14);
    let mut pools = Vec::new();
    for class in 0..4usize {
        let mut pool = s.receiver_mempool.clone();
        for (j, id) in ids(90 * class, 15).iter().enumerate() {
            pool.insert(graphene_blockchain::Transaction::new(
                [&id.0[..], &(j as u64).to_le_bytes()].concat(),
            ));
        }
        pools.push(pool);
    }
    let (warmup, iters) = it.of(10);
    let ns = time_fn(warmup, iters, || {
        let cache = EncodeCache::new(1 << 20);
        let mut ok = 0usize;
        for i in 0..64 {
            let r = relay_block_cached(&s.block, None, &pools[i % 4], &cfg, Some(&cache));
            ok += r.outcome.is_success() as usize;
        }
        assert_eq!(ok, 64);
        black_box(cache.stats().hits);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut ok = 0usize;
        for i in 0..64 {
            let r = relay_block_cached(&s.block, None, &pools[i % 4], &cfg, None);
            ok += r.outcome.is_success() as usize;
        }
        black_box(ok);
    });
    result("relay_fanout_64rx_n150", iters, ns, Some(ref_ns))
}

fn bench_rateless_encode(it: &Iters) -> BenchResult {
    // The stateless server path: rebuild the coded-cell stream over a
    // 2000-item set and emit one 512-cell window. Every `GetMoreCells`
    // pays this (plus a skip), so the heap-driven generator is hot.
    let items: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1).collect();
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        let mut s = CellStream::new(7, items.iter().copied());
        black_box(s.cells(512).len());
    });
    result("rateless_encode_512cells_n2000", iters, ns, None)
}

fn bench_rateless_decode(it: &Iters) -> BenchResult {
    // Receiver-side incremental peel of a 50-item difference against 2000
    // candidates — the same difference shape as `iblt_peel_d50`, decoded
    // from a pre-generated cell prefix so only the decoder is timed.
    let salt = 9u64;
    let remote: Vec<u64> =
        (0..2000u64).map(|i| i.wrapping_mul(0xa076_1d64_78bd_642f) | 1).collect();
    let local: Vec<u64> = remote[50..].to_vec();
    // Dry-run to find the exact decodable prefix length.
    let mut probe = RatelessDecoder::new(salt, local.iter().copied());
    let mut stream = CellStream::new(salt, remote.iter().copied());
    let mut need = 150usize; // ~3×d first window
    loop {
        let start = stream.emitted();
        let cells = stream.cells(need);
        match probe.push_cells(start, &cells).expect("honest stream") {
            DecodeProgress::Decoded(_) => break,
            DecodeProgress::NeedMore(n) => need = n,
        }
    }
    let total = stream.emitted() as usize;
    let cells = CellStream::new(salt, remote.iter().copied()).cells(total);
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        let mut d = RatelessDecoder::new(salt, local.iter().copied());
        let r = d.push_cells(0, &cells).expect("honest stream");
        black_box(matches!(r, DecodeProgress::Decoded(_)));
    });
    result("rateless_decode_d50_n2000", iters, ns, None)
}

fn bench_netsim_relay(it: &Iters) -> BenchResult {
    // Block relay across an 8-peer random topology: every iteration rebuilds
    // the network (same seed — bit-identical event stream) and floods one
    // 150-txn block to all peers.
    let s = bench_scenario(150, 13);
    let (warmup, iters) = it.of(20);
    let ns = time_fn(warmup, iters, || {
        let mut net = Network::new(8, RelayProtocol::Graphene(GrapheneConfig::default()), 99);
        net.connect_random(3);
        for i in 0..8 {
            net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
        }
        let r = net.propagate(PeerId(0), s.block.clone(), SimTime::from_millis(60_000));
        assert_eq!(r.peers_reached, 8, "relay incomplete: {r:?}");
        black_box(r.total_bytes);
    });
    result("netsim_relay_8peers_n150", iters, ns, None)
}

fn bench_netsim_adaptive(it: &Iters) -> BenchResult {
    // The adaptive failure detector under fire: an 8-peer topology where
    // one relay tarpits every response for 1.4 s. Each iteration pays the
    // full detector stack — RTT tracking, RTO timers, hedged fetches and
    // circuit-breaker bookkeeping — on top of the relay itself.
    use graphene_netsim::{AdversaryConfig, Behavior};
    let s = bench_scenario(150, 13);
    let (warmup, iters) = it.of(20);
    let ns = time_fn(warmup, iters, || {
        let mut net = Network::new(8, RelayProtocol::Graphene(GrapheneConfig::default()), 99);
        net.connect_random(3);
        for i in 0..8 {
            net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
        }
        net.peer_mut(PeerId(1)).behavior = Behavior::Adversarial(AdversaryConfig {
            tarpit: 1.0,
            tarpit_hold: SimTime::from_millis(1_400),
            seed: 7,
            ..Default::default()
        });
        net.enable_adaptive();
        let r = net.propagate(PeerId(0), s.block.clone(), SimTime::from_millis(120_000));
        assert_eq!(r.peers_reached, 8, "relay incomplete: {r:?}");
        black_box(r.total_bytes);
    });
    result("netsim_adaptive_tarpit_8peers_n150", iters, ns, None)
}

fn bench_event_queue(it: &Iters) -> BenchResult {
    // The timing wheel against the retained heap reference at 100k
    // pending events. The schedule mixes every routing tier — sub-slot,
    // near wheel, overflow wheel, far list — like a propagation run does;
    // each iteration pushes all 100k then drains to empty.
    use graphene_netsim::event::{Event, EventQueue, ReferenceQueue};
    const N: u64 = 100_000;
    let mix = |i: u64| -> u64 {
        // splitmix-style spread over ~130 s of simulated time (µs).
        let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 31;
        x % 130_000_000
    };
    let (warmup, iters) = it.of(20);
    let ns = time_fn(warmup, iters, || {
        let mut q = EventQueue::new();
        for i in 0..N {
            q.schedule(SimTime(mix(i)), Event::Drain { peer: PeerId((i % 1000) as usize) });
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            last = at;
        }
        black_box(last);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut q = ReferenceQueue::new();
        for i in 0..N {
            q.schedule(SimTime(mix(i)), Event::Drain { peer: PeerId((i % 1000) as usize) });
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            last = at;
        }
        black_box(last);
    });
    result("event_queue_push_pop_100k", iters, ns, Some(ref_ns))
}

fn bench_netsim_propagation(it: &Iters) -> BenchResult {
    // The internet-scale configuration at bench size: 1000 peers on a
    // Barabási–Albert overlay with geographic latency classes and
    // adaptive gossip fan-out, relaying one 30-txn Graphene block.
    use graphene_netsim::{barabasi_albert, FanoutPolicy};
    let s = bench_scenario(30, 17);
    let edges = barabasi_albert(1000, 4, 23);
    let (warmup, iters) = it.of(5);
    let ns = time_fn(warmup, iters, || {
        let mut net = Network::new(1000, RelayProtocol::Graphene(GrapheneConfig::default()), 99);
        for i in 0..1000 {
            net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
        }
        net.enable_geographic_links(7);
        net.set_fanout(FanoutPolicy::Adaptive { initial: 4 });
        net.connect_edges(&edges);
        let r = net.propagate(PeerId(0), s.block.clone(), SimTime::from_millis(600_000));
        assert_eq!(r.peers_reached, 1000, "relay incomplete: {r:?}");
        black_box(r.total_bytes);
    });
    result("netsim_propagation_1k_peers", iters, ns, None)
}

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut tolerance = 3.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--compare" => compare = Some(args.next().expect("--compare needs a path")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance needs a number")
                    .parse()
                    .expect("tolerance must be a float")
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: bench_runner [--quick] [--out PATH] [--compare BASELINE] \
                     [--tolerance X]"
                );
                std::process::exit(2);
            }
        }
    }

    let it = Iters { quick };
    let benches = [
        bench_bloom_insert(&it, HashStrategy::DoubleHashing),
        bench_bloom_insert(&it, HashStrategy::KPiece),
        bench_bloom_contains(&it, HashStrategy::DoubleHashing),
        bench_bloom_contains(&it, HashStrategy::KPiece),
        bench_bloom_contains_batch(&it),
        bench_siphash_x4(&it),
        bench_merkle_root(&it),
        bench_iblt_peel(&it),
        bench_iblt_peel_partitioned(&it),
        bench_strata_estimate(&it),
        bench_gcs_contains(&it),
        bench_param_search(&it),
        bench_protocol1(&it),
        bench_protocol1_receiver(&it),
        bench_relay_block(&it),
        bench_relay_fanout(&it),
        bench_rateless_encode(&it),
        bench_rateless_decode(&it),
        bench_netsim_relay(&it),
        bench_netsim_adaptive(&it),
        bench_event_queue(&it),
        bench_netsim_propagation(&it),
    ];
    for b in &benches {
        let speedup = match b.speedup_vs_reference {
            Some(v) => format!("  ({v:.2}x vs reference)"),
            None => String::new(),
        };
        eprintln!(
            "{:32} {:>12.1} ns/iter {:>14.1} ops/s{}",
            b.name, b.ns_per_iter, b.ops_per_sec, speedup
        );
    }

    let json = to_json(if quick { "quick" } else { "full" }, 1, &benches);
    print!("{json}");
    if let Some(path) = &out {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if let Some(path) = &compare {
        let baseline =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let bad = regressions(&benches, &baseline, tolerance);
        if !bad.is_empty() {
            eprintln!("PERFORMANCE REGRESSIONS (tolerance ×{tolerance}):");
            for line in &bad {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
        eprintln!("no regressions vs {path} (tolerance ×{tolerance})");
    }
}
