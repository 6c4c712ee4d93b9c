//! Figure 11: ping-pong decoding. A primary IBLT parameterized for a 1/240
//! failure rate holds j items; a sibling IBLT (different salt/geometry,
//! same items) of capacity i ≤ j is decoded jointly. The joint failure rate
//! approaches (1/240)² when i = j and improves even for small i.

use graphene_experiments::{PropAcc, RunOpts, Table, TableWriter};
use graphene_iblt::{ping_pong_decode, Iblt};
use graphene_iblt_params::params_for;
use rand::{rngs::StdRng, RngExt};

fn main() {
    let opts = RunOpts::from_args(40_000);
    let engine = opts.engine();
    let mut table = Table::new(
        "Fig. 11 — single vs ping-pong (sibling) decode failure, primary at 1/240",
        &["j", "i_sibling", "fail_single", "fail_pingpong", "trials"],
    );
    for j in [10usize, 20, 50, 100] {
        // Sweep sibling capacities: ~10%..100% of j.
        let steps: Vec<usize> = (1..=5).map(|s| (j * s / 5).max(1)).collect();
        for &i in &steps {
            let pj = params_for(j, 240);
            let pi = params_for(i, 240);
            let trials = opts.trials;
            let (single, joint) = engine.run(
                &format!("fig11 j={j} i={i}"),
                trials,
                |_, rng: &mut StdRng, acc: &mut (PropAcc, PropAcc)| {
                    let salt_a: u64 = rng.random();
                    let salt_b: u64 = rng.random();
                    let mut a = Iblt::new(pj.c, pj.k, salt_a);
                    let mut b = Iblt::new(pi.c, pi.k, salt_b);
                    for _ in 0..j {
                        let v: u64 = rng.random();
                        a.insert(v);
                        b.insert(v);
                    }
                    let single_ok = a.clone().peel().map(|r| r.complete).unwrap_or(false);
                    acc.0.push(!single_ok);
                    let joint_ok =
                        ping_pong_decode(&mut a, &mut b).map(|r| r.complete).unwrap_or(false);
                    acc.1.push(!joint_ok);
                },
            );
            table.row(&[
                j.to_string(),
                i.to_string(),
                format!("{:.6}", single.rate()),
                format!("{:.6}", joint.rate()),
                trials.to_string(),
            ]);
        }
    }
    TableWriter::new().emit("fig11", &table);
}
