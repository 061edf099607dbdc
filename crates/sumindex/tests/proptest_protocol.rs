//! Randomized property tests for Sum-Index protocols, driven by seeded
//! [`Xorshift64`] streams (offline-friendly stand-in for `proptest`).

use hl_graph::rng::Xorshift64;
use hl_labeling::hub_scheme::HubPllScheme;
use hl_lowerbound::GadgetParams;
use hl_sumindex::protocol::GraphProtocol;
use hl_sumindex::repr::Repr;
use hl_sumindex::{naive, SumIndexInstance};

const CASES: u64 = 24;

#[test]
fn naive_protocol_always_correct() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(case);
        let m = rng.gen_range_usize(1, 200);
        let word: Vec<bool> = (0..m).map(|_| rng.gen_bool()).collect();
        let inst = SumIndexInstance::new(word);
        let a = rng.gen_index(m);
        let b = rng.gen_index(m);
        let answer = naive::referee(
            m,
            &naive::alice_message(&inst, a),
            &naive::bob_message(&inst, b),
        );
        assert_eq!(answer, inst.answer(a, b));
    }
}

#[test]
fn graph_protocol_correct_on_random_words() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(1000 + case);
        let params = GadgetParams::new(2, 2).unwrap();
        let m = Repr::new(params).modulus();
        let inst = SumIndexInstance::random(m as usize, rng.next_u64());
        let protocol = GraphProtocol::on_h_prime(params, &inst, &HubPllScheme).unwrap();
        let a = rng.gen_u64_below(m);
        let b = rng.gen_u64_below(m);
        assert_eq!(protocol.run(a, b), inst.answer(a as usize, b as usize));
    }
}

#[test]
fn repr_linearity() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(2000 + case);
        let b = rng.gen_range_u64(1, 4) as u32;
        let ell = rng.gen_range_u64(1, 4) as u32;
        if b as u64 * ell as u64 > 8 {
            continue;
        }
        let params = GadgetParams::new(b + 1, ell).unwrap(); // side >= 4
        let codec = Repr::new(params);
        let m = codec.modulus();
        let a1 = rng.gen_u64_below(m);
        let a2 = rng.gen_u64_below(m);
        let x = codec.decode(a1);
        let z = codec.decode(a2);
        let sum: Vec<u64> = x.iter().zip(&z).map(|(&p, &q)| p + q).collect();
        assert_eq!(codec.encode(&sum), (a1 + a2) % m);
    }
}
