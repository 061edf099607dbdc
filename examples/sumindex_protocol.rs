//! The Sum-Index reduction of Theorem 1.6, run as an actual protocol:
//! Alice and Bob share a word `S` and deterministically build the same
//! pruned gadget and distance labeling; the referee answers
//! `S_{(a+b) mod m}` from two labels and two indices alone.
//!
//! Run with: `cargo run --release --example sumindex_protocol`

use hub_labeling::labeling::hub_scheme::HubPllScheme;
use hub_labeling::lowerbound::GadgetParams;
use hub_labeling::sumindex::protocol::GraphProtocol;
use hub_labeling::sumindex::repr::Repr;
use hub_labeling::sumindex::SumIndexInstance;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = GadgetParams::new(3, 2)?;
    let m = Repr::new(params).modulus() as usize;
    println!("gadget {params}: word length m = {m}");

    // The shared word (both parties know S; only a and b are private).
    let instance = SumIndexInstance::random(m, 2024);

    // Both parties compute the same setup (pruned graph + labeling).
    let protocol = GraphProtocol::on_h_prime(params, &instance, &HubPllScheme)?;

    // One round, narrated.
    let (a, b) = (5u64, 14u64);
    let alice = protocol.alice_message(a);
    let bob = protocol.bob_message(b);
    println!(
        "Alice sends label of v_(0,2x) + a: {} bits; Bob sends {} bits",
        alice.num_bits(m),
        bob.num_bits(m)
    );
    let answer = protocol.referee(&alice, &bob);
    println!(
        "referee: S_(({a}+{b}) mod {m}) = S_{} = {} (truth: {})",
        (a as usize + b as usize) % m,
        answer,
        instance.answer(a as usize, b as usize)
    );
    assert_eq!(answer, instance.answer(a as usize, b as usize));

    // Exhaustive correctness sweep.
    let mut wrong = 0;
    for a in 0..m as u64 {
        for b in 0..m as u64 {
            if protocol.run(a, b) != instance.answer(a as usize, b as usize) {
                wrong += 1;
            }
        }
    }
    println!("exhaustive sweep: {wrong} wrong answers out of {}", m * m);
    assert_eq!(wrong, 0);

    let costs = protocol.costs();
    println!(
        "costs: max message {} bits | naive protocol {} bits | sqrt(m) anchor {:.1}",
        costs.max_message_bits, costs.naive_bits, costs.sqrt_m
    );
    Ok(())
}
