//! Net-level golden pin for `PolicyValueNet` training and inference
//! passes.
//!
//! `conv_oracle.rs` pins one `Conv2d` at a time; this pins what the whole
//! network computes. Two training rounds (forward, backward, one Adam
//! step) are folded into an FNV-1a digest of every output, every
//! accumulated parameter gradient (`grad_snapshot`) and the batch-norm
//! running statistics (`norm_snapshot`). The training digests were
//! recorded from the network whose convolutions formed the weight
//! gradient through an im2col matrix and ran the three head convolutions
//! as three separate layers. A second digest folds the outputs of one
//! inference forward run after those rounds, so it reads trained weights
//! and non-trivial running statistics; it was recorded from the network
//! whose layers cached their inputs and allocated every activation. Any
//! rewrite of the network or its kernels must reproduce both bit for bit,
//! at every matmul thread count, and when two passes share the kernel
//! pool at once.

use rlnoc_nn::optim::Adam;
use rlnoc_nn::{kernels, PolicyValueConfig, PolicyValueNet, Tensor};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: u64, values: &[f32]) -> u64 {
    values.iter().fold(hash, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    })
}

fn wave(shape: &[usize], step: f32, phase: f32) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|v| (v as f32 * step + phase).sin()).collect(),
        shape,
    )
    .unwrap()
}

/// Digests of two training rounds of a freshly seeded network on `batch`
/// states, and of one inference forward after them.
fn digests(config: PolicyValueConfig, batch: usize) -> (u64, u64) {
    let (n, side) = (config.n, config.input_side);
    let mut net = PolicyValueNet::new(config, 17);
    let mut opt = Adam::new(1e-3);
    let mut hash = FNV_OFFSET;
    for round in 0..2 {
        let phase = round as f32;
        let x = wave(&[batch, 1, side, side], 0.37, phase);
        let out = net.train_pass(&x, |_, grad| {
            grad.coord_logits
                .copy_from_slice(wave(&[batch, 4, n], 0.11, phase).as_slice());
            grad.dir
                .copy_from_slice(wave(&[batch, 1], 0.7, phase).as_slice());
            grad.value
                .copy_from_slice(wave(&[batch, 1], 0.3, phase).as_slice());
        });
        hash = fold(hash, out.coord_logits.as_slice());
        hash = fold(hash, out.dir.as_slice());
        hash = fold(hash, out.value.as_slice());
        for g in net.grad_snapshot() {
            hash = fold(hash, g.as_slice());
        }
        hash = fold(hash, &net.norm_snapshot());
        opt.step(&mut net.params_mut());
    }
    let x = wave(&[batch, 1, side, side], 0.29, 2.0);
    let out = net.forward(&x);
    let mut inference = FNV_OFFSET;
    inference = fold(inference, out.coord_logits.as_slice());
    inference = fold(inference, out.dir.as_slice());
    inference = fold(inference, out.value.as_slice());
    (hash, inference)
}

/// `(network, n, batch, training digest, inference digest)`. Batch 45 is
/// the longest episode the learner trains on at once; paper(4) covers the
/// four-stage trunk with poolings and `in_c` up to 128.
const CASES: &[(&str, usize, usize, u64, u64)] = &[
    ("small", 4, 1, 0x40a0_4746_5afc_85bc, 0xd033_cf20_0a2f_60fc),
    ("small", 4, 45, 0xf992_b209_14df_b78c, 0xf956_abeb_6762_efe7),
    ("small", 8, 1, 0x734e_c3f7_4a91_ec89, 0x2abd_3ccd_b52d_7343),
    ("small", 8, 45, 0x444d_cc38_ce46_e065, 0x7930_8d32_69b3_e7f7),
    ("paper", 4, 1, 0x7212_c313_1999_a237, 0xd8e5_2858_910b_fb79),
    ("paper", 4, 45, 0xa271_9800_e80b_65fd, 0xfc21_a2d4_a45d_2feb),
];

/// One test function on purpose: it pins the global matmul thread
/// setting, so no sibling test in this binary may race it.
#[test]
fn training_and_inference_match_golden_digests() {
    let previous = kernels::matmul_threads();
    let mut failures = Vec::new();
    for threads in [1, 2, 3] {
        kernels::set_matmul_threads(threads);
        for &(name, n, batch, want_training, want_inference) in CASES {
            let config = match name {
                "small" => PolicyValueConfig::small(n),
                _ => PolicyValueConfig::paper(n),
            };
            let (training, inference) = digests(config, batch);
            for (pass, got, want) in [
                ("training", training, want_training),
                ("inference", inference, want_inference),
            ] {
                if got != want {
                    failures.push(format!(
                        "{name}({n}), batch {batch}, {threads} threads, {pass}: \
                         {got:#018x} (want {want:#018x})"
                    ));
                }
            }
        }
    }
    // Two passes at once at matmul 2: one of them holds the kernel pool,
    // so the other finds it busy and runs its splits inline. Both must
    // still match the pins.
    kernels::set_matmul_threads(2);
    let &(name, n, batch, want_training, want_inference) = CASES
        .iter()
        .find(|c| (c.0, c.1, c.2) == ("small", 8, 45))
        .expect("a small(8) batch-45 pin");
    let concurrent = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| scope.spawn(move || digests(PolicyValueConfig::small(n), batch)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("concurrent digest"))
            .collect::<Vec<_>>()
    });
    for (i, &got) in concurrent.iter().enumerate() {
        if got != (want_training, want_inference) {
            failures.push(format!(
                "{name}({n}), batch {batch}, 2 threads, concurrent run {i}: \
                 {got:x?} (want {:x?})",
                (want_training, want_inference)
            ));
        }
    }
    kernels::set_matmul_threads(previous);
    assert!(
        failures.is_empty(),
        "digests differ:\n{}",
        failures.join("\n")
    );
}
