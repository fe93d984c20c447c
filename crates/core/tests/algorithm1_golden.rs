//! Golden fingerprints of Algorithm 1 and everything built on its
//! candidate scan: the four rollouts, and the action sequences of the two
//! greedy selectors.
//!
//! Each design is hashed (FNV-1a, 64 bit) as its loops in insertion order
//! followed by the bits of its average hop count, so any change to
//! enumeration order, tie-breaking, direction choice or overlap-pressure
//! arithmetic shows up here. The pins cover square grids 3x3 to 8x8 at caps
//! `N − 1`, `N`, `N + 2` and `2(N − 1)`, plus a 4x6 grid.

use rlnoc_core::greedy::{completion_action, greedy_action};
use rlnoc_core::rollout::{best_connected, frugal_rollout, greedy_rollout, skeleton_rollout};
use rlnoc_core::{Environment, LoopAction, RouterlessEnv};
use rlnoc_topology::{Grid, Topology};

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn action(&mut self, a: LoopAction) {
        for v in [a.x1, a.y1, a.x2, a.y2] {
            self.word(v as u64);
        }
        self.word(u64::from(a.dir.as_bit()));
    }

    /// Loops in insertion order, then the average hop count's bits; a
    /// missing design hashes as one marker word.
    fn design(&mut self, t: Option<&Topology>) {
        let Some(t) = t else {
            self.word(u64::MAX);
            return;
        };
        self.word(t.loops().len() as u64);
        for &l in t.loops() {
            self.action(l.into());
        }
        self.word(t.average_hops().to_bits());
    }
}

/// Every `(grid, cap)` pinned below.
fn cases() -> Vec<(Grid, u32)> {
    let mut out = Vec::new();
    for n in 3..=8usize {
        let g = Grid::square(n).unwrap();
        let n = n as u32;
        for cap in [n - 1, n, n + 2, 2 * (n - 1)] {
            out.push((g, cap));
        }
    }
    let g = Grid::new(4, 6).unwrap();
    for cap in [5, 6, 8, 10] {
        out.push((g, cap));
    }
    out
}

fn fingerprint(mut f: impl FnMut(&mut Fnv, Grid, u32)) -> u64 {
    let mut h = Fnv::new();
    for (g, cap) in cases() {
        f(&mut h, g, cap);
    }
    h.0
}

#[test]
fn greedy_rollout_golden() {
    let got = fingerprint(|h, g, cap| h.design(Some(&greedy_rollout(g, cap))));
    assert_eq!(
        got, 0x5d65_ea72_47f5_a010,
        "greedy_rollout fingerprint {got:#018x}"
    );
}

#[test]
fn skeleton_rollout_golden() {
    let got = fingerprint(|h, g, cap| h.design(skeleton_rollout(g, cap).as_ref()));
    assert_eq!(
        got, 0xa2a2_9f1d_9e9e_f373,
        "skeleton_rollout fingerprint {got:#018x}"
    );
}

#[test]
fn frugal_rollout_golden() {
    let got = fingerprint(|h, g, cap| {
        for seed in 0..3 {
            h.design(Some(&frugal_rollout(g, cap, seed)));
        }
    });
    assert_eq!(
        got, 0xf07d_c0d3_31e4_fba7,
        "frugal_rollout fingerprint {got:#018x}"
    );
}

#[test]
fn best_connected_golden() {
    let got = fingerprint(|h, g, cap| h.design(best_connected(g, cap, 3, 0).as_ref()));
    assert_eq!(
        got, 0xf690_4a6d_f2ae_dfc7,
        "best_connected fingerprint {got:#018x}"
    );
}

/// Applies a fixed two-action prefix picked from `legal_actions`, hashing
/// the full `legal_actions` list before each pick, then hashes the action
/// sequence `select` produces until it returns `None`.
fn trajectory(h: &mut Fnv, g: Grid, cap: u32, select: fn(&RouterlessEnv) -> Option<LoopAction>) {
    let mut env = RouterlessEnv::new(g, cap);
    for i in 0..2 {
        let legal = env.legal_actions();
        h.word(legal.len() as u64);
        for &a in &legal {
            h.action(a);
        }
        if legal.is_empty() {
            break;
        }
        assert_eq!(env.apply(legal[(7 * i + 3) % legal.len()]), 0.0);
    }
    while let Some(a) = select(&env) {
        h.action(a);
        assert_eq!(env.apply(a), 0.0, "selector proposed illegal {a:?}");
    }
    h.word(env.average_hops().to_bits());
}

#[test]
fn completion_action_trajectory_golden() {
    let got = fingerprint(|h, g, cap| trajectory(h, g, cap, completion_action));
    assert_eq!(
        got, 0x7bd4_89c5_c152_9db2,
        "completion_action fingerprint {got:#018x}"
    );
}

#[test]
fn greedy_action_trajectory_golden() {
    let got = fingerprint(|h, g, cap| trajectory(h, g, cap, greedy_action));
    assert_eq!(
        got, 0x66b3_ee79_ce10_93b1,
        "greedy_action fingerprint {got:#018x}"
    );
}
