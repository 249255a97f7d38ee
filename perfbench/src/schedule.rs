//! The open-loop request schedule: which tenant and operation each
//! request carries, and when it is due.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed always offers the same traffic. The generator draws from its own
//! SplitMix64 stream rather than the simulator's RNG, so a change to the
//! program can never change the inputs it is measured on.

use std::time::Duration;

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
#[must_use]
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// When request `k` is due, measured from the start of the schedule, at
/// a fixed `rate` in requests per second.
#[must_use]
pub fn intended_offset(k: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(k as f64 / rate)
}

/// The request operations the generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `POST /tenants/{n}/step {"minutes":1}`.
    Step,
    /// `POST /tenants/{n}/observe` with one sensor reading.
    Observe,
    /// `GET /tenants/{n}/setpoints` (trial tenants only).
    Setpoints,
    /// `GET /tenants/{n}/telemetry?from=<cursor>`.
    Tap,
    /// `GET /tenants/{n}/snapshot`.
    Snapshot,
    /// `POST /tenants/{n}/restore` of that tenant's last snapshot.
    Restore,
}

impl Op {
    /// Every operation, in reporting order.
    pub const ALL: [Op; 6] = [
        Op::Step,
        Op::Observe,
        Op::Setpoints,
        Op::Tap,
        Op::Snapshot,
        Op::Restore,
    ];

    /// The metric-name label of the operation.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Op::Step => "step",
            Op::Observe => "observe",
            Op::Setpoints => "setpoints",
            Op::Tap => "tap",
            Op::Snapshot => "snapshot",
            Op::Restore => "restore",
        }
    }

    /// Position in [`Op::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        Op::ALL.iter().position(|&op| op == self).expect("listed")
    }
}

/// The scenario family of a hosted tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The bundled afternoon trial (sweep `trial` scenario).
    Trial,
    /// The bundled chaos scenario.
    Chaos,
    /// The bundled MPC office scenario.
    Mpc,
}

impl Kind {
    /// The metric-name label of the family.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Trial => "trial",
            Kind::Chaos => "chaos",
            Kind::Mpc => "mpc",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Index of the target tenant.
    pub tenant: usize,
    /// The operation.
    pub op: Op,
}

/// Weights of the operations in a seeded mix, in [`Op::ALL`] order.
pub type Mix = [u64; 6];

/// Only steps.
pub const STEPS_ONLY: Mix = [1, 0, 0, 0, 0, 0];

/// Builds `count` requests that visit the tenants round-robin in a seeded
/// order, each with an operation drawn from `mix`. `steps_only` marks
/// tenants that receive nothing but steps (the mirror). Setpoints go only
/// to trial tenants, and a restore only to a tenant with an earlier
/// snapshot in the schedule; where the draw is not allowed the request
/// becomes a step.
#[must_use]
pub fn plan(
    kinds: &[Kind],
    steps_only: &[bool],
    mix: &Mix,
    count: usize,
    seed: u64,
) -> Vec<Planned> {
    let order = permutation(kinds.len(), seed);
    let mut rng = SplitMix::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    let total: u64 = mix.iter().sum();
    let mut has_snapshot = vec![false; kinds.len()];
    (0..count)
        .map(|k| {
            let tenant = order[k % order.len()];
            let mut draw = rng.below(total);
            let mut op = Op::Step;
            for (candidate, weight) in Op::ALL.iter().zip(mix) {
                if draw < *weight {
                    op = *candidate;
                    break;
                }
                draw -= weight;
            }
            let allowed = !steps_only[tenant]
                && match op {
                    Op::Setpoints => kinds[tenant] == Kind::Trial,
                    Op::Restore => has_snapshot[tenant],
                    _ => true,
                };
            let op = if allowed { op } else { Op::Step };
            if op == Op::Snapshot {
                has_snapshot[tenant] = true;
            }
            Planned { tenant, op }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(1000, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_eq!(a, permutation(1000, 7));
        assert_ne!(a, permutation(1000, 8));
    }

    #[test]
    fn intended_times_follow_the_fixed_rate() {
        assert_eq!(intended_offset(0, 250.0), Duration::ZERO);
        assert_eq!(intended_offset(250, 250.0), Duration::from_secs(1));
        assert_eq!(intended_offset(5, 1000.0), Duration::from_millis(5));
    }

    #[test]
    fn plan_visits_every_tenant_once_per_round() {
        let kinds = vec![Kind::Trial; 10];
        let planned = plan(&kinds, &[false; 10], &STEPS_ONLY, 30, 3);
        for round in planned.chunks(10) {
            let mut seen: Vec<usize> = round.iter().map(|p| p.tenant).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        }
        assert!(planned.iter().all(|p| p.op == Op::Step));
        assert_eq!(planned, plan(&kinds, &[false; 10], &STEPS_ONLY, 30, 3));
    }

    #[test]
    fn plan_respects_op_eligibility() {
        let kinds = [Kind::Trial, Kind::Chaos, Kind::Mpc, Kind::Trial];
        let steps_only = [false, false, false, true];
        let planned = plan(&kinds, &steps_only, &[1, 1, 1, 1, 1, 1], 4000, 11);
        let mut snapshotted = [false; 4];
        for p in &planned {
            match p.op {
                Op::Setpoints => assert_eq!(kinds[p.tenant], Kind::Trial),
                Op::Restore => assert!(snapshotted[p.tenant]),
                Op::Snapshot => snapshotted[p.tenant] = true,
                _ => {}
            }
            if steps_only[p.tenant] {
                assert_eq!(p.op, Op::Step);
            }
        }
        for op in Op::ALL {
            assert!(planned.iter().any(|p| p.op == op), "{op:?} is drawn");
        }
    }
}
