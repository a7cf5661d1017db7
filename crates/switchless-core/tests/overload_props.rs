//! Property tests of the overload-control plane: for arbitrary call
//! sequences the token bucket never over-admits, and admission
//! accounting conserves (admitted + shed == offered) with every shed
//! attributed to exactly one reason, the first check failed in lattice
//! order.

use proptest::prelude::*;
use switchless_core::overload::{
    Deadline, OverloadController, OverloadParams, ShedReason, TokenBucket,
};

/// One scripted admission call: (cycles since previous call, inflight
/// depth, deadline budget — 0 for none).
type Arrival = (u64, u64, u64);

fn arrivals(max_len: usize) -> impl Strategy<Value = Vec<Arrival>> {
    prop::collection::vec((0u64..5_000, 0u64..64, 0u64..200), 1..max_len)
}

proptest! {
    /// A bucket of capacity C refilling every P cycles admits at most
    /// `C + elapsed/P` calls over any arrival pattern — the burst plus
    /// the sustained rate — and never goes negative or over capacity.
    #[test]
    fn token_bucket_never_over_admits(
        capacity in 0u64..20,
        period in 1u64..1_000,
        gaps in prop::collection::vec(0u64..3_000, 1..100),
    ) {
        let mut b = TokenBucket::new(capacity, period);
        let mut now = 0u64;
        let mut admitted = 0u64;
        for gap in gaps {
            now += gap;
            if b.try_take(now) {
                admitted += 1;
            }
            prop_assert!(b.tokens() <= capacity);
        }
        prop_assert!(admitted <= capacity + now / period);
    }

    /// Conservation and attribution: over any arrival script,
    /// admitted + shed == offered, every shed carries exactly one
    /// reason — the first failed check in lattice order (deadline,
    /// queue depth, rate) — and per-reason counts sum to the shed
    /// total.
    #[test]
    fn admission_accounting_conserves(script in arrivals(200)) {
        let mut c = OverloadController::new(
            OverloadParams::default()
                .with_max_inflight(16)
                .with_bucket(8, 500),
        );
        let mut now = 0u64;
        let (mut admitted, mut shed) = (0u64, 0u64);
        let mut by_reason = std::collections::BTreeMap::new();
        let offered = script.len() as u64;
        for (gap, inflight, budget) in script {
            now += gap;
            let deadline = (budget > 0).then(|| Deadline::after(now.saturating_sub(100), budget));
            let gate = if deadline.is_some_and(|d| d.expired(now)) {
                Some(ShedReason::DeadlineExpired)
            } else if inflight >= 16 {
                Some(ShedReason::QueueFull)
            } else {
                None
            };
            match c.admit(now, inflight, deadline) {
                Ok(()) => {
                    prop_assert_eq!(gate, None);
                    admitted += 1;
                }
                Err(r) => {
                    prop_assert_eq!(r, gate.unwrap_or(ShedReason::RateLimited));
                    shed += 1;
                    *by_reason.entry(r.name()).or_insert(0u64) += 1;
                }
            }
        }
        prop_assert_eq!(admitted + shed, offered);
        prop_assert_eq!(by_reason.values().sum::<u64>(), shed);
        for reason in by_reason.keys() {
            prop_assert!(ShedReason::ALL.iter().any(|r| r.name() == *reason));
        }
    }

    /// Deadline arithmetic: `expired` and `remaining` agree for any
    /// (issue, budget, now) triple, including saturation.
    #[test]
    fn deadline_expiry_agrees_with_remaining(
        issue in any::<u64>(),
        budget in any::<u64>(),
        advance in any::<u64>(),
    ) {
        let d = Deadline::after(issue, budget);
        let now = issue.saturating_add(advance);
        prop_assert_eq!(d.expired(now), d.remaining(now) == 0);
        // Inside the budget (no overflow), the deadline has not passed.
        if advance < budget && issue.checked_add(budget).is_some() {
            prop_assert!(!d.expired(now));
        }
    }
}
