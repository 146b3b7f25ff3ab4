//! One retry discipline for every plane.
//!
//! A [`RetryPolicy`] bounds how many attempts a plane makes before it
//! gives up on a target. No plane blocks in a retry sleep: each runs its
//! own loop and moves on to the next target when one fails.
//!
//! There is one policy, `RetryPolicy::default()`, and no knob that
//! swaps it. Its readers: the resolver's holder sweep (`max_attempts`
//! holders before the producer is force-replayed) and a home node's
//! submission failover (`max_attempts` sends of one batch).

/// Bounded attempts. `Default` gives 4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retry).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4 }
    }
}
