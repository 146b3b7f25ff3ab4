//! One retry discipline for every plane.
//!
//! [`MAX_ATTEMPTS`] bounds how many attempts a plane makes before it
//! gives up on a target. No plane blocks in a retry sleep: each runs its
//! own loop and moves on to the next target when one fails.
//!
//! Its readers: the resolver's holder sweep (`MAX_ATTEMPTS` holders
//! before the producer is force-replayed) and a home node's submission
//! failover (`MAX_ATTEMPTS` sends of one batch).

/// Total attempts including the first (1 = no retry).
pub const MAX_ATTEMPTS: u32 = 4;
