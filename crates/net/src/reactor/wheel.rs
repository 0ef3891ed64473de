//! A slotted deadline wheel for connection timeouts.
//!
//! The blocking transport gives every socket its own `SO_RCVTIMEO`; with
//! thousands of multiplexed connections the reactor needs one shared
//! structure instead. Deadlines are hashed into coarse time slots
//! (16 ms granularity); arming is O(1), cancellation is free (each
//! connection carries a monotonically bumped sequence number, so a stale
//! wheel entry simply fails the sequence check when its slot comes up),
//! and deadlines beyond the wheel horizon are re-filed on every sweep of
//! their slot until their absolute fire time is reached.
//!
//! A deadline is filed into the tick *after* the one it falls in, so by
//! the time the cursor sweeps its slot the deadline has passed: an entry
//! fires at most one tick late and is never parked for a rotation. The
//! epoll wait budget is the distance to the first non-empty slot, O(slots)
//! whatever the number of armed entries.
//!
//! Stall detection keeps its existing resolution: the campaign's stall
//! observation timeout is `io_timeout()/12` (≈ 41 ms at the default
//! 500 ms), well above one 16 ms tick.

use std::time::{Duration, Instant};

/// Wheel tick granularity. Deadlines fire up to one tick late, never
/// early.
pub const TICK: Duration = Duration::from_millis(16);

/// Number of slots; `TICK * SLOTS` (~8 s) is the single-rotation
/// horizon. Longer deadlines park in their modulo slot and re-file.
const SLOTS: usize = 512;

#[derive(Debug, Clone, Copy)]
struct Armed {
    /// Slab index of the connection this deadline belongs to.
    conn: usize,
    /// The connection's deadline sequence at arm time; a mismatch at
    /// fire time means the deadline was cancelled or superseded.
    seq: u64,
    /// Absolute fire time (slots are coarse; this is exact).
    at: Instant,
}

/// The wheel. One per event loop, driven from the loop's own clock
/// reads — it never looks at the wall clock itself.
#[derive(Debug)]
pub struct Wheel {
    slots: Vec<Vec<Armed>>,
    /// The tick index the wheel has advanced through.
    cursor: u64,
    /// Loop start; tick indices are measured from here.
    epoch: Instant,
    armed: usize,
}

impl Wheel {
    pub fn new(now: Instant) -> Wheel {
        Wheel { slots: vec![Vec::new(); SLOTS], cursor: 0, epoch: now, armed: 0 }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.epoch);
        (since.as_millis() / TICK.as_millis()) as u64
    }

    fn slot_of(tick: u64) -> usize {
        (tick % SLOTS as u64) as usize
    }

    /// Arms a deadline `after` from `now` for connection `conn` with
    /// cancellation sequence `seq`.
    pub fn arm(&mut self, now: Instant, conn: usize, seq: u64, after: Duration) {
        let at = now + after;
        // The tick after the deadline's own, so the entry is due when
        // its slot is swept — and never a slot the cursor already passed.
        let tick = (self.tick_of(at) + 1).max(self.cursor + 1);
        self.slots[Self::slot_of(tick)].push(Armed { conn, seq, at });
        self.armed += 1;
    }

    /// Advances to `now`, invoking `fire(conn, seq)` for every expired
    /// deadline. Entries whose absolute time lies a rotation or more
    /// ahead are re-filed instead of fired.
    pub fn advance(&mut self, now: Instant, mut fire: impl FnMut(usize, u64)) {
        let target = self.tick_of(now);
        while self.cursor < target {
            self.cursor += 1;
            let slot = Self::slot_of(self.cursor);
            let drained = std::mem::take(&mut self.slots[slot]);
            for entry in drained {
                if entry.at <= now {
                    self.armed -= 1;
                    fire(entry.conn, entry.seq);
                } else {
                    // A later rotation's entry: it stays in its slot.
                    self.slots[slot].push(entry);
                }
            }
        }
    }

    /// Milliseconds until the next non-empty slot is swept — the epoll
    /// wait budget. Returns `cap` when nothing is armed.
    pub fn next_timeout_ms(&self, now: Instant, cap: u64) -> u64 {
        if self.armed == 0 {
            return cap;
        }
        let Some(tick) = (self.cursor + 1..=self.cursor + SLOTS as u64)
            .find(|&t| !self.slots[Self::slot_of(t)].is_empty())
        else {
            return cap;
        };
        let due = self.epoch + Duration::from_millis(tick * TICK.as_millis() as u64);
        // Round up so the wait never ends before the slot's tick starts.
        let ms = due.saturating_duration_since(now).as_nanos().div_ceil(1_000_000);
        u64::try_from(ms).unwrap_or(u64::MAX).min(cap)
    }

    /// How many deadlines are currently armed (stale entries included
    /// until their slot is swept).
    pub fn armed(&self) -> usize {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_the_deadline_not_before() {
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        w.arm(t0, 7, 1, Duration::from_millis(50));

        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(20), |c, s| fired.push((c, s)));
        assert!(fired.is_empty(), "fired early");

        w.advance(t0 + Duration::from_millis(80), |c, s| fired.push((c, s)));
        assert_eq!(fired, vec![(7, 1)]);
        assert_eq!(w.armed(), 0);
    }

    #[test]
    fn stale_sequences_are_delivered_for_the_owner_to_ignore() {
        // The wheel itself does not cancel; it hands (conn, seq) to the
        // loop, which compares seq against the connection's current one.
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        w.arm(t0, 3, 1, Duration::from_millis(10));
        w.arm(t0, 3, 2, Duration::from_millis(10));
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(64), |c, s| fired.push((c, s)));
        assert_eq!(fired.len(), 2);
    }

    #[test]
    fn horizon_overflow_refiles_until_due() {
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        // Beyond one rotation (512 * 16ms ≈ 8.2s).
        w.arm(t0, 1, 9, Duration::from_millis(12_000));
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(9_000), |c, s| fired.push((c, s)));
        assert!(fired.is_empty(), "fired a rotation early");
        assert_eq!(w.armed(), 1);
        w.advance(t0 + Duration::from_millis(12_100), |c, s| fired.push((c, s)));
        assert_eq!(fired, vec![(1, 9)]);
    }

    #[test]
    fn next_timeout_tracks_the_earliest_deadline() {
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        assert_eq!(w.next_timeout_ms(t0, 100), 100);
        w.arm(t0, 1, 1, Duration::from_millis(40));
        let ms = w.next_timeout_ms(t0, 100);
        assert!((30..=60).contains(&ms), "{ms}");
    }

    #[test]
    fn a_deadline_swept_in_its_own_tick_fires_within_two_ticks() {
        // The deadline falls in the middle of tick 5; the loop wakes at
        // the start of tick 5 (before the deadline) and sweeps, then
        // again shortly after. The entry must fire on the later sweep,
        // not one rotation (~8.2 s) later.
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        let deadline = TICK * 5 + TICK / 2;
        w.arm(t0, 4, 1, deadline);
        let mut fired = Vec::new();
        w.advance(t0 + TICK * 5 + Duration::from_millis(1), |c, s| fired.push((c, s)));
        assert!(fired.is_empty(), "fired before its deadline");
        w.advance(t0 + deadline + TICK * 2, |c, s| fired.push((c, s)));
        assert_eq!(fired, vec![(4, 1)]);
        assert_eq!(w.armed(), 0);
    }

    #[test]
    fn next_timeout_is_never_later_than_the_earliest_due_entry() {
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        // 100k superseded entries spread over the next two seconds, as a
        // busy loop leaves them behind, then one live early deadline.
        for i in 0..100_000u64 {
            let after = Duration::from_millis(200 + i % 1800);
            w.arm(t0, (i % 1000) as usize, i, after);
        }
        let now = t0 + Duration::from_millis(3);
        w.arm(now, 1_000_000, 1, Duration::from_millis(40));
        let wait = w.next_timeout_ms(now, 1_000);
        // Due once its slot (the tick after 43 ms) is swept: by 48 ms.
        assert!(wait <= 45, "waits {wait} ms past the earliest deadline");
        let mut fired = Vec::new();
        w.advance(now + Duration::from_millis(wait), |c, s| fired.push((c, s)));
        assert_eq!(fired, vec![(1_000_000, 1)], "the early entry was not due after the wait");
        // A cursor that lags the clock asks for no wait at all.
        assert_eq!(w.next_timeout_ms(t0 + Duration::from_millis(900), 1_000), 0);
    }
}
