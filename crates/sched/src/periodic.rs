//! Periodic busy intervals and exact collision arithmetic.
//!
//! A task (or message) of a task graph with period *P* that is scheduled at
//! offset *s* for duration *d* occupies its processing element during
//! `[s + kP, s + kP + d)` for every activation *k* of the hyperperiod. The
//! paper's *association array* avoids materialising the Γ ÷ P copies of
//! each task; this module goes one step further and reasons about the
//! entire (bi-infinite) periodic occupancy pattern in O(1) using gcd
//! arithmetic, which is exact for the steady-state schedule because every
//! period divides the hyperperiod.
//!
//! The key fact: two periodic intervals `(s, d, P)` and `(s', d', P')`
//! overlap for *some* pair of activations iff, with `g = gcd(P, P')` and
//! `r = (s' − s) mod g`, either `r < d` or `g − r < d'`.

use serde::{Deserialize, Serialize};

use crusade_model::Nanos;

/// A periodically repeating half-open busy interval `[start + k·period,
/// start + k·period + duration)`.
///
/// # Examples
///
/// ```
/// use crusade_model::Nanos;
/// use crusade_sched::PeriodicInterval;
///
/// let a = PeriodicInterval::new(Nanos::from_nanos(0), Nanos::from_nanos(30), Nanos::from_nanos(100));
/// let b = PeriodicInterval::new(Nanos::from_nanos(50), Nanos::from_nanos(30), Nanos::from_nanos(100));
/// assert!(!a.collides(&b)); // [0,30) and [50,80) per 100 never meet
///
/// let c = PeriodicInterval::new(Nanos::from_nanos(20), Nanos::from_nanos(30), Nanos::from_nanos(100));
/// assert!(a.collides(&c)); // [0,30) overlaps [20,50)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeriodicInterval {
    start: Nanos,
    duration: Nanos,
    period: Nanos,
}

impl PeriodicInterval {
    /// Creates a periodic interval.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, if `duration` is zero, or if the
    /// duration exceeds the period (utilisation above one on a single
    /// resource can never be scheduled).
    pub fn new(start: Nanos, duration: Nanos, period: Nanos) -> Self {
        assert!(!period.is_zero(), "period must be nonzero");
        assert!(!duration.is_zero(), "duration must be nonzero");
        assert!(
            duration <= period,
            "duration {duration} exceeds period {period}"
        );
        PeriodicInterval {
            start,
            duration,
            period,
        }
    }

    /// Offset of the first occurrence.
    #[inline]
    pub fn start(&self) -> Nanos {
        self.start
    }

    /// Busy duration of each occurrence.
    #[inline]
    pub fn duration(&self) -> Nanos {
        self.duration
    }

    /// Finish instant of the first occurrence.
    #[inline]
    pub fn finish(&self) -> Nanos {
        self.start + self.duration
    }

    /// Repetition period.
    #[inline]
    pub fn period(&self) -> Nanos {
        self.period
    }

    /// Whether any occurrence of `self` overlaps any occurrence of
    /// `other`, over the whole (bi-infinite) periodic pattern.
    pub fn collides(&self, other: &PeriodicInterval) -> bool {
        let g = crusade_model::hyperperiod::gcd(self.period, other.period);
        let d = self.duration.as_nanos();
        let d2 = other.duration.as_nanos();
        let g_ns = g.as_nanos();
        if d + d2 > g_ns {
            // The two patterns cannot avoid each other at all.
            return true;
        }
        let r = sub_mod(other.start.as_nanos(), self.start.as_nanos(), g_ns);
        r < d || g_ns - r < d2
    }

    /// The earliest start `t ≥ from` at which an interval of `self`'s
    /// duration and period would *not* collide with `other`, or `None` if
    /// no such offset exists (the durations jointly exceed `gcd` of the
    /// periods, so every offset collides).
    ///
    /// Used by the timeline's first-fit search: when a candidate start
    /// collides, this computes the next start worth trying against this
    /// particular occupant.
    pub fn earliest_clear(&self, other: &PeriodicInterval, from: Nanos) -> Option<Nanos> {
        let probe = PeriodicInterval {
            start: from,
            ..*self
        };
        if !probe.collides(other) {
            return Some(from);
        }
        let g = crusade_model::hyperperiod::gcd(self.period, other.period).as_nanos();
        let d = self.duration.as_nanos();
        let d2 = other.duration.as_nanos();
        if d + d2 > g {
            return None;
        }
        // r(t) = (other.start − t) mod g decreases by one as t increases by
        // one; we need r ∈ [d2 … g − d]: the gap after `other`'s occurrence.
        //
        // Derivation: `probe` at start t collides iff r' = (s' − t) mod g
        // satisfies r' > g − d2 (tail of other ahead of us) or r' < ...
        // — equivalently, relative offset of other w.r.t. t must leave
        // [t, t+d) clear, i.e. (s' − t) mod g ∈ [d ... g − d2] must *fail*;
        // wait: collision iff r < d_other_side. Work with
        // r = (s' − t) mod g and the collision predicate from `collides`
        // with roles (self=probe at t): collide iff r < d? No: `collides`
        // computes r = (other.start − self.start) mod g and tests
        // r < self.duration || g − r < other.duration. We need the smallest
        // x ≥ 0 with r(from + x) ∉ collision region, where
        // r(from + x) = (r0 − x) mod g and the clear region is
        // [d, g − d2].
        let r0 = sub_mod(other.start.as_nanos(), from.as_nanos(), g);
        debug_assert!(r0 < d || g - r0 < d2);
        let x = if r0 > g - d2 {
            // Decrease r down to the top of the clear region, g − d2.
            r0 - (g - d2)
        } else {
            // r0 < d: decrease past zero, wrapping to g − 1, down to g − d2.
            r0 + d2
        };
        Some(from + Nanos::from_nanos(x))
    }
}

/// `(a − b) mod m` in `[0, m)`, without leaving `u64`.
#[inline]
fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    let (a, b) = (a % m, b % m);
    if a >= b {
        a - b
    } else {
        a + (m - b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pi(start: u64, dur: u64, period: u64) -> PeriodicInterval {
        PeriodicInterval::new(
            Nanos::from_nanos(start),
            Nanos::from_nanos(dur),
            Nanos::from_nanos(period),
        )
    }

    #[test]
    fn sub_mod_matches_signed_arithmetic() {
        let max = u64::MAX;
        for (a, b, m) in [
            (0, 0, 1),
            (5, 7, 3),
            (7, 5, 3),
            (max, 0, 97),
            (0, max, 97),
            (max - 1, max, max),
            (max, max - 1, 1 << 40),
        ] {
            let m128 = i128::from(m);
            let want = ((i128::from(a) - i128::from(b)) % m128 + m128) % m128;
            assert_eq!(i128::from(sub_mod(a, b, m)), want, "({a} - {b}) mod {m}");
        }
    }

    #[test]
    fn same_period_disjoint_offsets() {
        let a = pi(0, 10, 100);
        assert!(!a.collides(&pi(10, 10, 100)));
        assert!(!a.collides(&pi(90, 10, 100)));
        assert!(a.collides(&pi(95, 10, 100))); // wraps into [0,5)
        assert!(a.collides(&pi(5, 10, 100)));
        assert!(a.collides(&pi(0, 10, 100)));
    }

    #[test]
    fn harmonic_periods() {
        // a runs [0,10) every 50; b runs [20,30) every 100 -> never meet.
        let a = pi(0, 10, 50);
        let b = pi(20, 10, 100);
        assert!(!a.collides(&b));
        // c runs [55,65) every 100: its offset mod 50 is 5 -> overlaps a.
        let c = pi(55, 10, 100);
        assert!(a.collides(&c));
        assert!(c.collides(&a)); // symmetry
    }

    #[test]
    fn coprime_like_periods_with_tight_gcd() {
        // periods 60 and 90: gcd 30. durations 20 and 15 sum to 35 > 30:
        // unavoidable collision whatever the offsets.
        let a = pi(0, 20, 60);
        let b = pi(25, 15, 90);
        assert!(a.collides(&b));
        // durations 10 and 10 sum to 20 <= 30: offsets decide.
        let a = pi(0, 10, 60);
        let b = pi(10, 10, 90);
        assert!(!a.collides(&b)); // r = 10, clear region [10, 20]
        let c = pi(5, 10, 90);
        assert!(a.collides(&c));
    }

    #[test]
    fn collision_matches_naive_unrolling() {
        // Exhaustive cross-check against explicit copy enumeration over the
        // hyperperiod for a grid of cases.
        for &(s1, d1, p1, s2, d2, p2) in &[
            (0u64, 3u64, 12u64, 5u64, 2u64, 18u64),
            (1, 4, 12, 7, 3, 8),
            (0, 2, 6, 3, 2, 10),
            (2, 5, 20, 9, 5, 15),
            (0, 1, 4, 2, 1, 6),
            (3, 3, 9, 3, 3, 12),
        ] {
            let a = pi(s1, d1, p1);
            let b = pi(s2, d2, p2);
            let gamma = (p1
                / crusade_model::hyperperiod::gcd(Nanos::from_nanos(p1), Nanos::from_nanos(p2))
                    .as_nanos())
                * p2;
            let mut naive = false;
            'outer: for k in 0..(gamma / p1) {
                for k2 in 0..(gamma / p2) {
                    // Compare within one hyperperiod window, with wraparound
                    // handled by also checking shifted copies.
                    for shift in [0i128, gamma as i128, -(gamma as i128)] {
                        let a0 = (s1 + k * p1) as i128;
                        let b0 = (s2 + k2 * p2) as i128 + shift;
                        if a0 < b0 + d2 as i128 && b0 < a0 + d1 as i128 {
                            naive = true;
                            break 'outer;
                        }
                    }
                }
            }
            assert_eq!(
                a.collides(&b),
                naive,
                "mismatch for ({s1},{d1},{p1}) vs ({s2},{d2},{p2})"
            );
        }
    }

    #[test]
    fn earliest_clear_returns_noncolliding_start() {
        let occupied = pi(0, 30, 100);
        let probe = pi(0, 20, 100);
        let t = probe
            .earliest_clear(&occupied, Nanos::from_nanos(5))
            .unwrap();
        assert_eq!(t, Nanos::from_nanos(30));
        let placed = pi(t.as_nanos(), 20, 100);
        assert!(!placed.collides(&occupied));
    }

    #[test]
    fn earliest_clear_already_clear_is_identity() {
        let occupied = pi(0, 30, 100);
        let probe = pi(0, 20, 100);
        assert_eq!(
            probe.earliest_clear(&occupied, Nanos::from_nanos(40)),
            Some(Nanos::from_nanos(40))
        );
    }

    #[test]
    fn earliest_clear_wraps_past_zero() {
        // Occupied tail [90,100) wrapping; probe of 20 starting at 85
        // collides; next clear start is 0 mod 100... i.e. x = r0 + d2.
        let occupied = pi(90, 10, 100);
        let probe = pi(0, 20, 100);
        let t = probe
            .earliest_clear(&occupied, Nanos::from_nanos(85))
            .unwrap();
        let placed = pi(t.as_nanos(), 20, 100);
        assert!(!placed.collides(&occupied));
        assert!(t >= Nanos::from_nanos(85));
    }

    #[test]
    fn earliest_clear_impossible() {
        // gcd 10, durations 6 + 6 = 12 > 10: no offset works.
        let occupied = pi(0, 6, 20);
        let probe = pi(0, 6, 30);
        assert!(probe.earliest_clear(&occupied, Nanos::ZERO).is_none());
        assert!(probe.collides(&occupied));
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn duration_beyond_period_rejected() {
        let _ = pi(0, 101, 100);
    }

    #[test]
    fn full_period_occupancy_collides_with_everything() {
        let hog = pi(0, 100, 100);
        assert!(hog.collides(&pi(37, 1, 300)));
    }
}
