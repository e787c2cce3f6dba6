//! Hyperperiod arithmetic.
//!
//! The hyperperiod Γ is the least common multiple of the periods of all
//! task graphs. In traditional real-time computing, Γ ÷ Pᵢ copies of task
//! graph *i* must all meet their deadlines within the hyperperiod; the
//! scheduler in `crusade-sched` exploits periodic-interval arithmetic (the
//! paper's *association array*) to avoid materialising those copies, but
//! the quantities themselves are defined here.

use crate::{Nanos, ValidateSpecError};

/// Greatest common divisor of two nanosecond quantities.
///
/// ```
/// use crusade_model::{hyperperiod::gcd, Nanos};
/// assert_eq!(gcd(Nanos::from_nanos(12), Nanos::from_nanos(18)), Nanos::from_nanos(6));
/// ```
pub fn gcd(a: Nanos, b: Nanos) -> Nanos {
    let (mut a, mut b) = (a.as_nanos(), b.as_nanos());
    // Equal periods are the common case on a schedule board.
    if a == b || b == 0 {
        return Nanos::from_nanos(a);
    }
    if a == 0 {
        return Nanos::from_nanos(b);
    }
    // Binary (Stein's) algorithm: shifts and subtractions instead of the
    // 64-bit divisions of Euclid's, which dominate the collision checks
    // of every timeline search.
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return Nanos::from_nanos(a << shift);
        }
    }
}

/// Least common multiple of two nanosecond quantities.
///
/// # Errors
///
/// Returns [`ValidateSpecError::HyperperiodOverflow`] when the result does
/// not fit in `u64` nanoseconds.
pub fn lcm(a: Nanos, b: Nanos) -> Result<Nanos, ValidateSpecError> {
    if a.is_zero() || b.is_zero() {
        return Ok(Nanos::ZERO);
    }
    let g = gcd(a, b).as_nanos();
    (a.as_nanos() / g)
        .checked_mul(b.as_nanos())
        .map(Nanos::from_nanos)
        .ok_or(ValidateSpecError::HyperperiodOverflow)
}

/// The hyperperiod of a set of periods: their least common multiple.
///
/// # Errors
///
/// Returns [`ValidateSpecError::Empty`] for an empty iterator and
/// [`ValidateSpecError::HyperperiodOverflow`] on overflow.
///
/// ```
/// use crusade_model::{hyperperiod::hyperperiod, Nanos};
///
/// # fn main() -> Result<(), crusade_model::ValidateSpecError> {
/// let h = hyperperiod([
///     Nanos::from_micros(25),
///     Nanos::from_micros(100),
///     Nanos::from_millis(1),
/// ])?;
/// assert_eq!(h, Nanos::from_millis(1));
/// # Ok(())
/// # }
/// ```
pub fn hyperperiod<I: IntoIterator<Item = Nanos>>(periods: I) -> Result<Nanos, ValidateSpecError> {
    let mut iter = periods.into_iter();
    let first = iter.next().ok_or(ValidateSpecError::Empty)?;
    iter.try_fold(first, lcm)
}

/// How many activations ("copies") of a graph with period `period` occur in
/// hyperperiod `gamma`.
///
/// # Errors
///
/// Returns [`ValidateSpecError::ZeroPeriod`] when `period` is zero — a
/// pathological specification is reported as a typed error rather than a
/// panic, so pre-synthesis analyses can surface it as a diagnostic.
pub fn copies(gamma: Nanos, period: Nanos) -> Result<u64, ValidateSpecError> {
    if period.is_zero() {
        return Err(ValidateSpecError::ZeroPeriod);
    }
    Ok(gamma / period)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(
            gcd(Nanos::from_nanos(0), Nanos::from_nanos(5)),
            Nanos::from_nanos(5)
        );
        assert_eq!(
            gcd(Nanos::from_nanos(5), Nanos::from_nanos(0)),
            Nanos::from_nanos(5)
        );
        assert_eq!(
            gcd(Nanos::from_nanos(48), Nanos::from_nanos(36)),
            Nanos::from_nanos(12)
        );
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(
            lcm(Nanos::from_nanos(4), Nanos::from_nanos(6)).unwrap(),
            Nanos::from_nanos(12)
        );
        assert_eq!(lcm(Nanos::ZERO, Nanos::from_nanos(6)).unwrap(), Nanos::ZERO);
    }

    #[test]
    fn lcm_overflow_reported() {
        let big = Nanos::from_nanos(u64::MAX - 1);
        let other = Nanos::from_nanos(u64::MAX - 2);
        assert_eq!(
            lcm(big, other).unwrap_err(),
            ValidateSpecError::HyperperiodOverflow
        );
    }

    #[test]
    fn hyperperiod_of_paper_range() {
        // Paper periods range from 25 us to 1 minute; harmonic choices keep
        // the hyperperiod at 1 minute.
        let h = hyperperiod([
            Nanos::from_micros(25),
            Nanos::from_millis(10),
            Nanos::from_secs(1),
            Nanos::from_secs(60),
        ])
        .unwrap();
        assert_eq!(h, Nanos::from_secs(60));
        assert_eq!(copies(h, Nanos::from_micros(25)).unwrap(), 2_400_000);
        assert_eq!(copies(h, Nanos::from_secs(60)).unwrap(), 1);
    }

    #[test]
    fn hyperperiod_empty_is_error() {
        assert_eq!(
            hyperperiod(std::iter::empty()).unwrap_err(),
            ValidateSpecError::Empty
        );
    }

    #[test]
    fn non_harmonic_periods() {
        let h = hyperperiod([Nanos::from_micros(30), Nanos::from_micros(45)]).unwrap();
        assert_eq!(h, Nanos::from_micros(90));
        assert_eq!(copies(h, Nanos::from_micros(30)).unwrap(), 3);
        assert_eq!(copies(h, Nanos::from_micros(45)).unwrap(), 2);
    }

    #[test]
    fn zero_period_is_typed_error() {
        assert_eq!(
            copies(Nanos::from_secs(1), Nanos::ZERO).unwrap_err(),
            ValidateSpecError::ZeroPeriod
        );
    }
}
