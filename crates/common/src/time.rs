//! Picosecond-resolution simulation time.
//!
//! DRAM timing parameters mix scales from nanoseconds (tRC = 45 ns) to
//! milliseconds (tREFW = 64 ms) and DDR4-2400's clock period is a
//! non-integral 833.33 ps, so the simulator keeps all time in integer
//! **picoseconds**. Two newtypes keep instants and durations apart:
//!
//! * [`Time`] — an instant, measured from simulation start.
//! * [`Span`] — a duration.
//!
//! `u64` picoseconds wrap after ~213 days of simulated time, far beyond any
//! experiment here (a full refresh window is 64 ms).
//!
//! # Examples
//!
//! ```
//! use twice_common::time::{Span, Time};
//!
//! let t0 = Time::ZERO;
//! let t1 = t0 + Span::from_ns(45);
//! assert_eq!(t1 - t0, Span::from_ns(45));
//! assert_eq!(Span::from_us(7) + Span::from_ns(800), Span::from_ns(7800));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A duration, in integer picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(u64);

/// An instant, in integer picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Span {
    /// The zero-length span.
    pub const ZERO: Span = Span(0);

    /// Creates a span from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Span {
        Span(ps)
    }

    /// Creates a span from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Span {
        Span(ns * 1_000)
    }

    /// Creates a span from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Span {
        Span(us * 1_000_000)
    }

    /// Creates a span from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Span {
        Span(ms * 1_000_000_000)
    }

    /// The span as picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The span as (truncated) nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Integer division rounding up: how many `step`s cover `self`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    #[inline]
    pub const fn div_ceil(self, step: Span) -> u64 {
        assert!(step.0 != 0, "div_ceil by zero span");
        self.0.div_ceil(step.0)
    }

    /// Saturating subtraction; returns [`Span::ZERO`] instead of underflowing.
    #[inline]
    pub const fn saturating_sub(self, rhs: Span) -> Span {
        Span(self.0.saturating_sub(rhs.0))
    }
}

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// Creates an instant from picoseconds since start.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Picoseconds since simulation start.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The span since an earlier instant, saturating at zero.
    #[inline]
    pub const fn saturating_since(self, earlier: Time) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// `self` advanced by `span`, checking for overflow.
    #[inline]
    pub const fn checked_add(self, span: Span) -> Option<Time> {
        match self.0.checked_add(span.0) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<Span> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Span) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Span;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Time) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl Sub<Span> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Span) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Add for Span {
    type Output = Span;
    #[inline]
    fn add(self, rhs: Span) -> Span {
        Span(self.0 + rhs.0)
    }
}

impl AddAssign for Span {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub for Span {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: Span) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl SubAssign for Span {
    #[inline]
    fn sub_assign(&mut self, rhs: Span) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Span {
    type Output = Span;
    #[inline]
    fn mul(self, rhs: u64) -> Span {
        Span(self.0 * rhs)
    }
}

impl Div<Span> for Span {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Span) -> u64 {
        self.0 / rhs.0
    }
}

impl Div<u64> for Span {
    type Output = Span;
    #[inline]
    fn div(self, rhs: u64) -> Span {
        Span(self.0 / rhs)
    }
}

impl Rem<Span> for Span {
    type Output = Span;
    #[inline]
    fn rem(self, rhs: Span) -> Span {
        Span(self.0 % rhs.0)
    }
}

impl Sum for Span {
    fn sum<I: Iterator<Item = Span>>(iter: I) -> Span {
        iter.fold(Span::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ns")
        } else if ps.is_multiple_of(1_000_000_000) {
            write!(f, "{}ms", ps / 1_000_000_000)
        } else if ps.is_multiple_of(1_000_000) {
            write!(f, "{}us", ps / 1_000_000)
        } else if ps.is_multiple_of(1_000) {
            write!(f, "{}ns", ps / 1_000)
        } else if ps >= 1_000_000 {
            // Large but non-integral in ns: fractional microseconds
            // (e.g. tREFI = 7812.5 ns prints as 7.8125us).
            write!(f, "{}us", ps as f64 / 1e6)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Span(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_scales() {
        assert_eq!(Span::from_ns(1).as_ps(), 1_000);
        assert_eq!(Span::from_us(1), Span::from_ns(1_000));
        assert_eq!(Span::from_ms(64), Span::from_us(64_000));
    }

    #[test]
    fn instant_arithmetic() {
        let t = Time::ZERO + Span::from_ns(100);
        assert_eq!((t + Span::from_ns(45)) - t, Span::from_ns(45));
        assert_eq!(t - Span::from_ns(100), Time::ZERO);
        assert_eq!(Time::ZERO.saturating_since(t), Span::ZERO);
        assert_eq!(t.saturating_since(Time::ZERO), Span::from_ns(100));
    }

    #[test]
    fn span_division() {
        // tREFW / tREFI = 8192 refresh intervals in a window.
        let refw = Span::from_ms(64);
        let refi = Span::from_ns(7_800);
        assert_eq!(refw / refi, 8205); // exact 64ms/7.8us
                                       // Using the JEDEC-style definition tREFI = tREFW / 8192:
        let refi_exact = refw / 8192;
        assert_eq!(refw / refi_exact, 8192);
    }

    #[test]
    fn div_ceil_counts_covering_steps() {
        assert_eq!(Span::from_ns(100).div_ceil(Span::from_ns(45)), 3);
        assert_eq!(Span::from_ns(90).div_ceil(Span::from_ns(45)), 2);
    }

    #[test]
    #[should_panic(expected = "div_ceil by zero")]
    fn div_ceil_zero_panics() {
        let _ = Span::from_ns(1).div_ceil(Span::ZERO);
    }

    #[test]
    fn display_picks_coarsest_unit() {
        assert_eq!(Span::from_ms(64).to_string(), "64ms");
        assert_eq!(Span::from_ns(45).to_string(), "45ns");
        assert_eq!(Span::from_ps(833).to_string(), "833ps");
        assert_eq!(Span::ZERO.to_string(), "0ns");
        assert_eq!((Time::ZERO + Span::from_ns(5)).to_string(), "t+5ns");
    }

    #[test]
    fn sum_of_spans() {
        let total: Span = (0..4).map(|_| Span::from_ns(10)).sum();
        assert_eq!(total, Span::from_ns(40));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(Time::from_ps(u64::MAX)
            .checked_add(Span::from_ps(1))
            .is_none());
        assert_eq!(
            Time::ZERO.checked_add(Span::from_ns(1)),
            Some(Time::from_ps(1000))
        );
    }
}
