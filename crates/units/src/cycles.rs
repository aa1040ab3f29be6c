//! Cycle-domain quantities: absolute timestamps and durations in core clock
//! cycles.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use crate::energy::{Hertz, Seconds};

/// An absolute point on a core's cycle timeline.
///
/// `Cycle` is a *timestamp*; [`Cycles`] is a *duration*. The arithmetic is
/// restricted accordingly: two timestamps can be subtracted (yielding a
/// duration), a duration can be added to a timestamp, but timestamps cannot
/// be added to each other.
///
/// ```
/// use mapg_units::{Cycle, Cycles};
///
/// let start = Cycle::new(100);
/// let end = start + Cycles::new(42);
/// assert_eq!(end - start, Cycles::new(42));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// The origin of the timeline (cycle zero).
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a timestamp at the given raw cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Duration elapsed from `earlier` to `self`, saturating to zero when
    /// `earlier` is actually later (useful when comparing speculative
    /// schedules that may have already been overtaken).
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> Cycles {
        Cycles(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two timestamps.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two timestamps.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl Add<Cycles> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<Cycles> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = Cycles;

    /// Duration from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Cycle::saturating_since`] when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycles {
        debug_assert!(
            self.0 >= rhs.0,
            "timestamp subtraction underflow: {self} - {rhs}"
        );
        Cycles(self.0 - rhs.0)
    }
}

impl Sub<Cycles> for Cycle {
    type Output = Cycle;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

/// A duration measured in core clock cycles.
///
/// ```
/// use mapg_units::{Cycles, Hertz};
///
/// let wakeup = Cycles::new(10);
/// let at_2ghz = wakeup.at(Hertz::from_ghz(2.0));
/// assert!((at_2ghz.as_secs() - 5e-9).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// The zero-length duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a duration of `raw` cycles.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts this cycle-domain duration into wall-clock time at the given
    /// clock frequency.
    #[inline]
    pub fn at(self, clock: Hertz) -> Seconds {
        Seconds::new(self.0 as f64 / clock.as_hz())
    }

    /// Duration minus `rhs`, saturating at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Scales the duration by a floating-point factor, rounding to the
    /// nearest cycle. Used by sensitivity sweeps (e.g. "1.5× DRAM latency").
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn scale(self, factor: f64) -> Cycles {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Cycles((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Cycles {
    #[inline]
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    #[inline]
    fn from(c: Cycles) -> u64 {
        c.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        debug_assert!(self.0 >= rhs.0, "duration subtraction underflow");
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Mul<Cycles> for u64 {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: Cycles) -> Cycles {
        Cycles(self * rhs.0)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Div<Cycles> for Cycles {
    type Output = f64;
    /// Ratio of two durations (dimensionless).
    #[inline]
    fn div(self, rhs: Cycles) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Rem<Cycles> for Cycles {
    type Output = Cycles;
    #[inline]
    fn rem(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 % rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_duration_algebra() {
        let t0 = Cycle::new(10);
        let t1 = t0 + Cycles::new(5);
        assert_eq!(t1.raw(), 15);
        assert_eq!(t1 - t0, Cycles::new(5));
        assert_eq!(t0.saturating_since(t1), Cycles::ZERO);
        assert_eq!(t1.saturating_since(t0), Cycles::new(5));
    }

    #[test]
    fn duration_arithmetic() {
        let a = Cycles::new(100);
        let b = Cycles::new(40);
        assert_eq!(a + b, Cycles::new(140));
        assert_eq!(a - b, Cycles::new(60));
        assert_eq!(a * 3, Cycles::new(300));
        assert_eq!(3 * a, Cycles::new(300));
        assert_eq!(a / 4, Cycles::new(25));
        assert!((a / b - 2.5).abs() < 1e-12);
        assert_eq!(a % Cycles::new(30), Cycles::new(10));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
    }

    #[test]
    fn duration_scale_rounds() {
        assert_eq!(Cycles::new(10).scale(1.5), Cycles::new(15));
        assert_eq!(Cycles::new(3).scale(0.5), Cycles::new(2)); // 1.5 rounds to 2
        assert_eq!(Cycles::new(7).scale(0.0), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn duration_scale_rejects_negative() {
        let _ = Cycles::new(1).scale(-1.0);
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(Cycles::new(3).max(Cycles::new(7)), Cycles::new(7));
        assert_eq!(Cycles::new(3).min(Cycles::new(7)), Cycles::new(3));
        assert_eq!(Cycle::new(3).max(Cycle::new(7)), Cycle::new(7));
        assert_eq!(Cycle::new(3).min(Cycle::new(7)), Cycle::new(3));
    }

    #[test]
    fn sum_of_durations() {
        let total: Cycles = [1u64, 2, 3].into_iter().map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(6));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cycle::new(42).to_string(), "@42");
        assert_eq!(Cycles::new(42).to_string(), "42 cyc");
    }

    #[test]
    fn conversion_to_time() {
        let c = Cycles::new(2_000);
        let s = c.at(Hertz::from_ghz(2.0));
        assert!((s.as_secs() - 1e-6).abs() < 1e-15);
    }
}
