//! Dimensional-safety newtypes for the MCCM cost model.
//!
//! The analytical model's whole value proposition is that it can be
//! trusted in place of simulation — which makes silent unit mix-ups
//! (cycles added to bytes, MACs multiplied where joules were meant) the
//! most dangerous bug class in the workspace. Every quantity the model
//! reasons about therefore gets a `#[repr(transparent)]` newtype with
//! **only dimensionally-valid operator impls**:
//!
//! * counting quantities over `u64` — [`Cycles`], [`Bytes`], [`Macs`] —
//!   with saturating `+`/`-`/`Σ`, scalar `×`/`÷`, and explicit checked
//!   variants; two byte counts divide into a dimensionless pass count,
//!   bytes never add to cycles;
//! * the PE allocation count [`Pes`] over `u32`;
//! * continuous quantities over `f64` — [`Joules`], plus the derived
//!   rates [`Bandwidth`] (bytes/cycle) and [`Throughput`] (frames/s) —
//!   whose constructors reject non-finite or negative values in release
//!   builds too (an `assert!`, not a `debug_assert!`).
//!
//! Conversions between dimensions are named methods that carry the
//! physics: [`Bandwidth::cycles_for`] turns traffic into DMA cycles,
//! [`Cycles::to_seconds`] applies a clock period, [`Macs::traffic_at`]
//! applies a bytes-per-MAC coefficient.
//!
//! # Serialization
//!
//! Every quantity `Display`s as its bare inner value (integers without
//! any decoration, `f64`s via Rust's shortest-roundtrip formatting), so
//! rendering a typed field produces byte-identical output to the raw
//! field it replaced — the deterministic-JSON invariant of the scenario
//! layer survives the type refactor unchanged. The facade crate's JSON
//! writer builds its `From` impls on [`Cycles::get`]-style accessors.
//!
//! This crate is dependency-free and sits below `mccm-arch`/`mccm-core`
//! in the workspace graph; `mccm_core::quantity` re-exports it.

#![warn(missing_docs)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Implements the shared surface of a `u64`-backed counting quantity:
/// saturating operator arithmetic, explicit checked variants, `Display`
/// as the bare integer, and lossless accessors.
macro_rules! counting_quantity {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        #[repr(transparent)]
        pub struct $name(u64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: Self = Self(0);
            /// Largest representable value — also the saturation point of
            /// the operator arithmetic.
            pub const MAX: Self = Self(u64::MAX);

            /// Wraps a raw count.
            #[inline]
            #[must_use]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw count.
            #[inline]
            #[must_use]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// The count as an `f64` (for ratios and continuous math).
            ///
            /// Counts above 2⁵³ round to the nearest representable
            /// float; model quantities live far below that, and ratios
            /// of near-equal giants are insensitive to the rounding.
            #[inline]
            #[must_use]
            #[allow(clippy::cast_precision_loss)]
            pub const fn as_f64(self) -> f64 {
                self.0 as f64
            }

            /// Checked addition.
            #[inline]
            #[must_use]
            pub const fn checked_add(self, rhs: Self) -> Option<Self> {
                match self.0.checked_add(rhs.0) {
                    Some(v) => Some(Self(v)),
                    None => None,
                }
            }

            /// Checked subtraction.
            #[inline]
            #[must_use]
            pub const fn checked_sub(self, rhs: Self) -> Option<Self> {
                match self.0.checked_sub(rhs.0) {
                    Some(v) => Some(Self(v)),
                    None => None,
                }
            }

            /// Checked scalar multiplication.
            #[inline]
            #[must_use]
            pub const fn checked_mul(self, rhs: u64) -> Option<Self> {
                match self.0.checked_mul(rhs) {
                    Some(v) => Some(Self(v)),
                    None => None,
                }
            }

            /// Saturating addition (also what the `+` operator does).
            #[inline]
            #[must_use]
            pub const fn saturating_add(self, rhs: Self) -> Self {
                Self(self.0.saturating_add(rhs.0))
            }

            /// Saturating subtraction (also what the `-` operator does).
            #[inline]
            #[must_use]
            pub const fn saturating_sub(self, rhs: Self) -> Self {
                Self(self.0.saturating_sub(rhs.0))
            }

            /// Saturating scalar multiplication (also what `*` does).
            #[inline]
            #[must_use]
            pub const fn saturating_mul(self, rhs: u64) -> Self {
                Self(self.0.saturating_mul(rhs))
            }

            /// The larger of the two values.
            #[inline]
            #[must_use]
            pub fn max(self, rhs: Self) -> Self {
                Self(self.0.max(rhs.0))
            }

            /// The smaller of the two values.
            #[inline]
            #[must_use]
            pub fn min(self, rhs: Self) -> Self {
                Self(self.0.min(rhs.0))
            }

            /// Whether the count is zero.
            #[inline]
            #[must_use]
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }
        }

        impl Add for $name {
            type Output = Self;
            /// Saturating: a sum of in-range model quantities never
            /// wraps into a silently small (and dimensionally "valid")
            /// garbage value.
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.saturating_add(rhs)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = self.saturating_add(rhs);
            }
        }

        impl Sub for $name {
            type Output = Self;
            /// Saturating at zero: counts have no negative values.
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.saturating_sub(rhs)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = self.saturating_sub(rhs);
            }
        }

        impl Mul<u64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: u64) -> Self {
                self.saturating_mul(rhs)
            }
        }

        impl Div<u64> for $name {
            type Output = Self;
            /// Scalar division (splitting a quantity into `rhs` shares).
            ///
            /// # Panics
            ///
            /// On division by zero, like the underlying integer op.
            #[inline]
            fn div(self, rhs: u64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Sum for $name {
            #[inline]
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Self::saturating_add)
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            #[inline]
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.copied().sum()
            }
        }

        impl From<$name> for u64 {
            #[inline]
            fn from(v: $name) -> u64 {
                v.get()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }
    };
}

counting_quantity! {
    /// A count of clock cycles.
    Cycles
}

counting_quantity! {
    /// A count of bytes (traffic volumes, buffer capacities).
    Bytes
}

counting_quantity! {
    /// A count of multiply-accumulate operations.
    Macs
}

impl Cycles {
    /// Converts cycles to seconds under a clock period of
    /// `cycle_time_s` seconds per cycle.
    #[inline]
    #[must_use]
    pub fn to_seconds(self, cycle_time_s: f64) -> f64 {
        self.as_f64() * cycle_time_s
    }
}

impl Bytes {
    /// The byte count in MiB.
    #[inline]
    #[must_use]
    pub fn mib(self) -> f64 {
        self.as_f64() / (1024.0 * 1024.0)
    }

    /// How many passes of size `chunk` cover this volume (ceiling), a
    /// dimensionless count — the only way two byte quantities divide.
    ///
    /// # Panics
    ///
    /// If `chunk` is zero.
    #[inline]
    #[must_use]
    pub const fn div_ceil(self, chunk: Bytes) -> u64 {
        self.0.div_ceil(chunk.0)
    }
}

impl Macs {
    /// Buffer traffic these MACs move at `bytes_per_mac` bytes each —
    /// the MACs→bytes conversion of the on-chip energy term.
    #[inline]
    #[must_use]
    pub const fn traffic_at(self, bytes_per_mac: u64) -> Bytes {
        Bytes::new(self.0.saturating_mul(bytes_per_mac))
    }
}

/// A count of processing elements (the PE allocation of one CE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Pes(u32);

impl Pes {
    /// Zero PEs.
    pub const ZERO: Self = Self(0);

    /// Wraps a raw PE count.
    #[inline]
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw PE count.
    #[inline]
    #[must_use]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The PE count widened to `u64` (for MAC-capacity products).
    #[inline]
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0 as u64
    }

    /// The PE count as an `f64` (for utilization ratios); `u32` → `f64`
    /// is exact.
    #[inline]
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for Pes {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }
}

impl Sum for Pes {
    #[inline]
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Pes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// Asserts — in release builds too — that a continuous quantity is
/// finite and non-negative. Model quantities are measurements; NaN or
/// negative values are always an upstream bug, and letting one through
/// would silently poison every aggregate it touches.
#[inline]
fn check_continuous(kind: &str, raw: f64) -> f64 {
    assert!(
        raw.is_finite() && raw >= 0.0,
        "{kind} must be finite and non-negative, got {raw}"
    );
    raw
}

/// An amount of energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Joules(f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Self = Self(0.0);

    /// Wraps a joule amount.
    ///
    /// # Panics
    ///
    /// If `raw` is not finite or is negative — in release builds too.
    #[inline]
    #[must_use]
    pub fn new(raw: f64) -> Self {
        Self(check_continuous("Joules", raw))
    }

    /// The amount in joules.
    #[inline]
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The amount in millijoules.
    #[inline]
    #[must_use]
    pub fn millijoules(self) -> f64 {
        self.0 * 1e3
    }
}

impl Add for Joules {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sum for Joules {
    #[inline]
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// An off-chip transfer rate in bytes per clock cycle — the derived
/// quantity that converts traffic volumes into DMA time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
#[repr(transparent)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Wraps a bytes-per-cycle rate.
    ///
    /// # Panics
    ///
    /// If `bytes_per_cycle` is not finite or is not strictly positive —
    /// in release builds too (a zero or NaN rate would turn every
    /// memory-time division into nonsense).
    #[inline]
    #[must_use]
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle.is_finite() && bytes_per_cycle > 0.0,
            "Bandwidth must be finite and positive, got {bytes_per_cycle}"
        );
        Self(bytes_per_cycle)
    }

    /// The raw rate in bytes per cycle.
    #[inline]
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// DMA cycles to move `bytes` at this rate (ceiling division of a
    /// byte count by a fractional rate); zero bytes take zero cycles.
    #[inline]
    #[must_use]
    // Audited: the ceiling of a non-negative finite ratio fits u64 for
    // every representable traffic volume, and the result is ≥ 0.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn cycles_for(self, bytes: Bytes) -> Cycles {
        if bytes.is_zero() {
            Cycles::ZERO
        } else {
            Cycles::new((bytes.as_f64() / self.0).ceil() as u64)
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// A steady-state processing rate in frames per second — the derived
/// quantity behind the model's throughput metric.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Throughput(f64);

impl Throughput {
    /// Zero throughput (a design that never completes an inference).
    pub const ZERO: Self = Self(0.0);

    /// Wraps a frames-per-second rate.
    ///
    /// # Panics
    ///
    /// If `fps` is not finite or is negative — in release builds too.
    #[inline]
    #[must_use]
    pub fn new(fps: f64) -> Self {
        Self(check_continuous("Throughput", fps))
    }

    /// The rate in frames per second.
    #[inline]
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The steady-state initiation interval in seconds (`None` at zero
    /// throughput).
    #[inline]
    #[must_use]
    pub fn period_s(self) -> Option<f64> {
        (self.0 > 0.0).then(|| 1.0 / self.0)
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_arithmetic_is_saturating() {
        assert_eq!(Bytes::MAX + Bytes::new(1), Bytes::MAX);
        assert_eq!(Bytes::new(3) - Bytes::new(5), Bytes::ZERO);
        assert_eq!(Cycles::MAX * 2, Cycles::MAX);
        assert_eq!(
            [Macs::MAX, Macs::new(7)].into_iter().sum::<Macs>(),
            Macs::MAX
        );
    }

    #[test]
    fn checked_variants_report_overflow() {
        assert_eq!(Bytes::MAX.checked_add(Bytes::new(1)), None);
        assert_eq!(Bytes::new(1).checked_sub(Bytes::new(2)), None);
        assert_eq!(Cycles::MAX.checked_mul(2), None);
        assert_eq!(Bytes::new(6).checked_mul(7), Some(Bytes::new(42)));
    }

    #[test]
    fn in_range_arithmetic_is_exact() {
        assert_eq!(Bytes::new(40) + Bytes::new(2), Bytes::new(42));
        assert_eq!(Cycles::new(100) - Cycles::new(58), Cycles::new(42));
        assert_eq!(Macs::new(6) * 7, Macs::new(42));
        assert_eq!(Bytes::new(85) / 2, Bytes::new(42));
        assert_eq!((1..=5).map(Cycles::new).sum::<Cycles>(), Cycles::new(15));
    }

    #[test]
    fn dimensional_conversions() {
        // bytes / bandwidth -> cycles, with ceiling.
        let bw = Bandwidth::new(19.2);
        assert_eq!(bw.cycles_for(Bytes::ZERO), Cycles::ZERO);
        assert_eq!(bw.cycles_for(Bytes::new(19)), Cycles::new(1));
        assert_eq!(bw.cycles_for(Bytes::new(20)), Cycles::new(2));
        // cycles × period -> seconds.
        assert!((Cycles::new(200_000_000).to_seconds(5e-9) - 1.0).abs() < 1e-12);
        // macs × bytes/mac -> bytes.
        assert_eq!(Macs::new(21).traffic_at(2), Bytes::new(42));
        // bytes / bytes -> dimensionless pass count.
        assert_eq!(Bytes::new(100).div_ceil(Bytes::new(30)), 4);
    }

    #[test]
    fn display_is_the_bare_value() {
        assert_eq!(Bytes::new(1234).to_string(), "1234");
        assert_eq!(Cycles::ZERO.to_string(), "0");
        assert_eq!(Pes::new(256).to_string(), "256");
        assert_eq!(Joules::new(0.25).to_string(), "0.25");
        assert_eq!(Throughput::new(62.5).to_string(), "62.5");
    }

    #[test]
    fn mib_and_millijoules_scale() {
        assert!((Bytes::new(2 * 1024 * 1024).mib() - 2.0).abs() < 1e-12);
        assert!((Joules::new(0.004).millijoules() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pes_widen_exactly() {
        let p = Pes::new(2520);
        assert_eq!(p.as_u64(), 2520);
        assert!((p.as_f64() - 2520.0).abs() < f64::EPSILON);
        assert_eq!((Pes::new(1) + Pes::new(2)).get(), 3);
        assert_eq!([Pes::new(1), Pes::new(2)].into_iter().sum::<Pes>().get(), 3);
    }

    #[test]
    fn throughput_period_round_trips() {
        let t = Throughput::new(50.0);
        assert!((t.period_s().unwrap() - 0.02).abs() < 1e-12);
        assert_eq!(Throughput::ZERO.period_s(), None);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_joules_rejected_in_release_too() {
        // `assert!`, not `debug_assert!`: this must fire in release.
        let _ = Joules::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::new(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_throughput_rejected() {
        let _ = Throughput::new(-1.0);
    }
}
