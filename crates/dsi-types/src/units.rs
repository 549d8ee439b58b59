//! Byte-size units and human-readable formatting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Sub};

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1024 * MIB;
/// One tebibyte (2^40 bytes).
pub const TIB: u64 = 1024 * GIB;
/// One pebibyte (2^50 bytes).
pub const PIB: u64 = 1024 * TIB;

/// A size in bytes with human-readable display and arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from kibibytes.
    pub fn kib(n: u64) -> Self {
        ByteSize(n * KIB)
    }

    /// Creates a size from mebibytes.
    pub fn mib(n: u64) -> Self {
        ByteSize(n * MIB)
    }

    /// Creates a size from gibibytes.
    pub fn gib(n: u64) -> Self {
        ByteSize(n * GIB)
    }

    /// Creates a size from tebibytes.
    pub fn tib(n: u64) -> Self {
        ByteSize(n * TIB)
    }

    /// The raw byte count.
    pub fn bytes(self) -> u64 {
        self.0
    }

    /// This size expressed in (fractional) pebibytes.
    pub fn as_pib(self) -> f64 {
        self.0 as f64 / PIB as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a floating-point scale factor, rounding to bytes.
    pub fn scale(self, factor: f64) -> ByteSize {
        ByteSize((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        let (value, unit) = if self.0 >= PIB {
            (b / PIB as f64, "PiB")
        } else if self.0 >= TIB {
            (b / TIB as f64, "TiB")
        } else if self.0 >= GIB {
            (b / GIB as f64, "GiB")
        } else if self.0 >= MIB {
            (b / MIB as f64, "MiB")
        } else if self.0 >= KIB {
            (b / KIB as f64, "KiB")
        } else {
            return write!(f, "{} B", self.0);
        };
        write!(f, "{value:.2} {unit}")
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl From<u64> for ByteSize {
    fn from(v: u64) -> Self {
        ByteSize(v)
    }
}

impl From<usize> for ByteSize {
    fn from(v: usize) -> Self {
        ByteSize(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize::kib(2).to_string(), "2.00 KiB");
        assert_eq!(ByteSize::mib(3).to_string(), "3.00 MiB");
        assert_eq!(ByteSize::gib(1).to_string(), "1.00 GiB");
        assert_eq!(ByteSize(PIB * 13).to_string(), "13.00 PiB");
    }

    #[test]
    fn arithmetic_works() {
        let a = ByteSize::mib(1) + ByteSize::kib(512);
        assert_eq!(a.bytes(), MIB + 512 * KIB);
        assert_eq!((a - ByteSize::kib(512)).bytes(), MIB);
        let total: ByteSize = (0..4).map(|_| ByteSize::kib(1)).sum();
        assert_eq!(total, ByteSize::kib(4));
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(ByteSize(100).scale(0.5).bytes(), 50);
        assert_eq!(ByteSize(3).scale(0.5).bytes(), 2); // rounds 1.5 -> 2
        assert_eq!(ByteSize(100).scale(-1.0).bytes(), 0);
    }

    #[test]
    fn conversions() {
        assert_eq!(ByteSize::from(10u64).bytes(), 10);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(ByteSize(5).saturating_sub(ByteSize(10)), ByteSize::ZERO);
    }
}
