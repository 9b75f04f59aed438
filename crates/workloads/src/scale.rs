//! Workload size presets.

/// Scales the operation counts of every workload, like PARSEC's
/// `simsmall`/`simlarge` input sets.
///
/// # Examples
///
/// ```
/// use ddrace_workloads::Scale;
/// assert!(Scale::TEST.apply(1_000) < Scale::SMALL.apply(1_000));
/// assert_eq!(Scale::TEST.apply(0), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Numerator of the scaling ratio applied to base op counts.
    pub num: u64,
    /// Denominator of the scaling ratio.
    pub den: u64,
}

impl Scale {
    /// Minimal size for unit tests: runs in milliseconds.
    pub const TEST: Scale = Scale { num: 1, den: 10 };
    /// Default experiment size: seconds per run.
    pub const SMALL: Scale = Scale { num: 1, den: 1 };
    /// Large size for headline numbers: tens of seconds per suite.
    pub const LARGE: Scale = Scale { num: 8, den: 1 };

    /// Applies the scale to a base count, keeping at least 1 for nonzero
    /// bases (a scaled-down phase never disappears entirely).
    pub fn apply(&self, base: u64) -> u64 {
        if base == 0 {
            return 0;
        }
        (base * self.num / self.den).max(1)
    }

    /// Parses a preset name as the CLI's `--scale` and the experiments'
    /// `DDRACE_SCALE` spell it: `test`, `small`, or `large`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad value and the accepted names.
    pub fn from_name(name: &str) -> Result<Scale, String> {
        match name {
            "test" => Ok(Scale::TEST),
            "small" => Ok(Scale::SMALL),
            "large" => Ok(Scale::LARGE),
            other => Err(format!(
                "unknown scale `{other}` (expected test, small, or large)"
            )),
        }
    }

    /// The preset name of this scale (inverse of [`Scale::from_name`]);
    /// ad-hoc ratios print as `num/den`.
    pub fn name(&self) -> String {
        match *self {
            Scale::TEST => "test".to_string(),
            Scale::SMALL => "small".to_string(),
            Scale::LARGE => "large".to_string(),
            Scale { num, den } => format!("{num}/{den}"),
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::SMALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let base = 10_000;
        assert!(Scale::TEST.apply(base) < Scale::SMALL.apply(base));
        assert!(Scale::SMALL.apply(base) < Scale::LARGE.apply(base));
    }

    #[test]
    fn nonzero_floors_at_one() {
        assert_eq!(Scale::TEST.apply(3), 1);
        assert_eq!(Scale::TEST.apply(0), 0);
    }

    #[test]
    fn default_is_small() {
        assert_eq!(Scale::default(), Scale::SMALL);
    }

    #[test]
    fn names_round_trip_and_reject_unknown() {
        for name in ["test", "small", "large"] {
            assert_eq!(Scale::from_name(name).unwrap().name(), name);
        }
        // Near misses are errors, never a silent fallback to SMALL.
        for bad in ["Large", "LARGE", "huge", ""] {
            assert!(Scale::from_name(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(Scale { num: 3, den: 2 }.name(), "3/2");
    }
}

ddrace_json::json_struct!(Scale { num, den });
