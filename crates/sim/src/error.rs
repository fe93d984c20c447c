//! Typed validation errors for simulator and sweep inputs.
//!
//! The tick loops assume sane parameters (positive rates, nonzero
//! windows); feeding them garbage used to surface as a panic deep inside
//! the kernel. These validators reject bad inputs at the boundary with a
//! descriptive [`SimError`] instead.

use crate::config::SimConfig;
use crate::sweep::SweepParams;

/// A rejected simulator or sweep input.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// An injection rate outside `(0, 1]` flits/node/cycle.
    InvalidRate {
        /// The offending rate.
        rate: f64,
    },
    /// A cycle window that must be nonzero was zero.
    ZeroCycles {
        /// Which field was zero (e.g. `"measure"`).
        field: &'static str,
    },
    /// A sweep step that is not strictly positive.
    InvalidSweepStep {
        /// The offending step.
        step: f64,
    },
    /// A sweep whose `max_rate` lies below its `start`.
    EmptySweepRange {
        /// The first rate.
        start: f64,
        /// The (smaller) maximum rate.
        max_rate: f64,
    },
    /// A saturation latency factor that is not strictly positive.
    InvalidLatencyFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A control-packet fraction outside `[0, 1]`.
    InvalidControlFraction {
        /// The offending fraction.
        fraction: f64,
    },
    /// A packet size of zero flits.
    ZeroFlits {
        /// Which field was zero (`"data_flits"` or `"control_flits"`).
        field: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidRate { rate } => {
                write!(f, "injection rate {rate} outside (0, 1] flits/node/cycle")
            }
            SimError::ZeroCycles { field } => write!(f, "{field} must be nonzero"),
            SimError::InvalidSweepStep { step } => {
                write!(f, "sweep step {step} must be strictly positive and finite")
            }
            SimError::EmptySweepRange { start, max_rate } => {
                write!(
                    f,
                    "sweep range is empty: start {start} > max_rate {max_rate}"
                )
            }
            SimError::InvalidLatencyFactor { factor } => {
                write!(
                    f,
                    "latency factor {factor} must be strictly positive and finite"
                )
            }
            SimError::InvalidControlFraction { fraction } => {
                write!(f, "control fraction {fraction} outside [0, 1]")
            }
            SimError::ZeroFlits { field } => write!(f, "{field} must be at least 1"),
        }
    }
}

impl std::error::Error for SimError {}

/// Validates a rate in `(0, 1]` flits/node/cycle.
pub(crate) fn validate_rate(rate: f64) -> Result<(), SimError> {
    if rate.is_finite() && rate > 0.0 && rate <= 1.0 {
        Ok(())
    } else {
        Err(SimError::InvalidRate { rate })
    }
}

impl SimConfig {
    /// Checks that this configuration can drive a meaningful run: a
    /// nonzero measurement window, nonzero packet sizes, and a control
    /// fraction in `[0, 1]`. (Warm-up and drain may legitimately be
    /// zero.)
    pub fn validate(&self) -> Result<(), SimError> {
        if self.measure == 0 {
            return Err(SimError::ZeroCycles { field: "measure" });
        }
        if self.data_flits == 0 {
            return Err(SimError::ZeroFlits {
                field: "data_flits",
            });
        }
        if self.control_flits == 0 {
            return Err(SimError::ZeroFlits {
                field: "control_flits",
            });
        }
        if !(0.0..=1.0).contains(&self.control_fraction) || self.control_fraction.is_nan() {
            return Err(SimError::InvalidControlFraction {
                fraction: self.control_fraction,
            });
        }
        Ok(())
    }
}

impl SweepParams {
    /// Checks that these parameters describe a nonempty, in-range sweep:
    /// `start` in `(0, 1]`, a strictly positive `step`, `max_rate ≥
    /// start` (and ≤ 1), and a positive saturation factor.
    pub fn validate(&self) -> Result<(), SimError> {
        validate_rate(self.start)?;
        if !self.step.is_finite() || self.step <= 0.0 {
            return Err(SimError::InvalidSweepStep { step: self.step });
        }
        if self.max_rate < self.start {
            return Err(SimError::EmptySweepRange {
                start: self.start,
                max_rate: self.max_rate,
            });
        }
        if self.max_rate > 1.0 {
            return Err(SimError::InvalidRate {
                rate: self.max_rate,
            });
        }
        if !self.latency_factor.is_finite() || self.latency_factor <= 0.0 {
            return Err(SimError::InvalidLatencyFactor {
                factor: self.latency_factor,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        assert_eq!(SimConfig::routerless().validate(), Ok(()));
        assert_eq!(SimConfig::mesh().validate(), Ok(()));
        assert_eq!(SweepParams::paper(0).validate(), Ok(()));
    }

    #[test]
    fn bad_configs_are_rejected_with_typed_errors() {
        let cfg = SimConfig {
            measure: 0,
            ..SimConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(SimError::ZeroCycles { field: "measure" })
        );

        let cfg = SimConfig {
            data_flits: 0,
            ..SimConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(SimError::ZeroFlits {
                field: "data_flits"
            })
        );

        let cfg = SimConfig {
            control_fraction: 1.5,
            ..SimConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidControlFraction { .. })
        ));
    }

    #[test]
    fn bad_sweep_params_are_rejected() {
        let good = SweepParams::paper(1);
        assert!(SweepParams { start: 0.0, ..good }.validate().is_err());
        assert!(SweepParams {
            start: -0.1,
            ..good
        }
        .validate()
        .is_err());
        assert!(SweepParams { step: 0.0, ..good }.validate().is_err());
        assert!(SweepParams {
            step: f64::NAN,
            ..good
        }
        .validate()
        .is_err());
        assert_eq!(
            SweepParams {
                max_rate: 0.001,
                ..good
            }
            .validate(),
            Err(SimError::EmptySweepRange {
                start: 0.005,
                max_rate: 0.001
            })
        );
        assert!(SweepParams {
            max_rate: 1.5,
            ..good
        }
        .validate()
        .is_err());
        assert!(SweepParams {
            latency_factor: 0.0,
            ..good
        }
        .validate()
        .is_err());
    }

    #[test]
    fn errors_display_their_values() {
        let msg = SimError::InvalidRate { rate: 1.7 }.to_string();
        assert!(msg.contains("1.7"));
        let msg = SimError::ZeroCycles { field: "measure" }.to_string();
        assert!(msg.contains("measure"));
    }
}
