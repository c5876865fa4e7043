#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio-fit — non-linear least squares for power models
//!
//! The paper fits `P(f) = a·f^b + c` (its Eqn 2) to measured power-vs-
//! frequency data with the MATLAB Curve Fitting Toolbox. This crate is the
//! offline replacement:
//!
//! * [`lm`] — a small Levenberg–Marquardt solver (≤ 6 parameters);
//! * [`powerlaw`] — the `a·f^b + c` family with multi-start fitting,
//!   reporting the paper's GF columns (SSE, RMSE, R²);
//! * [`stats`] — goodness-of-fit statistics;
//! * [`bootstrap`] — residual-bootstrap confidence intervals on fitted
//!   parameters.
//!
//! ```
//! use lcpio_fit::powerlaw::fit_power_law;
//!
//! // Frequencies 0.8..=2.0 GHz and a Broadwell-like power curve.
//! let x: Vec<f64> = (0..25).map(|i| 0.8 + 0.05 * i as f64).collect();
//! let y: Vec<f64> = x.iter().map(|&f| 0.0064 * f.powf(5.315) + 0.7429).collect();
//! let fit = fit_power_law(&x, &y).unwrap();
//! assert!((fit.b - 5.315).abs() < 0.1);
//! assert!(fit.gof.sse < 1e-6);
//! ```

pub mod bootstrap;
pub mod lm;
pub mod polynomial;
pub mod powerlaw;
pub mod stats;

pub use bootstrap::{bootstrap_power_law, BootstrapFit, Interval};
pub use polynomial::{fit_polynomial, select_model, FittedModel, PolynomialFit};
pub use powerlaw::{fit_power_law, FitError, PowerLawFit, PowerLawModel};
pub use stats::GoodnessOfFit;
