//! Goodness-of-fit statistics.
//!
//! The paper reports SSE, RMSE, and R² for every model (Tables IV and V) —
//! and explicitly notes that R² is unreliable for non-linear regression
//! (citing Cameron & Windmeijer), preferring SSE/RMSE. We compute all
//! three the same way the MATLAB Curve Fitting Toolbox does.

use serde::{Deserialize, Serialize};

/// Fit-quality summary for a fitted curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoodnessOfFit {
    /// Sum of squared errors Σ(y − ŷ)².
    pub sse: f64,
    /// Root mean squared error √(SSE / (n − p)) with p model parameters
    /// (MATLAB's definition uses the residual degrees of freedom).
    pub rmse: f64,
    /// Coefficient of determination 1 − SSE/SST.
    pub r2: f64,
    /// Number of observations.
    pub n: usize,
}

impl GoodnessOfFit {
    /// Compute from observations and predictions; `n_params` is the number
    /// of fitted parameters (for the RMSE degrees-of-freedom correction).
    pub fn compute(y: &[f64], y_hat: &[f64], n_params: usize) -> GoodnessOfFit {
        assert_eq!(y.len(), y_hat.len());
        let n = y.len();
        let sse: f64 = y.iter().zip(y_hat).map(|(a, b)| (a - b).powi(2)).sum();
        let mean = y.iter().sum::<f64>() / n.max(1) as f64;
        let sst: f64 = y.iter().map(|a| (a - mean).powi(2)).sum();
        let dof = n.saturating_sub(n_params).max(1);
        GoodnessOfFit {
            sse,
            rmse: (sse / dof as f64).sqrt(),
            r2: if sst > 0.0 { 1.0 - sse / sst } else { f64::NAN },
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_fit_statistics() {
        let y = [1.0, 2.0, 3.0];
        let gof = GoodnessOfFit::compute(&y, &y, 1);
        assert_eq!(gof.sse, 0.0);
        assert_eq!(gof.rmse, 0.0);
        assert_eq!(gof.r2, 1.0);
    }

    #[test]
    fn known_residuals() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let y_hat = [1.5, 2.0, 2.5, 4.0];
        let gof = GoodnessOfFit::compute(&y, &y_hat, 2);
        assert!((gof.sse - 0.5).abs() < 1e-12);
        assert!((gof.rmse - (0.5f64 / 2.0).sqrt()).abs() < 1e-12);
        // SST = 5.0 → R² = 1 − 0.1 = 0.9.
        assert!((gof.r2 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn constant_data_has_nan_r2() {
        let y = [2.0, 2.0, 2.0];
        let gof = GoodnessOfFit::compute(&y, &[2.0, 2.1, 1.9], 1);
        assert!(gof.r2.is_nan());
        assert!(gof.sse > 0.0);
    }
}
