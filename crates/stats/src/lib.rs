//! # ccs-stats — statistics kernel for correlation mining
//!
//! From-first-principles implementations of everything the chi-squared
//! correlation test of Brin et al. (SIGMOD 1997) needs, as used by the
//! constrained miners of Grahne, Lakshmanan & Wang (ICDE 2000):
//!
//! * [`gamma`] — `ln Γ` (Lanczos) and the regularized incomplete gamma
//!   functions (series + continued fraction),
//! * [`chi2`] — chi-squared CDF, survival function (p-values), and
//!   quantiles (critical values),
//! * [`contingency`] — `2^k`-cell contingency tables over itemsets, the
//!   chi-squared independence test, and the anti-monotone CT-support
//!   significance test,
//! * [`measure`] — the pluggable correlation-measure layer (χ² /
//!   all-confidence / bond) behind one validated verdict interface, and
//!   the row judge ([`MeasureContext::judge`]): CT-support first, then
//!   the measure, on a borrowed [`TableView`] of a counted row.

#![warn(missing_docs)]

pub mod chi2;
pub mod contingency;
pub mod gamma;
pub mod measure;

pub use chi2::{chi2_cdf, chi2_quantile, chi2_sf};
pub use contingency::{ContingencyTable, TableView};
pub use gamma::{gamma_p, gamma_q, ln_gamma};
pub use measure::{Measure, MeasureContext, MeasureError, MonotonicityClass, Verdict};
