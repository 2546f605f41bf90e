//! From-scratch supervised learning for the TEVoT (DAC 2020) reproduction.
//!
//! The paper evaluates four scikit-learn estimators for predicting timing
//! errors (Table II) and settles on a random forest for TEVoT itself. The
//! Rust ML ecosystem being thin, this crate implements all four natively:
//!
//! * [`DecisionTree`] / [`RandomForestRegressor`] /
//!   [`RandomForestClassifier`] — histogram-based CART and bagged forests
//!   (the paper's configuration: 10 trees, all features per split);
//! * [`KnnRegressor`] / [`KnnClassifier`] — brute-force k-nearest
//!   neighbours;
//! * [`LinearRegression`] / [`LinearClassifier`] — ridge regression by
//!   Cholesky-solved normal equations;
//! * [`LinearSvm`] — a Pegasos-trained linear SVM.
//!
//! Supporting cast: [`Dataset`] and [`Scaler`] for data handling,
//! [`metrics`] for accuracy/confusion/regression scores and wall-clock
//! timing, and [`persist`] for saving pre-trained forests (the paper
//! promises to publish its trained models; this is that artifact format).
//!
//! # Examples
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use tevot_ml::{metrics, Dataset, ForestParams, RandomForestClassifier};
//!
//! // A binary concept with an interaction: class = x0 XOR x1.
//! let mut data = Dataset::new(2);
//! for i in 0..400u32 {
//!     let (a, b) = ((i & 1) as f64, (i >> 1 & 1) as f64);
//!     data.push(&[a, b], if a != b { 1.0 } else { 0.0 });
//! }
//! let mut rng = SmallRng::seed_from_u64(0);
//! let (train, test) = data.split(0.8, &mut rng);
//! let model = RandomForestClassifier::fit(&train, &ForestParams::default(), &mut rng);
//! let predicted = model.predict_batch(&test);
//! let actual: Vec<bool> = test.labels().iter().map(|&l| l == 1.0).collect();
//! assert_eq!(metrics::accuracy(&predicted, &actual), 1.0);
//! ```

#![warn(missing_docs)]

mod boost;
mod dataset;
mod forest;
mod knn;
mod linear;
pub mod metrics;
pub mod persist;
mod svm;
mod tree;

pub use boost::{BoostParams, GradientBoostedRegressor};
pub use dataset::{Dataset, Scaler};
pub use forest::{ForestParams, RandomForestClassifier, RandomForestRegressor};
pub use knn::{KnnClassifier, KnnRegressor};
pub use linear::{LinearClassifier, LinearRegression};
pub use svm::{LinearSvm, SvmParams};
pub use tree::{DecisionTree, Task, TreeParams, MAX_THRESHOLDS};
