//! Trace-calibrated machine parameters: fitting the α-β-γ model to
//! *measured* span distributions instead of hand-picked constants.
//!
//! The modeled cluster in [`MachineParams::default`] is the paper's: its
//! absolute rates were chosen by hand to put the Figure-1 crossovers where
//! the paper's runs put them. This module replaces the hand-picked
//! absolutes with constants fitted to this machine's own backends:
//!
//! * **α, β** — one calibration solve per configuration yields a point
//!   `(w, t)`: mean halo words moved per exchange (from
//!   `Counters::halo_words / halo_exchanges`) and mean `ExchangeWait`
//!   span duration (from the tracer). Ordinary least squares over the
//!   points fits `t = α + β·w` — α is the transport's latency floor, β
//!   its inverse bandwidth. Thread and proc backends get separate fits;
//!   the socket hop is visibly more expensive than the shared-memory
//!   flag, which is the whole point of measuring.
//! * **γ** — the SpMV flop rate: total `Counters::spmv_flops` divided by
//!   the summed compute span time (`Spmv` + `Frontier` + `MpkLevel`).
//!
//! [`Calibration::machine_params`] then scales the default cluster to the
//! measured absolutes while preserving the default's *ratios* (inter- vs
//! intra-node latency, BLAS1 vs blocked rates): the paper-shape
//! conclusions are ratio-driven, and a single-node calibration cannot
//! observe a real inter-node hop — it can only anchor the time scale.
//!
//! Calibration runs should disable overlap: under the overlapped schedule
//! the `ExchangeWait` span also absorbs scheduling effects of the
//! interior compute running around it, biasing α upward.

use crate::machine::MachineParams;
use spcg_dist::Counters;
use spcg_obs::{Phase, Tracer};

/// One calibration point: a solve configuration reduced to its mean
/// exchange cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibSample {
    /// Mean halo words moved per exchange in this configuration.
    pub halo_words_per_exchange: f64,
    /// Mean `ExchangeWait` span duration (seconds).
    pub wait_seconds_per_exchange: f64,
}

/// Accumulates solve measurements for one backend into a fit.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    samples: Vec<CalibSample>,
    spmv_flops: f64,
    compute_seconds: f64,
}

impl Calibrator {
    /// An empty calibrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one traced solve into the fit: the tracer must hold exactly
    /// this solve's tracks (use a fresh tracer per configuration), and
    /// `counters` must be that solve's counter block.
    ///
    /// Configurations without exchange traffic (single-rank solves, or
    /// trackless runs) still contribute to γ but produce no α-β point.
    pub fn ingest(&mut self, tracer: &Tracer, counters: &Counters) {
        let mut wait_s = 0.0;
        let mut waits = 0u64;
        let mut compute_s = 0.0;
        for track in tracer.tracks() {
            for span in &track.spans {
                let dt = span.end_s - span.begin_s;
                match span.phase {
                    Phase::ExchangeWait => {
                        wait_s += dt;
                        waits += 1;
                    }
                    Phase::Spmv | Phase::Frontier | Phase::MpkLevel => compute_s += dt,
                    _ => {}
                }
            }
        }
        self.spmv_flops += counters.spmv_flops as f64;
        self.compute_seconds += compute_s;
        if waits > 0 && counters.halo_exchanges > 0 {
            self.samples.push(CalibSample {
                halo_words_per_exchange: counters.halo_words as f64
                    / counters.halo_exchanges as f64,
                wait_seconds_per_exchange: wait_s / waits as f64,
            });
        }
    }

    /// Points ingested so far.
    pub fn samples(&self) -> &[CalibSample] {
        &self.samples
    }

    /// Fits the accumulated measurements, labelling γ with the sparse
    /// format the calibration solves ran on (`"csr"` | `"sell"`): the
    /// compute rate is a property of the kernel that produced it, and the
    /// scaling replay should say which one it replays.
    ///
    /// # Panics
    /// Panics when nothing was ingested (no samples and no compute time) —
    /// a fit of nothing is a bug in the calling sweep.
    pub fn fit_format(&self, backend: &str, format: &str) -> Calibration {
        assert!(
            !self.samples.is_empty() || self.compute_seconds > 0.0,
            "calibration: no measurements ingested"
        );
        let (mut alpha, mut beta) = fit_affine(&self.samples);
        if !self.samples.is_empty() && alpha <= 0.0 {
            // The sweep's word counts cluster (a block-row halo surface
            // barely varies with rank count), so the extrapolation to
            // zero words can land below zero. Anchor the latency floor
            // at a fraction of the smallest measured wait — still a
            // measurement of this transport — and refit the slope
            // around it.
            let min_wait = self
                .samples
                .iter()
                .map(|s| s.wait_seconds_per_exchange)
                .fold(f64::INFINITY, f64::min);
            alpha = 0.1 * min_wait;
            let sww: f64 = self
                .samples
                .iter()
                .map(|s| s.halo_words_per_exchange * s.halo_words_per_exchange)
                .sum();
            if sww > 0.0 {
                beta = self
                    .samples
                    .iter()
                    .map(|s| s.halo_words_per_exchange * (s.wait_seconds_per_exchange - alpha))
                    .sum::<f64>()
                    / sww;
            }
        }
        // Last-resort floors keep a noise-dominated fit inside
        // MachineParams::validate's domain; real measurements sit orders
        // of magnitude above them.
        let alpha = alpha.max(1e-9);
        let beta = beta.max(1e-13);
        let gamma = if self.compute_seconds > 0.0 {
            (self.spmv_flops / self.compute_seconds).max(1e4)
        } else {
            MachineParams::default().spmv_flops
        };
        Calibration {
            backend: backend.to_string(),
            format: format.to_string(),
            alpha,
            beta,
            gamma,
            samples: self.samples.len(),
        }
    }
}

/// Ordinary least squares for `t = α + β·w`. With fewer than two distinct
/// abscissae the slope is unidentifiable: the mean wait becomes α and β
/// falls to the floor in [`Calibrator::fit_format`].
fn fit_affine(samples: &[CalibSample]) -> (f64, f64) {
    let n = samples.len() as f64;
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mean_w = samples
        .iter()
        .map(|s| s.halo_words_per_exchange)
        .sum::<f64>()
        / n;
    let mean_t = samples
        .iter()
        .map(|s| s.wait_seconds_per_exchange)
        .sum::<f64>()
        / n;
    let mut sww = 0.0;
    let mut swt = 0.0;
    for s in samples {
        let dw = s.halo_words_per_exchange - mean_w;
        sww += dw * dw;
        swt += dw * (s.wait_seconds_per_exchange - mean_t);
    }
    if sww == 0.0 {
        return (mean_t, 0.0);
    }
    let beta = swt / sww;
    (mean_t - beta * mean_w, beta)
}

/// Fitted transport and compute constants of one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Backend the constants describe (`"thread"` or `"proc"`).
    pub backend: String,
    /// Sparse format γ was measured on (`"csr"` or `"sell"`) — the two
    /// kernels run at different flop rates, so a replay must price
    /// compute with the matching fit.
    pub format: String,
    /// Exchange latency floor (seconds): the fitted wait at zero words.
    pub alpha: f64,
    /// Inverse exchange bandwidth (seconds per word).
    pub beta: f64,
    /// Measured SpMV flop rate (FLOP/s per rank).
    pub gamma: f64,
    /// α-β points behind the fit.
    pub samples: usize,
}

impl Calibration {
    /// Scales the default modeled cluster to this backend's measured
    /// absolutes, preserving the default's ratios (see the module docs).
    /// The result always passes [`MachineParams::validate`].
    pub fn machine_params(&self) -> MachineParams {
        let d = MachineParams::default();
        let p = MachineParams {
            spmv_flops: self.gamma,
            blas1_flops: self.gamma * (d.blas1_flops / d.spmv_flops),
            blas23_flops: self.gamma * (d.blas23_flops / d.spmv_flops),
            small_flops: self.gamma * (d.small_flops / d.spmv_flops),
            alpha_intra: self.alpha,
            alpha_inter: self.alpha * (d.alpha_inter / d.alpha_intra),
            alpha_p2p: self.alpha * (d.alpha_p2p / d.alpha_intra),
            beta_intra: self.beta,
            beta_inter: self.beta * (d.beta_inter / d.beta_intra),
            beta_p2p: self.beta * (d.beta_p2p / d.beta_intra),
        };
        p.validate();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_fit_recovers_planted_line() {
        let samples: Vec<CalibSample> = [100.0, 200.0, 400.0, 800.0]
            .iter()
            .map(|&w| CalibSample {
                halo_words_per_exchange: w,
                wait_seconds_per_exchange: 3.0e-6 + 2.0e-9 * w,
            })
            .collect();
        let (alpha, beta) = fit_affine(&samples);
        assert!((alpha - 3.0e-6).abs() < 1e-12, "alpha {alpha}");
        assert!((beta - 2.0e-9).abs() < 1e-15, "beta {beta}");
    }

    #[test]
    fn degenerate_fit_falls_back_to_mean_and_floor() {
        let samples = vec![
            CalibSample {
                halo_words_per_exchange: 50.0,
                wait_seconds_per_exchange: 4.0e-6,
            },
            CalibSample {
                halo_words_per_exchange: 50.0,
                wait_seconds_per_exchange: 6.0e-6,
            },
        ];
        let (alpha, beta) = fit_affine(&samples);
        assert!((alpha - 5.0e-6).abs() < 1e-12);
        assert_eq!(beta, 0.0);
    }

    #[test]
    fn negative_intercept_falls_back_to_measured_floor() {
        // Two word clusters whose OLS line extrapolates below zero at
        // w = 0: the fallback must anchor α to a fraction of the
        // smallest wait, not a hard-coded constant.
        let mut c = Calibrator::new();
        c.samples = vec![
            CalibSample {
                halo_words_per_exchange: 1000.0,
                wait_seconds_per_exchange: 1.0e-5,
            },
            CalibSample {
                halo_words_per_exchange: 2000.0,
                wait_seconds_per_exchange: 4.0e-5,
            },
        ];
        c.compute_seconds = 1.0;
        c.spmv_flops = 1.0e9;
        let cal = c.fit_format("thread", "csr");
        assert!(
            (cal.alpha - 0.1 * 1.0e-5).abs() < 1e-12,
            "alpha {}",
            cal.alpha
        );
        assert!(cal.beta > 0.0);
        cal.machine_params().validate();
    }

    #[test]
    fn machine_params_preserve_default_ratios() {
        let cal = Calibration {
            backend: "thread".into(),
            format: "csr".into(),
            alpha: 5.0e-7,
            beta: 2.0e-10,
            gamma: 3.0e9,
            samples: 4,
        };
        let p = cal.machine_params();
        let d = MachineParams::default();
        assert_eq!(p.alpha_intra, cal.alpha);
        assert_eq!(p.spmv_flops, cal.gamma);
        assert!((p.alpha_inter / p.alpha_intra - d.alpha_inter / d.alpha_intra).abs() < 1e-9);
        assert!((p.blas23_flops / p.blas1_flops - d.blas23_flops / d.blas1_flops).abs() < 1e-9);
    }

    #[test]
    fn calibrator_without_exchange_traffic_still_yields_gamma() {
        let mut c = Calibrator::new();
        let tracer = Tracer::new();
        {
            let track = tracer.track(0);
            let s = track.span(Phase::Spmv);
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(s);
        }
        let mut counters = Counters::new();
        counters.spmv_flops = 1_000_000;
        c.ingest(&tracer, &counters);
        let cal = c.fit_format("thread", "csr");
        assert_eq!(cal.samples, 0);
        assert!(cal.gamma > 1e4);
        cal.machine_params().validate();
    }

    #[test]
    fn fit_carries_backend_and_format_labels() {
        let mut c = Calibrator::new();
        c.compute_seconds = 0.5;
        c.spmv_flops = 2.0e9;
        let cal = c.fit_format("proc", "sell");
        assert_eq!(cal.backend, "proc");
        assert_eq!(cal.format, "sell");
        let other = c.fit_format("proc", "csr");
        assert_eq!(cal.gamma, other.gamma, "label does not change the fit");
    }

    #[test]
    #[should_panic(expected = "no measurements")]
    fn fitting_nothing_panics() {
        Calibrator::new().fit_format("thread", "csr");
    }
}
