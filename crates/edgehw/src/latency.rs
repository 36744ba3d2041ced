//! Analytic per-operation latency estimation.

use archspace::block::ConvOp;
use archspace::Architecture;

use crate::device::DeviceProfile;

/// A latency estimate with its per-category decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// End-to-end latency (ms).
    pub total_ms: f64,
    /// Time spent in compute-bound phases (ms).
    pub compute_ms: f64,
    /// Time spent in memory-bound phases (ms).
    pub memory_ms: f64,
    /// Fixed dispatch overhead (ms).
    pub overhead_ms: f64,
    /// Number of primitive operations.
    pub op_count: usize,
}

impl LatencyBreakdown {
    /// A zero estimate (empty network).
    pub fn zero() -> Self {
        LatencyBreakdown {
            total_ms: 0.0,
            compute_ms: 0.0,
            memory_ms: 0.0,
            overhead_ms: 0.0,
            op_count: 0,
        }
    }

    /// Accumulates another breakdown into this one.
    pub fn accumulate(&mut self, other: &LatencyBreakdown) {
        self.total_ms += other.total_ms;
        self.compute_ms += other.compute_ms;
        self.memory_ms += other.memory_ms;
        self.overhead_ms += other.overhead_ms;
        self.op_count += other.op_count;
    }
}

/// Estimates inference latency of architectures on a device.
///
/// The model is a roofline-style estimate per primitive operation:
/// `latency = max(flops / throughput(kind), bytes / bandwidth) + overhead`.
///
/// # Example
///
/// ```
/// use archspace::zoo;
/// use edgehw::{DeviceProfile, LatencyEstimator};
///
/// let estimator = LatencyEstimator::new(DeviceProfile::raspberry_pi_4());
/// let small = estimator.estimate(&zoo::paper_fahana_small(5, 224));
/// let big = estimator.estimate(&zoo::mobilenet_v2(5, 224));
/// assert!(small.total_ms < big.total_ms);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyEstimator {
    device: DeviceProfile,
}

impl LatencyEstimator {
    /// Creates an estimator for a device.
    pub fn new(device: DeviceProfile) -> Self {
        LatencyEstimator { device }
    }

    /// The device profile in use.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Latency of a single primitive operation (ms).
    pub fn op_latency_ms(&self, op: &ConvOp) -> f64 {
        let flops = op.flops() as f64;
        let throughput = self.device.throughput(op.kind).max(1e-9) * 1.0e9;
        let compute_s = flops / throughput;
        let bytes = op.memory_traffic() as f64 * 4.0;
        let memory_s = bytes / (self.device.memory_bandwidth_gbps.max(1e-9) * 1.0e9);
        compute_s.max(memory_s) * 1.0e3 + self.device.per_op_overhead_ms
    }

    /// Estimates the latency of a list of operations.
    pub fn estimate_ops(&self, ops: &[ConvOp]) -> LatencyBreakdown {
        let mut breakdown = LatencyBreakdown::zero();
        for op in ops {
            let flops = op.flops() as f64;
            let throughput = self.device.throughput(op.kind).max(1e-9) * 1.0e9;
            let compute_ms = flops / throughput * 1.0e3;
            let bytes = op.memory_traffic() as f64 * 4.0;
            let memory_ms = bytes / (self.device.memory_bandwidth_gbps.max(1e-9) * 1.0e9) * 1.0e3;
            breakdown.compute_ms += compute_ms;
            breakdown.memory_ms += memory_ms;
            breakdown.overhead_ms += self.device.per_op_overhead_ms;
            breakdown.total_ms += compute_ms.max(memory_ms) + self.device.per_op_overhead_ms;
            breakdown.op_count += 1;
        }
        breakdown
    }

    /// Estimates the end-to-end latency of an architecture (ms).
    pub fn estimate(&self, arch: &Architecture) -> LatencyBreakdown {
        self.estimate_ops(&arch.ops())
    }

    /// Convenience accessor returning only the total (ms).
    pub fn estimate_ms(&self, arch: &Architecture) -> f64 {
        self.estimate(arch).total_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archspace::zoo::{self, ReferenceModel};
    use archspace::{Architecture, BlockConfig, BlockKind};
    use proptest::prelude::*;

    fn pi() -> LatencyEstimator {
        LatencyEstimator::new(DeviceProfile::raspberry_pi_4())
    }

    fn odroid() -> LatencyEstimator {
        LatencyEstimator::new(DeviceProfile::odroid_xu4())
    }

    #[test]
    fn empty_op_list_is_free() {
        let b = pi().estimate_ops(&[]);
        assert_eq!(b.total_ms, 0.0);
        assert_eq!(b.op_count, 0);
    }

    #[test]
    fn more_blocks_cost_more() {
        let small = Architecture::builder(5)
            .stem(16, 3)
            .input_size(64)
            .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
            .build()
            .unwrap();
        let large = Architecture::builder(5)
            .stem(16, 3)
            .input_size(64)
            .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
            .block(BlockConfig::new(BlockKind::Rb, 24, 48, 48, 3))
            .build()
            .unwrap();
        assert!(pi().estimate_ms(&large) > pi().estimate_ms(&small));
    }

    #[test]
    fn odroid_is_slower_than_pi_for_every_zoo_model() {
        for entry in zoo::reference_models(5, 224) {
            let on_pi = pi().estimate_ms(&entry.architecture);
            let on_odroid = odroid().estimate_ms(&entry.architecture);
            assert!(
                on_odroid > on_pi,
                "{} should be slower on Odroid ({on_odroid:.0}ms) than on the Pi ({on_pi:.0}ms)",
                entry.model
            );
        }
    }

    #[test]
    fn mobilenet_v2_is_slower_than_resnet50_on_the_pi() {
        // the paper's counter-intuitive Table 3 observation: depthwise-heavy
        // networks are slow per FLOP under PyTorch on ARM
        let mbv2 = zoo::reference_architecture(ReferenceModel::MobileNetV2, 5, 224);
        let r50 = zoo::reference_architecture(ReferenceModel::ResNet50, 5, 224);
        assert!(mbv2.flops() < r50.flops(), "MobileNetV2 has fewer FLOPs");
        assert!(
            pi().estimate_ms(&mbv2) > pi().estimate_ms(&r50),
            "but should still be slower on the Pi"
        );
    }

    #[test]
    fn fahana_small_meets_the_1500ms_constraint_and_mbv2_does_not() {
        let small = zoo::paper_fahana_small(5, 224);
        let mbv2 = zoo::mobilenet_v2(5, 224);
        let est = pi();
        assert!(est.estimate_ms(&small) < 1500.0);
        assert!(est.estimate_ms(&mbv2) > 1500.0);
    }

    #[test]
    fn calibration_is_within_2x_of_paper_latencies() {
        // We only claim shape fidelity: each zoo model's estimated Pi latency
        // must be within a factor of ~2.5 of the paper's measurement.
        let est = pi();
        for entry in zoo::reference_models(5, 224) {
            let paper = entry.paper.unwrap().latency_raspberry_ms;
            if !paper.is_finite() {
                continue;
            }
            let ours = est.estimate_ms(&entry.architecture);
            let ratio = ours / paper;
            assert!(
                (0.3..=3.0).contains(&ratio),
                "{}: estimated {ours:.0}ms vs paper {paper:.0}ms (ratio {ratio:.2})",
                entry.model
            );
        }
    }

    #[test]
    fn breakdown_components_sum_consistently() {
        let arch = zoo::paper_fahana_small(5, 64);
        let b = pi().estimate(&arch);
        assert!(b.total_ms >= b.overhead_ms);
        assert!(b.total_ms <= b.compute_ms + b.memory_ms + b.overhead_ms + 1e-9);
        assert_eq!(b.op_count, arch.ops().len());
    }

    #[test]
    fn accumulate_adds_fields() {
        let arch = zoo::paper_fahana_small(5, 64);
        let single = pi().estimate(&arch);
        let mut doubled = LatencyBreakdown::zero();
        doubled.accumulate(&single);
        doubled.accumulate(&single);
        assert!((doubled.total_ms - 2.0 * single.total_ms).abs() < 1e-9);
        assert_eq!(doubled.op_count, 2 * single.op_count);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_latency_monotone_in_input_size(size in prop::sample::select(vec![32usize, 64, 96])) {
            let smaller = Architecture::builder(5)
                .stem(16, 3)
                .input_size(size)
                .block(BlockConfig::new(BlockKind::Rb, 16, 32, 32, 3))
                .build()
                .unwrap();
            let larger = Architecture::builder(5)
                .stem(16, 3)
                .input_size(size * 2)
                .block(BlockConfig::new(BlockKind::Rb, 16, 32, 32, 3))
                .build()
                .unwrap();
            prop_assert!(pi().estimate_ms(&larger) >= pi().estimate_ms(&smaller));
        }
    }
}
