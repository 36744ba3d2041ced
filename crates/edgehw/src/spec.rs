//! Hardware specifications (timing and storage constraints).

use archspace::Architecture;

use crate::device::DeviceProfile;
use crate::latency::LatencyEstimator;

/// A deployment specification: a target device, a timing constraint `TC`,
/// and an optional storage limit (the paper's Table 1 filters to models
/// under 30 MB on a Pi with `TC = 1500 ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSpec {
    /// The target device.
    pub device: DeviceProfile,
    /// Timing constraint `TC` in milliseconds.
    pub timing_constraint_ms: f64,
    /// Optional storage limit in MB.
    pub storage_limit_mb: Option<f64>,
}

impl HardwareSpec {
    /// Creates a specification with a timing constraint only.
    pub fn new(device: DeviceProfile, timing_constraint_ms: f64) -> Self {
        HardwareSpec {
            device,
            timing_constraint_ms,
            storage_limit_mb: None,
        }
    }

    /// Adds a storage limit (MB).
    pub fn with_storage_limit(mut self, limit_mb: f64) -> Self {
        self.storage_limit_mb = Some(limit_mb);
        self
    }

    /// The paper's Table 1 scenario: Raspberry Pi, `TC = 1500 ms`, < 30 MB.
    pub fn table1_raspberry_pi() -> Self {
        HardwareSpec::new(DeviceProfile::raspberry_pi_4(), 1500.0).with_storage_limit(30.0)
    }

    /// Whether a measured/estimated latency satisfies the timing constraint.
    pub fn meets_latency(&self, latency_ms: f64) -> bool {
        latency_ms <= self.timing_constraint_ms
    }

    /// Whether a storage footprint satisfies the storage limit (if any).
    pub fn meets_storage(&self, storage_mb: f64) -> bool {
        self.storage_limit_mb
            .map(|limit| storage_mb <= limit)
            .unwrap_or(true)
    }

    /// Estimates an architecture on this spec's device and checks both
    /// constraints, returning `(latency_ms, meets_spec)`.
    pub fn check(&self, arch: &Architecture) -> (f64, bool) {
        let latency = LatencyEstimator::new(self.device.clone()).estimate_ms(arch);
        let meets = self.meets_latency(latency) && self.meets_storage(arch.storage_mb());
        (latency, meets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archspace::zoo;

    #[test]
    fn latency_constraint_is_inclusive() {
        let spec = HardwareSpec::new(DeviceProfile::raspberry_pi_4(), 100.0);
        assert!(spec.meets_latency(100.0));
        assert!(spec.meets_latency(99.9));
        assert!(!spec.meets_latency(100.1));
    }

    #[test]
    fn storage_limit_is_optional() {
        let spec = HardwareSpec::new(DeviceProfile::raspberry_pi_4(), 100.0);
        assert!(spec.meets_storage(1e9));
        let limited = spec.with_storage_limit(30.0);
        assert!(limited.meets_storage(29.9));
        assert!(!limited.meets_storage(30.1));
    }

    #[test]
    fn table1_scenario_accepts_small_models_and_rejects_large_ones() {
        let spec = HardwareSpec::table1_raspberry_pi();
        let (lat_small, ok_small) = spec.check(&zoo::paper_fahana_small(5, 224));
        let (lat_mbv2, ok_mbv2) = spec.check(&zoo::mobilenet_v2(5, 224));
        assert!(
            ok_small,
            "FaHaNa-Small ({lat_small:.0}ms) should meet the spec"
        );
        assert!(
            !ok_mbv2,
            "MobileNetV2 ({lat_mbv2:.0}ms) should violate TC=1500ms"
        );
    }

    #[test]
    fn storage_violation_fails_even_when_fast() {
        // ResNet-50 is fast on the Pi but far exceeds the 30 MB storage limit.
        let spec = HardwareSpec::table1_raspberry_pi();
        let resnet50 = zoo::reference_architecture(zoo::ReferenceModel::ResNet50, 5, 224);
        let (_, ok) = spec.check(&resnet50);
        assert!(!ok);
    }
}
