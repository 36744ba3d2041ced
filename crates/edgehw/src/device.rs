//! Edge-device profiles.

use archspace::block::OpKind;

/// The devices used in the paper's evaluation, plus a generic desktop-class
/// profile for local experimentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Raspberry Pi 4 Model B (Broadcom BCM2711, 4× Cortex-A72 @ 1.5 GHz, 8 GB).
    RaspberryPi4,
    /// Odroid XU-4 (Samsung Exynos 5422, Cortex-A15 + A7, 2 GB).
    OdroidXu4,
    /// A generic desktop-class CPU (not part of the paper; useful for tests).
    Desktop,
}

impl DeviceKind {
    /// Display name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::RaspberryPi4 => "Raspberry PI",
            DeviceKind::OdroidXu4 => "Odroid XU-4",
            DeviceKind::Desktop => "Desktop",
        }
    }

    /// Stable machine-readable identifier, used as the device key in
    /// scenario names, report JSON and the campaign artifact store.
    /// [`DeviceKind::from_slug`] inverts it, so persisted artifacts can be
    /// re-keyed to a profile without string heuristics.
    pub fn slug(&self) -> &'static str {
        match self {
            DeviceKind::RaspberryPi4 => "raspberry_pi_4",
            DeviceKind::OdroidXu4 => "odroid_xu4",
            DeviceKind::Desktop => "desktop",
        }
    }

    /// Every device kind, in a stable order (useful for CLIs enumerating
    /// valid `--device` values).
    pub fn all() -> [DeviceKind; 3] {
        [
            DeviceKind::RaspberryPi4,
            DeviceKind::OdroidXu4,
            DeviceKind::Desktop,
        ]
    }

    /// Parses a [`DeviceKind::slug`] (plus a few common aliases) back to
    /// the device kind.
    pub fn from_slug(slug: &str) -> Option<DeviceKind> {
        match slug {
            "raspberry_pi_4" | "raspberry_pi" | "pi4" | "pi" => Some(DeviceKind::RaspberryPi4),
            "odroid_xu4" | "odroid" => Some(DeviceKind::OdroidXu4),
            "desktop" => Some(DeviceKind::Desktop),
            _ => None,
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Calibrated performance profile of a device running vanilla PyTorch
/// inference (the paper's deployment stack).
///
/// Throughputs are *effective* GFLOP/s per operation kind — they fold in the
/// framework's kernel efficiency on that device, which is why the depthwise
/// figure is far below the standard-convolution figure.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Which device this profile describes.
    pub kind: DeviceKind,
    /// Effective throughput for standard k×k convolutions (GFLOP/s).
    pub standard_gflops: f64,
    /// Effective throughput for 1×1 convolutions (GFLOP/s).
    pub pointwise_gflops: f64,
    /// Effective throughput for depthwise convolutions (GFLOP/s).
    pub depthwise_gflops: f64,
    /// Effective throughput for dense layers (GFLOP/s).
    pub dense_gflops: f64,
    /// Usable memory bandwidth (GB/s).
    pub memory_bandwidth_gbps: f64,
    /// Fixed per-operation dispatch overhead (ms) — kernel launch, layout
    /// conversion and framework bookkeeping.
    pub per_op_overhead_ms: f64,
    /// Available RAM in MB (used for storage-fit checks).
    pub memory_mb: f64,
}

impl DeviceProfile {
    /// Profile of the Raspberry Pi 4 Model B, calibrated so the reference
    /// networks of the paper's Table 3 land near their published latencies.
    pub fn raspberry_pi_4() -> Self {
        DeviceProfile {
            kind: DeviceKind::RaspberryPi4,
            standard_gflops: 12.0,
            pointwise_gflops: 0.6,
            depthwise_gflops: 0.15,
            dense_gflops: 2.0,
            memory_bandwidth_gbps: 3.0,
            per_op_overhead_ms: 8.0,
            memory_mb: 8192.0,
        }
    }

    /// Profile of the Odroid XU-4, calibrated the same way (older big.LITTLE
    /// cores: lower GEMM throughput, similar dispatch overhead).
    pub fn odroid_xu4() -> Self {
        DeviceProfile {
            kind: DeviceKind::OdroidXu4,
            standard_gflops: 2.5,
            pointwise_gflops: 0.2,
            depthwise_gflops: 0.05,
            dense_gflops: 1.0,
            memory_bandwidth_gbps: 1.5,
            per_op_overhead_ms: 12.0,
            memory_mb: 2048.0,
        }
    }

    /// A generic desktop-class profile (roughly 2 orders of magnitude faster
    /// than the boards). Not used in any paper experiment.
    pub fn desktop() -> Self {
        DeviceProfile {
            kind: DeviceKind::Desktop,
            standard_gflops: 250.0,
            pointwise_gflops: 120.0,
            depthwise_gflops: 30.0,
            dense_gflops: 150.0,
            memory_bandwidth_gbps: 25.0,
            per_op_overhead_ms: 0.05,
            memory_mb: 32768.0,
        }
    }

    /// Builds a profile for a device kind.
    pub fn for_kind(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::RaspberryPi4 => DeviceProfile::raspberry_pi_4(),
            DeviceKind::OdroidXu4 => DeviceProfile::odroid_xu4(),
            DeviceKind::Desktop => DeviceProfile::desktop(),
        }
    }

    /// Effective throughput (GFLOP/s) for an operation kind.
    pub fn throughput(&self, kind: OpKind) -> f64 {
        match kind {
            OpKind::Standard => self.standard_gflops,
            OpKind::Pointwise => self.pointwise_gflops,
            OpKind::Depthwise => self.depthwise_gflops,
            OpKind::Dense => self.dense_gflops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_profiles_are_slower_than_desktop() {
        let pi = DeviceProfile::raspberry_pi_4();
        let odroid = DeviceProfile::odroid_xu4();
        let desktop = DeviceProfile::desktop();
        assert!(pi.standard_gflops < desktop.standard_gflops);
        assert!(odroid.standard_gflops < pi.standard_gflops);
    }

    #[test]
    fn depthwise_is_least_efficient_op_on_boards() {
        for profile in [DeviceProfile::raspberry_pi_4(), DeviceProfile::odroid_xu4()] {
            assert!(profile.depthwise_gflops < profile.pointwise_gflops);
            assert!(profile.pointwise_gflops < profile.standard_gflops);
        }
    }

    #[test]
    fn throughput_dispatches_on_op_kind() {
        let pi = DeviceProfile::raspberry_pi_4();
        assert_eq!(pi.throughput(OpKind::Standard), pi.standard_gflops);
        assert_eq!(pi.throughput(OpKind::Depthwise), pi.depthwise_gflops);
        assert_eq!(pi.throughput(OpKind::Pointwise), pi.pointwise_gflops);
        assert_eq!(pi.throughput(OpKind::Dense), pi.dense_gflops);
    }

    #[test]
    fn for_kind_round_trips() {
        for kind in [
            DeviceKind::RaspberryPi4,
            DeviceKind::OdroidXu4,
            DeviceKind::Desktop,
        ] {
            assert_eq!(DeviceProfile::for_kind(kind).kind, kind);
        }
        assert_eq!(DeviceKind::RaspberryPi4.label(), "Raspberry PI");
    }

    #[test]
    fn odroid_has_less_memory_than_pi() {
        assert!(DeviceProfile::odroid_xu4().memory_mb < DeviceProfile::raspberry_pi_4().memory_mb);
    }

    #[test]
    fn slugs_round_trip_and_are_unique() {
        let all = DeviceKind::all();
        for kind in all {
            assert_eq!(DeviceKind::from_slug(kind.slug()), Some(kind));
        }
        for (index, kind) in all.iter().enumerate() {
            assert!(all[..index].iter().all(|k| k.slug() != kind.slug()));
        }
        assert_eq!(DeviceKind::from_slug("pi"), Some(DeviceKind::RaspberryPi4));
        assert_eq!(DeviceKind::from_slug("gameboy"), None);
    }
}
