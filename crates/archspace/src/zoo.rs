//! Reference model zoo: the existing networks the paper compares against,
//! expressed in the same block IR as the search space, plus the metric
//! values the paper reports for them (used for surrogate calibration and for
//! the "paper" columns of the regenerated tables).

use crate::arch::Architecture;
use crate::block::{BlockConfig, BlockKind};

/// The competitor networks evaluated in the paper (Tables 1 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReferenceModel {
    /// MobileNetV2 (manually designed; the G1 fairness baseline).
    MobileNetV2,
    /// MobileNetV3-Small (AutoML).
    MobileNetV3Small,
    /// MobileNetV3-Large (AutoML).
    MobileNetV3Large,
    /// MnasNet with width multiplier 0.5.
    MnasNet05,
    /// MnasNet with width multiplier 1.0.
    MnasNet10,
    /// ProxylessNAS, mobile variant.
    ProxylessNasMobile,
    /// ProxylessNAS, GPU variant.
    ProxylessNasGpu,
    /// ResNet-18.
    ResNet18,
    /// ResNet-34.
    ResNet34,
    /// ResNet-50 (the G2 fairness baseline).
    ResNet50,
    /// SqueezeNet 1.0 (Table 1 only).
    SqueezeNet10,
}

impl ReferenceModel {
    /// All reference models, in the order used by the paper's tables.
    pub const ALL: [ReferenceModel; 11] = [
        ReferenceModel::MobileNetV2,
        ReferenceModel::ProxylessNasMobile,
        ReferenceModel::MnasNet05,
        ReferenceModel::MobileNetV3Small,
        ReferenceModel::MnasNet10,
        ReferenceModel::ResNet50,
        ReferenceModel::ResNet18,
        ReferenceModel::ResNet34,
        ReferenceModel::ProxylessNasGpu,
        ReferenceModel::MobileNetV3Large,
        ReferenceModel::SqueezeNet10,
    ];

    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            ReferenceModel::MobileNetV2 => "MobileNetV2",
            ReferenceModel::MobileNetV3Small => "MobileNetV3(S)",
            ReferenceModel::MobileNetV3Large => "MobileNetV3(L)",
            ReferenceModel::MnasNet05 => "MnasNet 0.5",
            ReferenceModel::MnasNet10 => "MnasNet 1.0",
            ReferenceModel::ProxylessNasMobile => "ProxylessNAS(M)",
            ReferenceModel::ProxylessNasGpu => "ProxylessNAS(G)",
            ReferenceModel::ResNet18 => "ResNet-18",
            ReferenceModel::ResNet34 => "ResNet-34",
            ReferenceModel::ResNet50 => "ResNet-50",
            ReferenceModel::SqueezeNet10 => "SqueezeNet 1.0",
        }
    }
}

impl std::fmt::Display for ReferenceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The numbers the paper reports for a model (Tables 1 and 3). All fields
/// are exactly the published values; they anchor the surrogate calibration
/// and appear in the "paper" columns of the regenerated tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperMetrics {
    /// Parameter count (`# of Para.` column).
    pub params: u64,
    /// Overall test accuracy (fraction, not percent).
    pub accuracy: f64,
    /// Light-skin (majority) accuracy.
    pub light_accuracy: f64,
    /// Dark-skin (minority) accuracy.
    pub dark_accuracy: f64,
    /// Unfairness score.
    pub unfairness: f64,
    /// Model storage in MB.
    pub storage_mb: f64,
    /// Inference latency on the Raspberry Pi 4 (ms).
    pub latency_raspberry_ms: f64,
    /// Inference latency on the Odroid XU-4 (ms).
    pub latency_odroid_ms: f64,
}

/// A zoo entry: the architecture IR plus the paper-reported metrics.
#[derive(Debug, Clone)]
pub struct ZooEntry {
    /// Which reference model this is.
    pub model: ReferenceModel,
    /// IR approximation of the network (used for op-level cost modelling).
    pub architecture: Architecture,
    /// Metrics reported by the paper, when the paper lists the model.
    pub paper: Option<PaperMetrics>,
}

impl ZooEntry {
    /// Parameter count: the paper-reported value when available (so tables
    /// match the publication), otherwise the IR-computed count.
    pub fn param_count(&self) -> u64 {
        self.paper
            .map(|p| p.params)
            .unwrap_or_else(|| self.architecture.param_count())
    }

    /// Storage in MB (paper value when available).
    pub fn storage_mb(&self) -> f64 {
        self.paper
            .map(|p| p.storage_mb)
            .unwrap_or_else(|| self.architecture.storage_mb())
    }
}

fn mb(ch_in: usize, expand: usize, ch_out: usize, k: usize) -> BlockConfig {
    BlockConfig::new(BlockKind::Mb, ch_in, ch_in * expand, ch_out, k)
}

fn db(ch_in: usize, expand: usize, ch_out: usize, k: usize) -> BlockConfig {
    BlockConfig::new(BlockKind::Db, ch_in, ch_in * expand, ch_out, k)
}

fn rb(ch_in: usize, ch_mid: usize, ch_out: usize, k: usize) -> BlockConfig {
    BlockConfig::new(BlockKind::Rb, ch_in, ch_mid, ch_out, k)
}

fn cb(ch_in: usize, ch_mid: usize, ch_out: usize, k: usize) -> BlockConfig {
    BlockConfig::new(BlockKind::Cb, ch_in, ch_mid, ch_out, k)
}

/// MobileNetV2 backbone expressed in the block IR (5-class head).
///
/// This is also the backbone the FaHaNa producer freezes (paper Section 4.1-B).
pub fn mobilenet_v2(classes: usize, input_size: usize) -> Architecture {
    Architecture::builder(classes)
        .name("MobileNetV2")
        .stem(32, 3)
        .input_size(input_size)
        .blocks(vec![
            db(32, 1, 16, 3),
            mb(16, 6, 24, 3),
            db(24, 6, 24, 3),
            mb(24, 6, 32, 3),
            db(32, 6, 32, 3),
            db(32, 6, 32, 3),
            mb(32, 6, 64, 3),
            db(64, 6, 64, 3),
            db(64, 6, 64, 3),
            db(64, 6, 64, 3),
            db(64, 6, 96, 3),
            db(96, 6, 96, 3),
            db(96, 6, 96, 3),
            mb(96, 6, 160, 3),
            db(160, 6, 160, 3),
            db(160, 6, 160, 3),
            db(160, 6, 320, 3),
        ])
        .build()
        .expect("static MobileNetV2 definition is valid")
}

fn mobilenet_v3_small(classes: usize, input_size: usize) -> Architecture {
    Architecture::builder(classes)
        .name("MobileNetV3(S)")
        .stem(16, 3)
        .input_size(input_size)
        .blocks(vec![
            mb(16, 1, 16, 3),
            mb(16, 4, 24, 3),
            db(24, 3, 24, 3),
            mb(24, 4, 40, 5),
            db(40, 6, 40, 5),
            db(40, 6, 40, 5),
            db(40, 3, 48, 5),
            db(48, 3, 48, 5),
            mb(48, 6, 96, 5),
            db(96, 6, 96, 5),
            db(96, 6, 96, 5),
            db(96, 6, 288, 3),
        ])
        .build()
        .expect("static MobileNetV3-S definition is valid")
}

fn mobilenet_v3_large(classes: usize, input_size: usize) -> Architecture {
    Architecture::builder(classes)
        .name("MobileNetV3(L)")
        .stem(16, 3)
        .input_size(input_size)
        .blocks(vec![
            db(16, 1, 16, 3),
            mb(16, 4, 24, 3),
            db(24, 3, 24, 3),
            mb(24, 3, 40, 5),
            db(40, 3, 40, 5),
            db(40, 3, 40, 5),
            mb(40, 6, 80, 3),
            db(80, 2, 80, 3),
            db(80, 2, 80, 3),
            db(80, 2, 80, 3),
            db(80, 6, 112, 3),
            db(112, 6, 112, 3),
            mb(112, 6, 160, 5),
            db(160, 6, 160, 5),
            db(160, 6, 160, 5),
            db(160, 6, 480, 3),
        ])
        .build()
        .expect("static MobileNetV3-L definition is valid")
}

fn mnasnet(width_half: bool, classes: usize, input_size: usize) -> Architecture {
    let w = |c: usize| if width_half { (c / 2).max(8) } else { c };
    Architecture::builder(classes)
        .name(if width_half {
            "MnasNet 0.5"
        } else {
            "MnasNet 1.0"
        })
        .stem(w(32), 3)
        .input_size(input_size)
        .blocks(vec![
            db(w(32), 1, w(16), 3),
            mb(w(16), 3, w(24), 3),
            db(w(24), 3, w(24), 3),
            db(w(24), 3, w(24), 3),
            mb(w(24), 3, w(40), 5),
            db(w(40), 3, w(40), 5),
            db(w(40), 3, w(40), 5),
            mb(w(40), 6, w(80), 5),
            db(w(80), 6, w(80), 5),
            db(w(80), 6, w(80), 5),
            db(w(80), 6, w(96), 3),
            db(w(96), 6, w(96), 3),
            mb(w(96), 6, w(192), 5),
            db(w(192), 6, w(192), 5),
            db(w(192), 6, w(192), 5),
            db(w(192), 6, w(192), 5),
            db(w(192), 6, w(320), 3),
        ])
        .build()
        .expect("static MnasNet definition is valid")
}

fn proxyless_nas(gpu: bool, classes: usize, input_size: usize) -> Architecture {
    // The GPU variant is shallower but much wider; the mobile variant is
    // deeper with smaller expansion ratios and mixed kernels.
    let name = if gpu {
        "ProxylessNAS(G)"
    } else {
        "ProxylessNAS(M)"
    };
    let blocks = if gpu {
        vec![
            db(40, 1, 24, 3),
            mb(24, 6, 32, 5),
            db(32, 6, 32, 3),
            mb(32, 6, 56, 7),
            db(56, 6, 56, 3),
            mb(56, 6, 112, 7),
            db(112, 6, 112, 5),
            db(112, 6, 128, 3),
            db(128, 6, 128, 5),
            mb(128, 6, 256, 7),
            db(256, 6, 256, 5),
            db(256, 6, 432, 3),
        ]
    } else {
        vec![
            db(40, 1, 16, 3),
            mb(16, 6, 32, 5),
            db(32, 3, 32, 3),
            db(32, 3, 32, 5),
            mb(32, 6, 40, 7),
            db(40, 3, 40, 3),
            db(40, 3, 40, 5),
            db(40, 3, 40, 5),
            mb(40, 6, 80, 7),
            db(80, 3, 80, 5),
            db(80, 3, 80, 5),
            db(80, 3, 80, 5),
            db(80, 6, 96, 5),
            db(96, 3, 96, 5),
            db(96, 3, 96, 5),
            db(96, 3, 96, 5),
            mb(96, 6, 192, 7),
            db(192, 6, 192, 7),
            db(192, 6, 192, 7),
            db(192, 6, 192, 7),
            db(192, 6, 320, 7),
        ]
    };
    Architecture::builder(classes)
        .name(name)
        .stem(40, 3)
        .input_size(input_size)
        .blocks(blocks)
        .build()
        .expect("static ProxylessNAS definition is valid")
}

fn resnet(depth: usize, classes: usize, input_size: usize) -> Architecture {
    // Basic-block layouts: 18 = [2,2,2,2], 34 = [3,4,6,3].
    // ResNet-50 uses bottleneck blocks; we approximate it with wide basic
    // blocks chosen to land near its parameter count.
    let (name, stages): (&str, Vec<(usize, usize)>) = match depth {
        18 => ("ResNet-18", vec![(64, 2), (128, 2), (256, 2), (512, 2)]),
        34 => ("ResNet-34", vec![(64, 3), (128, 4), (256, 6), (512, 3)]),
        // ResNet-50 uses 1×1/3×3/1×1 bottlenecks; widened basic blocks land
        // near its parameter count and latency profile.
        _ => ("ResNet-50", vec![(72, 3), (144, 4), (288, 6), (576, 3)]),
    };
    let mut blocks = Vec::new();
    let mut current = 64usize;
    for (stage_idx, (width, repeats)) in stages.into_iter().enumerate() {
        for r in 0..repeats {
            let ch_in = if r == 0 { current } else { width };
            let block = rb(ch_in, width, width, 3);
            // stages after the first start with a stride-2 block, as in the
            // real ResNet family
            if r == 0 && stage_idx > 0 {
                blocks.push(block.downsampled());
            } else {
                blocks.push(block);
            }
        }
        current = width;
    }
    Architecture::builder(classes)
        .name(name)
        .stem(64, 7)
        .stem_pooled()
        .input_size(input_size)
        .blocks(blocks)
        .build()
        .expect("static ResNet definition is valid")
}

fn squeezenet(classes: usize, input_size: usize) -> Architecture {
    // Fire modules approximated as CB blocks (squeeze 1×1 + expand).
    Architecture::builder(classes)
        .name("SqueezeNet 1.0")
        .stem(96, 7)
        .stem_pooled()
        .input_size(input_size)
        .blocks(vec![
            cb(96, 16, 128, 3).downsampled(),
            cb(128, 16, 128, 3),
            cb(128, 32, 256, 3).downsampled(),
            cb(256, 32, 256, 3),
            cb(256, 48, 384, 3).downsampled(),
            cb(384, 48, 384, 3),
            cb(384, 64, 512, 3),
            cb(512, 64, 512, 3),
        ])
        .build()
        .expect("static SqueezeNet definition is valid")
}

/// Builds the architecture IR for a reference model.
pub fn reference_architecture(
    model: ReferenceModel,
    classes: usize,
    input_size: usize,
) -> Architecture {
    match model {
        ReferenceModel::MobileNetV2 => mobilenet_v2(classes, input_size),
        ReferenceModel::MobileNetV3Small => mobilenet_v3_small(classes, input_size),
        ReferenceModel::MobileNetV3Large => mobilenet_v3_large(classes, input_size),
        ReferenceModel::MnasNet05 => mnasnet(true, classes, input_size),
        ReferenceModel::MnasNet10 => mnasnet(false, classes, input_size),
        ReferenceModel::ProxylessNasMobile => proxyless_nas(false, classes, input_size),
        ReferenceModel::ProxylessNasGpu => proxyless_nas(true, classes, input_size),
        ReferenceModel::ResNet18 => resnet(18, classes, input_size),
        ReferenceModel::ResNet34 => resnet(34, classes, input_size),
        ReferenceModel::ResNet50 => resnet(50, classes, input_size),
        ReferenceModel::SqueezeNet10 => squeezenet(classes, input_size),
    }
}

/// The paper-reported metrics for a reference model, when the paper lists
/// the model in Table 1 or Table 3.
pub fn paper_metrics(model: ReferenceModel) -> Option<PaperMetrics> {
    let m = |params, acc: f64, light: f64, dark: f64, unfair, storage, pi, odroid| PaperMetrics {
        params,
        accuracy: acc / 100.0,
        light_accuracy: light / 100.0,
        dark_accuracy: dark / 100.0,
        unfairness: unfair,
        storage_mb: storage,
        latency_raspberry_ms: pi,
        latency_odroid_ms: odroid,
    };
    match model {
        ReferenceModel::MobileNetV2 => Some(m(
            2_230_277, 81.05, 81.27, 58.02, 0.2325, 8.51, 1939.40, 4264.55,
        )),
        ReferenceModel::ProxylessNasMobile => Some(m(
            2_805_917, 81.27, 81.56, 50.62, 0.3094, 10.70, 5241.51, 8784.53,
        )),
        ReferenceModel::MnasNet05 => Some(m(
            943_917, 78.12, 78.54, 33.33, 0.4521, 3.60, 714.19, 2312.05,
        )),
        ReferenceModel::MobileNetV3Small => Some(m(
            1_522_981, 80.38, 80.68, 48.15, 0.3253, 5.81, 658.84, 1954.14,
        )),
        ReferenceModel::MnasNet10 => Some(m(
            3_108_717, 80.71, 80.98, 51.85, 0.2913, 11.86, 3855.72, 7033.29,
        )),
        ReferenceModel::ResNet50 => Some(m(
            23_518_277, 83.81, 83.98, 65.43, 0.1855, 89.72, 1063.61, 5750.42,
        )),
        ReferenceModel::ResNet18 => Some(m(
            11_179_077, 83.08, 83.28, 61.73, 0.2155, 42.64, 425.90, 1373.16,
        )),
        ReferenceModel::ResNet34 => Some(m(
            21_287_237, 83.01, 83.23, 59.26, 0.2397, 81.20, 621.87, 2829.22,
        )),
        ReferenceModel::ProxylessNasGpu => Some(m(
            5_399_493, 83.21, 83.46, 56.79, 0.2667, 20.60, 3714.44, 9426.17,
        )),
        ReferenceModel::MobileNetV3Large => Some(m(
            4_208_437, 79.58, 80.00, 34.57, 0.4543, 16.05, 2668.00, 4824.40,
        )),
        // Table 1 reports latency/storage/accuracy/unfairness for SqueezeNet
        // on the Raspberry Pi only; the Odroid latency is not published.
        ReferenceModel::SqueezeNet10 => Some(PaperMetrics {
            params: 735_813,
            accuracy: 0.1565,
            light_accuracy: 0.1660,
            dark_accuracy: 0.0617,
            unfairness: 0.2159,
            storage_mb: 2.77,
            latency_raspberry_ms: 122.92,
            latency_odroid_ms: f64::NAN,
        }),
    }
}

/// Builds the full reference model zoo with paper metrics attached.
pub fn reference_models(classes: usize, input_size: usize) -> Vec<ZooEntry> {
    ReferenceModel::ALL
        .iter()
        .map(|&model| ZooEntry {
            model,
            architecture: reference_architecture(model, classes, input_size),
            paper: paper_metrics(model),
        })
        .collect()
}

/// The FaHaNa-Fair architecture reported in the paper's Figure 7, expressed
/// in the block IR (stem Conv 7×7, four MB blocks, two CB blocks, two RB
/// blocks, linear classifier).
pub fn paper_fahana_fair(classes: usize, input_size: usize) -> Architecture {
    Architecture::builder(classes)
        .name("FaHaNa-Fair")
        .stem(64, 7)
        .stem_pooled()
        .input_size(input_size)
        .blocks(vec![
            BlockConfig::new(BlockKind::Mb, 64, 384, 64, 3),
            BlockConfig::new(BlockKind::Mb, 64, 384, 64, 3),
            BlockConfig::new(BlockKind::Mb, 64, 384, 64, 3),
            BlockConfig::new(BlockKind::Mb, 64, 384, 96, 3),
            BlockConfig::new(BlockKind::Cb, 96, 32, 32, 5),
            BlockConfig::new(BlockKind::Cb, 32, 32, 32, 5),
            BlockConfig::new(BlockKind::Rb, 32, 256, 256, 5),
            BlockConfig::new(BlockKind::Rb, 256, 256, 256, 5),
        ])
        .build()
        .expect("static FaHaNa-Fair definition is valid")
}

/// A compact architecture representative of FaHaNa-Small (the paper does not
/// publish its exact block list, only its size of ~0.42 M parameters); used
/// by the benches as the "discovered small" reference point.
pub fn paper_fahana_small(classes: usize, input_size: usize) -> Architecture {
    Architecture::builder(classes)
        .name("FaHaNa-Small")
        .stem(16, 3)
        .input_size(input_size)
        .blocks(vec![
            BlockConfig::new(BlockKind::Mb, 16, 96, 24, 3),
            BlockConfig::new(BlockKind::Mb, 24, 144, 32, 3),
            BlockConfig::new(BlockKind::Mb, 32, 192, 48, 3),
            BlockConfig::new(BlockKind::Cb, 48, 64, 64, 3),
            BlockConfig::new(BlockKind::Cb, 64, 80, 80, 3),
            BlockConfig::new(BlockKind::Rb, 80, 112, 112, 3),
        ])
        .build()
        .expect("static FaHaNa-Small definition is valid")
}

/// Paper metrics for the two discovered FaHaNa networks (Table 3).
pub fn paper_fahana_metrics() -> [(String, PaperMetrics); 2] {
    [
        (
            "FaHaNa-Small".to_string(),
            PaperMetrics {
                params: 422_341,
                accuracy: 0.8128,
                light_accuracy: 0.8146,
                dark_accuracy: 0.6173,
                unfairness: 0.1973,
                storage_mb: 1.61,
                latency_raspberry_ms: 337.30,
                latency_odroid_ms: 736.22,
            },
        ),
        (
            "FaHaNa-Fair".to_string(),
            PaperMetrics {
                params: 5_502_469,
                accuracy: 0.8406,
                light_accuracy: 0.8422,
                dark_accuracy: 0.6667,
                unfairness: 0.1755,
                storage_mb: 20.99,
                latency_raspberry_ms: 606.80,
                latency_odroid_ms: 1833.76,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reference_architectures_validate() {
        for entry in reference_models(5, 64) {
            entry.architecture.validate().unwrap();
            assert!(entry.architecture.param_count() > 0);
            assert_eq!(entry.architecture.classes(), 5);
        }
    }

    #[test]
    fn zoo_has_eleven_models_with_paper_metrics() {
        let zoo = reference_models(5, 64);
        assert_eq!(zoo.len(), 11);
        assert!(zoo.iter().all(|e| e.paper.is_some()));
    }

    #[test]
    fn paper_param_counts_match_table3() {
        assert_eq!(
            paper_metrics(ReferenceModel::MobileNetV2).unwrap().params,
            2_230_277
        );
        assert_eq!(
            paper_metrics(ReferenceModel::ResNet50).unwrap().params,
            23_518_277
        );
        assert_eq!(
            paper_metrics(ReferenceModel::MnasNet05).unwrap().params,
            943_917
        );
    }

    #[test]
    fn ir_param_counts_are_in_the_right_ballpark() {
        // The IR is an approximation; it must land within 2x of the paper's
        // count and, crucially, preserve the size *ordering* between models.
        for entry in reference_models(5, 64) {
            let paper = entry.paper.unwrap().params as f64;
            let computed = entry.architecture.param_count() as f64;
            let ratio = computed / paper;
            assert!(
                (0.4..=2.5).contains(&ratio),
                "{}: computed {computed} vs paper {paper} (ratio {ratio:.2})",
                entry.model
            );
        }
    }

    #[test]
    fn size_ordering_matches_paper_within_families() {
        let params = |m: ReferenceModel| reference_architecture(m, 5, 64).param_count();
        assert!(params(ReferenceModel::MnasNet05) < params(ReferenceModel::MnasNet10));
        assert!(
            params(ReferenceModel::MobileNetV3Small) < params(ReferenceModel::MobileNetV3Large)
        );
        assert!(params(ReferenceModel::ResNet18) < params(ReferenceModel::ResNet34));
        assert!(params(ReferenceModel::ResNet34) < params(ReferenceModel::ResNet50));
        assert!(
            params(ReferenceModel::ProxylessNasMobile) < params(ReferenceModel::ProxylessNasGpu)
        );
    }

    #[test]
    fn unfairness_decreases_with_size_within_series_in_paper_data() {
        // the paper's Figure 1(a) observation, checked against the stored data
        let unfair = |m: ReferenceModel| paper_metrics(m).unwrap().unfairness;
        assert!(unfair(ReferenceModel::MnasNet05) > unfair(ReferenceModel::MnasNet10));
        assert!(unfair(ReferenceModel::MobileNetV3Small) > unfair(ReferenceModel::MobileNetV2));
        assert!(unfair(ReferenceModel::ResNet18) > unfair(ReferenceModel::ResNet50));
    }

    #[test]
    fn fahana_fair_matches_figure7_structure() {
        let arch = paper_fahana_fair(5, 64);
        arch.validate().unwrap();
        let kinds: Vec<BlockKind> = arch.blocks().iter().map(|b| b.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BlockKind::Mb,
                BlockKind::Mb,
                BlockKind::Mb,
                BlockKind::Mb,
                BlockKind::Cb,
                BlockKind::Cb,
                BlockKind::Rb,
                BlockKind::Rb
            ]
        );
        assert_eq!(arch.stem().kernel, 7);
    }

    #[test]
    fn fahana_small_is_much_smaller_than_mobilenet_v2() {
        let small = paper_fahana_small(5, 64);
        let mbv2 = mobilenet_v2(5, 64);
        assert!(small.param_count() * 3 < mbv2.param_count());
    }

    #[test]
    fn fahana_paper_metrics_match_table3() {
        let [small, fair] = paper_fahana_metrics();
        assert_eq!(small.1.params, 422_341);
        assert!((small.1.unfairness - 0.1973).abs() < 1e-9);
        assert_eq!(fair.1.params, 5_502_469);
        assert!((fair.1.accuracy - 0.8406).abs() < 1e-9);
    }

    #[test]
    fn zoo_entry_prefers_paper_params() {
        let zoo = reference_models(5, 64);
        let mbv2 = zoo
            .iter()
            .find(|e| e.model == ReferenceModel::MobileNetV2)
            .unwrap();
        assert_eq!(mbv2.param_count(), 2_230_277);
        assert!((mbv2.storage_mb() - 8.51).abs() < 1e-9);
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(ReferenceModel::MnasNet05.label(), "MnasNet 0.5");
        assert_eq!(
            ReferenceModel::ProxylessNasGpu.to_string(),
            "ProxylessNAS(G)"
        );
    }
}
