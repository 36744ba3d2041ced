//! The synthetic dermatology image generator.

use ftensor::SeededRng;

use crate::dataset::Dataset;
use crate::sample::{Group, Sample};

/// Configuration of the synthetic dermatology dataset.
///
/// The defaults correspond to the case-study dataset of the paper: five
/// disease classes, two demographic groups with a light-skin majority, and a
/// minority fraction low enough that an undersized model visibly sacrifices
/// minority accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct DermatologyConfig {
    /// Total number of samples to generate.
    pub samples: usize,
    /// Number of disease classes.
    pub classes: usize,
    /// Number of demographic groups (group 0 is the majority).
    pub groups: usize,
    /// Fraction of samples belonging to the minority group(s) combined.
    pub minority_fraction: f32,
    /// Side length of the square RGB images.
    pub image_size: usize,
    /// Standard deviation of additive pixel noise.
    pub noise: f32,
    /// Lesion contrast for the majority group (minority contrast is scaled
    /// down by `minority_contrast_factor`).
    pub lesion_contrast: f32,
    /// Multiplier (< 1) applied to lesion contrast for minority groups.
    pub minority_contrast_factor: f32,
    /// Probability that a sample's label is replaced with a random class.
    pub label_noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DermatologyConfig {
    fn default() -> Self {
        DermatologyConfig {
            samples: 2000,
            classes: 5,
            groups: 2,
            minority_fraction: 0.15,
            image_size: 12,
            noise: 0.08,
            lesion_contrast: 0.55,
            minority_contrast_factor: 0.45,
            label_noise: 0.02,
            seed: 2022,
        }
    }
}

/// Generates [`Dataset`]s according to a [`DermatologyConfig`].
///
/// # Example
///
/// ```
/// use dermsim::{DermatologyConfig, DermatologyGenerator};
///
/// let dataset = DermatologyGenerator::new(DermatologyConfig {
///     samples: 100,
///     ..DermatologyConfig::default()
/// })
/// .generate();
/// assert_eq!(dataset.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct DermatologyGenerator {
    config: DermatologyConfig,
}

impl DermatologyGenerator {
    /// Creates a generator for the given configuration.
    pub fn new(config: DermatologyConfig) -> Self {
        DermatologyGenerator { config }
    }

    /// The configuration used by this generator.
    pub fn config(&self) -> &DermatologyConfig {
        &self.config
    }

    /// Generates the full dataset deterministically from the config seed.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = SeededRng::new(cfg.seed);
        let mut samples = Vec::with_capacity(cfg.samples);
        for idx in 0..cfg.samples {
            let group = self.assign_group(idx);
            let true_label = rng.below(cfg.classes.max(1));
            let label = if rng.chance(cfg.label_noise as f64) {
                rng.below(cfg.classes.max(1))
            } else {
                true_label
            };
            let sample = self.render_sample(true_label, label, group, &mut rng);
            samples.push(sample);
        }
        Dataset::new(samples, cfg.classes, cfg.groups)
    }

    /// Generates a single extra sample for a given class and group — used by
    /// the data-balancing augmentation of Table 4.
    pub fn generate_sample(&self, label: usize, group: Group, rng: &mut SeededRng) -> Sample {
        self.render_sample(label, label, group, rng)
    }

    fn assign_group(&self, idx: usize) -> Group {
        // Deterministic interleaving so every prefix of the dataset has the
        // configured imbalance. Minority samples are spread uniformly.
        let cfg = &self.config;
        if cfg.groups <= 1 {
            return Group(0);
        }
        let minority_every = if cfg.minority_fraction <= 0.0 {
            usize::MAX
        } else {
            (1.0 / cfg.minority_fraction).round().max(1.0) as usize
        };
        if minority_every != usize::MAX && idx % minority_every == minority_every - 1 {
            // round-robin across the minority groups
            Group(1 + (idx / minority_every) % (cfg.groups - 1))
        } else {
            Group(0)
        }
    }

    fn render_sample(
        &self,
        pattern_label: usize,
        label: usize,
        group: Group,
        rng: &mut SeededRng,
    ) -> Sample {
        let cfg = &self.config;
        let size = cfg.image_size;
        let mut pixels = vec![0.0f32; 3 * size * size];
        // CHW offset of pixel (x, y) in channel c
        let at = |c: usize, y: usize, x: usize| (c * size + y) * size + x;

        // Background tone: the demographic feature. Light skin is bright
        // with a warm tint; dark skin is darker.
        let (base_r, base_g, base_b) = if group == Group(0) {
            (0.85, 0.72, 0.62)
        } else {
            (0.38, 0.26, 0.20)
        };
        let tone_jitter = rng.normal(0.0, 0.03);
        for y in 0..size {
            for x in 0..size {
                pixels[at(0, y, x)] = base_r + tone_jitter;
                pixels[at(1, y, x)] = base_g + tone_jitter;
                pixels[at(2, y, x)] = base_b + tone_jitter;
            }
        }

        // Lesion pattern: the class feature. Lower contrast for minority
        // groups reproduces the "harder to diagnose on dark skin" effect.
        let contrast = if group == Group(0) {
            cfg.lesion_contrast
        } else {
            cfg.lesion_contrast * cfg.minority_contrast_factor
        };
        let cx = size as f32 / 2.0 + rng.normal(0.0, 0.6);
        let cy = size as f32 / 2.0 + rng.normal(0.0, 0.6);
        let radius = size as f32 * (0.22 + 0.04 * rng.uniform(-1.0, 1.0));
        for y in 0..size {
            for x in 0..size {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                let dist = (dx * dx + dy * dy).sqrt();
                let intensity = lesion_intensity(pattern_label, dx, dy, dist, radius);
                if intensity == 0.0 {
                    continue;
                }
                let delta = contrast * intensity;
                // lesions darken the red channel and shift blue/green in a
                // class-specific way so classes stay separable
                pixels[at(0, y, x)] -= delta;
                pixels[at(1, y, x)] -= delta * (0.4 + 0.1 * pattern_label as f32);
                pixels[at(2, y, x)] += delta * (0.15 * pattern_label as f32 - 0.2);
            }
        }

        // Additive pixel noise and clamping to [0, 1].
        for v in &mut pixels {
            *v += rng.normal(0.0, cfg.noise);
            *v = v.clamp(0.0, 1.0);
        }

        Sample {
            pixels,
            size,
            label,
            group,
        }
    }
}

/// Spatial lesion profile per class: five visually distinct shapes.
fn lesion_intensity(label: usize, dx: f32, dy: f32, dist: f32, radius: f32) -> f32 {
    match label % 5 {
        // Melanoma: irregular filled blob
        0 => {
            if dist < radius * (1.0 + 0.3 * (dx * 1.7).sin()) {
                1.0
            } else {
                0.0
            }
        }
        // Melanocytic nevus: smooth round blob with soft edge
        1 => (1.0 - dist / radius).max(0.0),
        // Basal cell carcinoma: ring
        2 => {
            if (dist - radius).abs() < radius * 0.3 {
                1.0
            } else {
                0.0
            }
        }
        // Dermatofibroma: small dense core
        3 => {
            if dist < radius * 0.5 {
                1.2
            } else {
                0.0
            }
        }
        // Squamous cell carcinoma: cross/streak pattern
        _ => {
            if dx.abs() < radius * 0.3 || dy.abs() < radius * 0.3 {
                if dist < radius * 1.2 {
                    0.9
                } else {
                    0.0
                }
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_config(samples: usize) -> DermatologyConfig {
        DermatologyConfig {
            samples,
            image_size: 8,
            ..DermatologyConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = DermatologyGenerator::new(small_config(50)).generate();
        let b = DermatologyGenerator::new(small_config(50)).generate();
        assert_eq!(a.samples()[..5], b.samples()[..5]);
    }

    #[test]
    fn different_seeds_give_different_data() {
        let mut cfg = small_config(50);
        cfg.seed = 1;
        let a = DermatologyGenerator::new(cfg.clone()).generate();
        cfg.seed = 2;
        let b = DermatologyGenerator::new(cfg).generate();
        assert_ne!(a.samples()[0].pixels, b.samples()[0].pixels);
    }

    #[test]
    fn minority_fraction_is_respected() {
        let cfg = DermatologyConfig {
            samples: 1000,
            minority_fraction: 0.2,
            image_size: 6,
            ..DermatologyConfig::default()
        };
        let dataset = DermatologyGenerator::new(cfg).generate();
        let minority = dataset
            .samples()
            .iter()
            .filter(|s| s.group != Group(0))
            .count();
        let fraction = minority as f32 / 1000.0;
        assert!(
            (fraction - 0.2).abs() < 0.05,
            "minority fraction was {fraction}"
        );
    }

    #[test]
    fn groups_have_distinct_background_tone() {
        let dataset = DermatologyGenerator::new(small_config(400)).generate();
        let mean_brightness = |group: Group| -> f32 {
            let samples: Vec<&Sample> = dataset
                .samples()
                .iter()
                .filter(|s| s.group == group)
                .collect();
            let total: f32 = samples
                .iter()
                .map(|s| s.pixels.iter().sum::<f32>() / s.pixels.len() as f32)
                .sum();
            total / samples.len().max(1) as f32
        };
        let light = mean_brightness(Group::LIGHT_SKIN);
        let dark = mean_brightness(Group::DARK_SKIN);
        assert!(
            light > dark + 0.2,
            "light background ({light}) should be brighter than dark ({dark})"
        );
    }

    #[test]
    fn pixels_are_clamped_to_unit_interval() {
        let dataset = DermatologyGenerator::new(small_config(100)).generate();
        for sample in dataset.samples() {
            assert!(sample.pixels.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn labels_are_within_class_range() {
        let dataset = DermatologyGenerator::new(small_config(200)).generate();
        assert!(dataset.samples().iter().all(|s| s.label < 5));
    }

    #[test]
    fn lesion_patterns_differ_between_classes() {
        // Render one noiseless sample per class and check pairwise distance.
        let cfg = DermatologyConfig {
            noise: 0.0,
            label_noise: 0.0,
            image_size: 10,
            ..DermatologyConfig::default()
        };
        let gen = DermatologyGenerator::new(cfg);
        let mut rng = SeededRng::new(7);
        let images: Vec<Sample> = (0..5)
            .map(|c| gen.generate_sample(c, Group::LIGHT_SKIN, &mut rng))
            .collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                let dist: f32 = images[i]
                    .pixels
                    .iter()
                    .zip(images[j].pixels.iter())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!(
                    dist > 0.5,
                    "classes {i} and {j} produce nearly identical images"
                );
            }
        }
    }

    #[test]
    fn minority_lesions_have_lower_contrast() {
        let cfg = DermatologyConfig {
            noise: 0.0,
            label_noise: 0.0,
            image_size: 10,
            ..DermatologyConfig::default()
        };
        let gen = DermatologyGenerator::new(cfg);
        let mut rng = SeededRng::new(3);
        // contrast proxy: range of the red channel (background minus lesion)
        let contrast = |group: Group, rng: &mut SeededRng| -> f32 {
            let s = gen.generate_sample(0, group, rng);
            let red = &s.pixels[0..s.size * s.size];
            red.iter().copied().fold(f32::NEG_INFINITY, f32::max)
                - red.iter().copied().fold(f32::INFINITY, f32::min)
        };
        let light = contrast(Group::LIGHT_SKIN, &mut rng);
        let dark = contrast(Group::DARK_SKIN, &mut rng);
        assert!(
            light > dark,
            "light-skin contrast ({light}) should exceed dark-skin contrast ({dark})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_sample_count_and_size_match_config(samples in 1usize..120, size in 4usize..10) {
            let cfg = DermatologyConfig {
                samples,
                image_size: size,
                ..DermatologyConfig::default()
            };
            let dataset = DermatologyGenerator::new(cfg).generate();
            prop_assert_eq!(dataset.len(), samples);
            prop_assert!(dataset.samples().iter().all(|s| s.pixels.len() == 3 * size * size));
        }
    }
}
