//! Samples, demographic groups and disease classes.

/// A demographic group defined by an inherent feature (the paper's example
/// is skin colour dividing the dataset into light and dark skin).
///
/// The paper's formulation supports an arbitrary number of groups; the
/// generator defaults to two but every consumer of `Group` works with any
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Group(pub usize);

impl Group {
    /// The light-skin (majority) group of the dermatology case study.
    pub const LIGHT_SKIN: Group = Group(0);
    /// The dark-skin (minority) group of the dermatology case study.
    pub const DARK_SKIN: Group = Group(1);

    /// Human-readable label used in reports.
    pub fn label(&self) -> String {
        match self.0 {
            0 => "light".to_string(),
            1 => "dark".to_string(),
            other => format!("group-{other}"),
        }
    }
}

impl std::fmt::Display for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The five dermatological disease classes of the paper's case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiseaseClass {
    /// Melanoma.
    Melanoma,
    /// Melanocytic nevus.
    MelanocyticNevus,
    /// Basal cell carcinoma.
    BasalCellCarcinoma,
    /// Dermatofibroma.
    Dermatofibroma,
    /// Squamous cell carcinoma.
    SquamousCellCarcinoma,
}

impl DiseaseClass {
    /// All classes in label-index order.
    pub const ALL: [DiseaseClass; 5] = [
        DiseaseClass::Melanoma,
        DiseaseClass::MelanocyticNevus,
        DiseaseClass::BasalCellCarcinoma,
        DiseaseClass::Dermatofibroma,
        DiseaseClass::SquamousCellCarcinoma,
    ];

    /// The integer label used for training.
    pub fn index(&self) -> usize {
        match self {
            DiseaseClass::Melanoma => 0,
            DiseaseClass::MelanocyticNevus => 1,
            DiseaseClass::BasalCellCarcinoma => 2,
            DiseaseClass::Dermatofibroma => 3,
            DiseaseClass::SquamousCellCarcinoma => 4,
        }
    }

    /// Recovers a class from an integer label.
    pub fn from_index(index: usize) -> Option<DiseaseClass> {
        DiseaseClass::ALL.get(index).copied()
    }
}

impl std::fmt::Display for DiseaseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DiseaseClass::Melanoma => "melanoma",
            DiseaseClass::MelanocyticNevus => "melanocytic nevus",
            DiseaseClass::BasalCellCarcinoma => "basal cell carcinoma",
            DiseaseClass::Dermatofibroma => "dermatofibroma",
            DiseaseClass::SquamousCellCarcinoma => "squamous cell carcinoma",
        };
        write!(f, "{name}")
    }
}

/// One labelled image.
///
/// Pixels are stored channel-major (NCHW with N = 1 elided): the first
/// `size²` values are the red channel, then green, then blue. Values are in
/// `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Flattened CHW pixel data.
    pub pixels: Vec<f32>,
    /// Image side length (images are square).
    pub size: usize,
    /// Class label index (`0..classes`).
    pub label: usize,
    /// Demographic group of the pictured patient.
    pub group: Group,
}

impl Sample {
    /// Number of channels (always RGB).
    pub const CHANNELS: usize = 3;

    /// Number of pixel values (`3 × size²`).
    pub fn feature_len(&self) -> usize {
        self.pixels.len()
    }

    /// The disease class, if the label maps onto the five-class case study.
    pub fn disease(&self) -> Option<DiseaseClass> {
        DiseaseClass::from_index(self.label)
    }

    /// Returns the pixel at `(channel, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn pixel(&self, channel: usize, y: usize, x: usize) -> f32 {
        assert!(channel < Self::CHANNELS && y < self.size && x < self.size);
        self.pixels[(channel * self.size + y) * self.size + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_labels_match_case_study() {
        assert_eq!(Group::LIGHT_SKIN.label(), "light");
        assert_eq!(Group::DARK_SKIN.label(), "dark");
        assert_eq!(Group(3).label(), "group-3");
        assert_eq!(Group::DARK_SKIN.to_string(), "dark");
    }

    #[test]
    fn disease_class_round_trips_through_index() {
        for class in DiseaseClass::ALL {
            assert_eq!(DiseaseClass::from_index(class.index()), Some(class));
        }
        assert_eq!(DiseaseClass::from_index(9), None);
    }

    #[test]
    fn there_are_five_disease_classes() {
        assert_eq!(DiseaseClass::ALL.len(), 5);
        let display = DiseaseClass::Melanoma.to_string();
        assert!(display.contains("melanoma"));
    }

    #[test]
    fn sample_pixel_indexing_is_channel_major() {
        let size = 2;
        let mut pixels = vec![0.0; 3 * size * size];
        pixels[(size + 1) * size] = 0.7; // channel 1, y=1, x=0
        let sample = Sample {
            pixels,
            size,
            label: 0,
            group: Group::LIGHT_SKIN,
        };
        assert_eq!(sample.pixel(1, 1, 0), 0.7);
        assert_eq!(sample.pixel(0, 0, 0), 0.0);
        assert_eq!(sample.feature_len(), 12);
        assert_eq!(sample.disease(), Some(DiseaseClass::Melanoma));
    }

    #[test]
    #[should_panic]
    fn pixel_out_of_bounds_panics() {
        let sample = Sample {
            pixels: vec![0.0; 12],
            size: 2,
            label: 0,
            group: Group::LIGHT_SKIN,
        };
        sample.pixel(0, 2, 0);
    }
}
