//! Scenario grids and the declarative campaign configuration.
//!
//! A campaign sweeps the cartesian product of three axes the paper (and
//! the follow-up edge-AI literature) cares about:
//!
//! * **device profile** — which board the latency constraint is checked
//!   against ([`edgehw::DeviceKind`]);
//! * **reward setting** — the α/β weighting plus the `AC`/`TC` constraints
//!   of Eq. 1 ([`RewardSetting`]);
//! * **freezing** — FaHaNa's frozen-header search vs the MONAS-style full
//!   backbone.
//!
//! Grids come from [`CampaignConfig::default`] (the paper-flavoured
//! 2 devices × 2 rewards × 2 freezing grid) or from a declarative config
//! file parsed by [`CampaignConfig::parse`] — a deliberately tiny INI-like
//! format so the campaign binary needs no external parser crates.

use dermsim::DermatologyConfig;
use edgehw::{DeviceKind, DeviceProfile};
use fahana::{FahanaConfig, RewardConfig};

use crate::{Result, RuntimeError};

/// One named reward configuration of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardSetting {
    /// Short name used in scenario identifiers and reports.
    pub name: String,
    /// Weight of the accuracy term (α).
    pub alpha: f64,
    /// Weight of the unfairness term (β).
    pub beta: f64,
    /// Accuracy constraint `AC` (fraction).
    pub accuracy_constraint: f64,
    /// Timing constraint `TC` in milliseconds.
    pub timing_constraint_ms: f64,
}

impl RewardSetting {
    /// The paper's balanced setting (α = β = 1).
    pub fn balanced() -> Self {
        let defaults = RewardConfig::default();
        RewardSetting {
            name: "balanced".into(),
            alpha: defaults.alpha,
            beta: defaults.beta,
            accuracy_constraint: defaults.accuracy_constraint,
            timing_constraint_ms: defaults.timing_constraint_ms,
        }
    }

    /// A fairness-heavy setting (β = 4) steering the search toward low
    /// unfairness.
    pub fn fairness_heavy() -> Self {
        RewardSetting {
            name: "fairness_heavy".into(),
            beta: 4.0,
            ..RewardSetting::balanced()
        }
    }

    /// Converts to the core reward configuration.
    pub fn to_reward_config(&self) -> RewardConfig {
        RewardConfig {
            alpha: self.alpha,
            beta: self.beta,
            accuracy_constraint: self.accuracy_constraint,
            timing_constraint_ms: self.timing_constraint_ms,
            soft_constraints: false,
        }
    }
}

/// One cell of the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique name within the campaign (`device/reward/freezing`).
    pub name: String,
    /// Target device.
    pub device: DeviceKind,
    /// Reward setting.
    pub reward: RewardSetting,
    /// `true` runs FaHaNa's frozen-header search; `false` the MONAS-style
    /// full-backbone search.
    pub use_freezing: bool,
}

impl Scenario {
    /// Builds the search configuration this scenario runs.
    pub fn to_fahana_config(&self, campaign: &CampaignConfig) -> FahanaConfig {
        FahanaConfig {
            episodes: campaign.episodes,
            episodes_per_update: campaign.episodes_per_update,
            reward: self.reward.to_reward_config(),
            device: DeviceProfile::for_kind(self.device),
            use_freezing: self.use_freezing,
            dataset: campaign.dataset_config(),
            seed: campaign.seed,
            ..FahanaConfig::default()
        }
    }
}

/// The declarative campaign description: shared search settings plus the
/// three grid axes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Episodes per scenario search.
    pub episodes: usize,
    /// Episodes per controller update (also the evaluation batch size).
    pub episodes_per_update: usize,
    /// Master seed shared by every scenario (sharing the seed is what makes
    /// the evaluation cache effective across scenarios).
    pub seed: u64,
    /// Synthetic dataset size.
    pub samples: usize,
    /// Synthetic dataset image side length.
    pub image_size: usize,
    /// Worker threads (0 = size to the machine).
    pub threads: usize,
    /// Whether scenarios share the evaluation cache.
    pub use_cache: bool,
    /// Device axis.
    pub devices: Vec<DeviceKind>,
    /// Reward axis.
    pub rewards: Vec<RewardSetting>,
    /// Freezing axis.
    pub freezing: Vec<bool>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            episodes: 40,
            episodes_per_update: 5,
            seed: 2022,
            samples: 250,
            image_size: 8,
            threads: 0,
            use_cache: true,
            devices: vec![DeviceKind::RaspberryPi4, DeviceKind::OdroidXu4],
            rewards: vec![RewardSetting::balanced(), RewardSetting::fairness_heavy()],
            freezing: vec![true, false],
        }
    }
}

fn parse_device(value: &str) -> std::result::Result<DeviceKind, String> {
    DeviceKind::from_slug(value).ok_or_else(|| {
        format!("unknown device `{value}` (expected raspberry_pi_4, odroid_xu4 or desktop)")
    })
}

fn parse_bool(key: &str, value: &str) -> std::result::Result<bool, String> {
    match value {
        "on" | "true" | "yes" | "1" => Ok(true),
        "off" | "false" | "no" | "0" => Ok(false),
        other => Err(format!("`{key}` expects on/off, got `{other}`")),
    }
}

fn parse_number<T: std::str::FromStr>(key: &str, value: &str) -> std::result::Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{key}` expects a number, got `{value}`"))
}

impl CampaignConfig {
    /// The synthetic dataset configuration every grid cell shares (which
    /// is why the campaign engine generates the dataset only once).
    pub fn dataset_config(&self) -> DermatologyConfig {
        DermatologyConfig {
            samples: self.samples,
            image_size: self.image_size,
            ..DermatologyConfig::default()
        }
    }

    /// Expands the grid into its scenarios, device-major.
    pub fn expand(&self) -> Vec<Scenario> {
        let mut scenarios = Vec::with_capacity(self.scenario_count());
        for &device in &self.devices {
            for reward in &self.rewards {
                for &use_freezing in &self.freezing {
                    let mode = if use_freezing { "frozen" } else { "full" };
                    scenarios.push(Scenario {
                        name: format!("{}/{}/{mode}", device.slug(), reward.name),
                        device,
                        reward: reward.clone(),
                        use_freezing,
                    });
                }
            }
        }
        scenarios
    }

    /// Number of grid cells.
    pub fn scenario_count(&self) -> usize {
        self.devices.len() * self.rewards.len() * self.freezing.len()
    }

    /// Checks the grid is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an empty axis, zero
    /// episodes, an empty dataset or duplicate reward names.
    pub fn validate(&self) -> Result<()> {
        if self.episodes == 0 {
            return Err(RuntimeError::InvalidConfig(
                "episodes must be positive".into(),
            ));
        }
        if self.samples == 0 {
            return Err(RuntimeError::InvalidConfig(
                "samples must be positive".into(),
            ));
        }
        if self.devices.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "the device axis is empty".into(),
            ));
        }
        if self.rewards.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "the reward axis is empty".into(),
            ));
        }
        if self.freezing.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "the freezing axis is empty".into(),
            ));
        }
        for (index, reward) in self.rewards.iter().enumerate() {
            if self.rewards[..index].iter().any(|r| r.name == reward.name) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "duplicate reward name `{}`",
                    reward.name
                )));
            }
        }
        // duplicate axis entries would produce identically named scenarios
        // whose report files overwrite each other
        for (index, &device) in self.devices.iter().enumerate() {
            if self.devices[..index].contains(&device) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "duplicate device `{}` on the device axis",
                    device.slug()
                )));
            }
        }
        for (index, &mode) in self.freezing.iter().enumerate() {
            if self.freezing[..index].contains(&mode) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "duplicate freezing mode `{}` on the freezing axis",
                    if mode { "on" } else { "off" }
                )));
            }
        }
        Ok(())
    }

    /// Parses the INI-like campaign format (see [`CampaignConfig::example`]).
    ///
    /// Top-level `key = value` lines override the defaults; each
    /// `[reward NAME]` section appends one reward setting (replacing the
    /// default reward axis entirely as soon as the first section appears).
    /// Lines starting with `#` are comments.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] on syntax errors, unknown
    /// keys, or a grid that fails [`CampaignConfig::validate`].
    pub fn parse(text: &str) -> Result<CampaignConfig> {
        let mut config = CampaignConfig::default();
        let mut parsed_rewards: Vec<RewardSetting> = Vec::new();
        let mut current_reward: Option<RewardSetting> = None;

        for (number, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fail = |message: String| {
                RuntimeError::InvalidConfig(format!("line {}: {message}", number + 1))
            };
            if let Some(section) = line.strip_prefix('[') {
                let section = section
                    .strip_suffix(']')
                    .ok_or_else(|| fail("unterminated section header".into()))?
                    .trim();
                let name = section
                    .strip_prefix("reward")
                    .ok_or_else(|| fail(format!("unknown section `{section}`")))?
                    .trim();
                if name.is_empty() {
                    return Err(fail("reward sections need a name: [reward NAME]".into()));
                }
                if let Some(done) = current_reward.take() {
                    parsed_rewards.push(done);
                }
                current_reward = Some(RewardSetting {
                    name: name.to_string(),
                    ..RewardSetting::balanced()
                });
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| fail("expected `key = value`".into()))?;
            let (key, value) = (key.trim(), value.trim());
            if let Some(reward) = current_reward.as_mut() {
                match key {
                    "alpha" => reward.alpha = parse_number(key, value).map_err(&fail)?,
                    "beta" => reward.beta = parse_number(key, value).map_err(&fail)?,
                    "accuracy_constraint" => {
                        reward.accuracy_constraint = parse_number(key, value).map_err(&fail)?
                    }
                    "timing_constraint_ms" => {
                        reward.timing_constraint_ms = parse_number(key, value).map_err(&fail)?
                    }
                    other => return Err(fail(format!("unknown reward key `{other}`"))),
                }
                continue;
            }
            match key {
                "episodes" => config.episodes = parse_number(key, value).map_err(&fail)?,
                "episodes_per_update" => {
                    config.episodes_per_update = parse_number(key, value).map_err(&fail)?
                }
                "seed" => config.seed = parse_number(key, value).map_err(&fail)?,
                "samples" => config.samples = parse_number(key, value).map_err(&fail)?,
                "image_size" => config.image_size = parse_number(key, value).map_err(&fail)?,
                "threads" => config.threads = parse_number(key, value).map_err(&fail)?,
                "cache" => config.use_cache = parse_bool(key, value).map_err(&fail)?,
                "devices" => {
                    config.devices = value
                        .split(',')
                        .map(|d| parse_device(d.trim()))
                        .collect::<std::result::Result<Vec<_>, String>>()
                        .map_err(&fail)?;
                }
                "freezing" => {
                    config.freezing = value
                        .split(',')
                        .map(|f| parse_bool("freezing", f.trim()))
                        .collect::<std::result::Result<Vec<_>, String>>()
                        .map_err(&fail)?;
                }
                other => return Err(fail(format!("unknown key `{other}`"))),
            }
        }
        if let Some(done) = current_reward.take() {
            parsed_rewards.push(done);
        }
        if !parsed_rewards.is_empty() {
            config.rewards = parsed_rewards;
        }
        config.validate()?;
        Ok(config)
    }

    /// A commented example configuration (what `fahana-campaign
    /// --print-example` emits).
    pub fn example() -> &'static str {
        "\
# FaHaNa campaign configuration.
# Grid = devices x rewards x freezing; every scenario shares the search
# settings below. Unset keys keep their defaults.

episodes = 40
episodes_per_update = 5
seed = 2022
samples = 250
image_size = 8

# 0 sizes the pool to the machine
threads = 0
cache = on

devices = raspberry_pi_4, odroid_xu4
freezing = on, off

[reward balanced]
alpha = 1.0
beta = 1.0

[reward fairness_heavy]
alpha = 1.0
beta = 4.0
accuracy_constraint = 0.81
timing_constraint_ms = 1500
"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_eight_scenarios_with_unique_names() {
        let config = CampaignConfig::default();
        config.validate().unwrap();
        let scenarios = config.expand();
        assert_eq!(scenarios.len(), 8);
        assert_eq!(config.scenario_count(), 8);
        for (index, scenario) in scenarios.iter().enumerate() {
            assert!(
                scenarios[..index].iter().all(|s| s.name != scenario.name),
                "duplicate scenario name {}",
                scenario.name
            );
        }
        assert_eq!(scenarios[0].name, "raspberry_pi_4/balanced/frozen");
        assert_eq!(scenarios[7].name, "odroid_xu4/fairness_heavy/full");
    }

    #[test]
    fn example_config_round_trips_to_the_default_grid() {
        let parsed = CampaignConfig::parse(CampaignConfig::example()).unwrap();
        assert_eq!(parsed, CampaignConfig::default());
    }

    #[test]
    fn parser_overrides_and_sections_work() {
        let parsed = CampaignConfig::parse(
            "episodes = 12\nthreads = 3\ncache = off\ndevices = pi\nfreezing = on\n\
             [reward tight]\nalpha = 2.0\nbeta = 0.5\ntiming_constraint_ms = 900\n",
        )
        .unwrap();
        assert_eq!(parsed.episodes, 12);
        assert_eq!(parsed.threads, 3);
        assert!(!parsed.use_cache);
        assert_eq!(parsed.devices, vec![DeviceKind::RaspberryPi4]);
        assert_eq!(parsed.freezing, vec![true]);
        assert_eq!(parsed.rewards.len(), 1);
        let reward = &parsed.rewards[0];
        assert_eq!(reward.name, "tight");
        assert_eq!(reward.alpha, 2.0);
        assert_eq!(reward.beta, 0.5);
        assert_eq!(reward.timing_constraint_ms, 900.0);
        // unset reward keys keep the balanced defaults
        assert_eq!(reward.accuracy_constraint, 0.81);
        assert_eq!(parsed.scenario_count(), 1);
    }

    #[test]
    fn parser_rejects_bad_input_with_line_numbers() {
        for (text, needle) in [
            ("episodes = twelve", "line 1"),
            ("bogus_key = 1", "unknown key"),
            ("devices = gameboy", "unknown device"),
            ("[reward]", "need a name"),
            ("[section", "unterminated"),
            ("no equals sign here", "key = value"),
            ("[reward a]\nwat = 1", "unknown reward key"),
            ("episodes = 0", "episodes must be positive"),
            // `pi` and `raspberry_pi_4` alias the same device
            ("devices = pi, raspberry_pi_4", "duplicate device"),
            ("freezing = on, on", "duplicate freezing mode"),
            (
                "[reward a]\nalpha = 1\n[reward a]\nalpha = 2",
                "duplicate reward name",
            ),
        ] {
            let err = CampaignConfig::parse(text).unwrap_err().to_string();
            assert!(
                err.contains(needle),
                "`{text}` should fail with `{needle}`, got `{err}`"
            );
        }
    }

    #[test]
    fn scenario_builds_a_matching_search_config() {
        let campaign = CampaignConfig {
            episodes: 7,
            seed: 99,
            ..CampaignConfig::default()
        };
        let scenario = Scenario {
            name: "odroid_xu4/fairness_heavy/full".into(),
            device: DeviceKind::OdroidXu4,
            reward: RewardSetting::fairness_heavy(),
            use_freezing: false,
        };
        let config = scenario.to_fahana_config(&campaign);
        assert_eq!(config.episodes, 7);
        assert_eq!(config.seed, 99);
        assert_eq!(config.device.kind, DeviceKind::OdroidXu4);
        assert_eq!(config.reward.beta, 4.0);
        assert!(!config.use_freezing);
        assert_eq!(config.dataset.samples, campaign.samples);
    }

    #[test]
    fn validate_rejects_empty_axes() {
        let mut config = CampaignConfig::default();
        config.devices.clear();
        assert!(config.validate().is_err());
        let mut config = CampaignConfig::default();
        config.rewards.clear();
        assert!(config.validate().is_err());
        let mut config = CampaignConfig::default();
        config.freezing.clear();
        assert!(config.validate().is_err());
        let config = CampaignConfig {
            samples: 0,
            ..CampaignConfig::default()
        };
        assert!(config.validate().is_err());
    }
}
