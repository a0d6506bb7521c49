//! The paper's four GPU configurations (§IV.B), plus cache-model variants
//! used by the cache-sensitivity artifact.

use kepler_sim::{CacheConfig, ClockConfig, DeviceConfig, MemoryModel};
use serde::{Deserialize, Serialize};

/// The four configurations of the study — all sharing one physical K20c,
/// only clocks and ECC changing — plus two cache-model variants
/// ([`GpuConfigKind::Cache`], [`GpuConfigKind::Cache614`]) that enable the
/// sectored L1/L2 memory hierarchy. The cache variants are deliberately
/// **not** in [`GpuConfigKind::ALL`]: the paper's tables and figures run
/// under the flat-DRAM model, byte-identical to the pre-cache simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuConfigKind {
    /// 705 MHz core / 2.6 GHz memory, ECC off.
    Default,
    /// 614 MHz core / 2.6 GHz memory, ECC off.
    C614,
    /// 324 MHz core / 324 MHz memory, ECC off.
    C324,
    /// 705 MHz core / 2.6 GHz memory, ECC on.
    Ecc,
    /// Default clocks with the sectored L1/L2 cache model enabled.
    Cache,
    /// 614 MHz core with the cache model enabled (for cache-sensitivity
    /// ratios against [`GpuConfigKind::Cache`]).
    Cache614,
}

impl GpuConfigKind {
    pub const ALL: [GpuConfigKind; 4] = [
        GpuConfigKind::Default,
        GpuConfigKind::C614,
        GpuConfigKind::C324,
        GpuConfigKind::Ecc,
    ];

    /// Every named configuration, including the cache variants that the
    /// paper artifacts do not run.
    pub const VARIANTS: [GpuConfigKind; 6] = [
        GpuConfigKind::Default,
        GpuConfigKind::C614,
        GpuConfigKind::C324,
        GpuConfigKind::Ecc,
        GpuConfigKind::Cache,
        GpuConfigKind::Cache614,
    ];

    /// Resolve a configuration from its stable [`Self::name`], ignoring
    /// ASCII case (`ecc` is [`GpuConfigKind::Ecc`]).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::VARIANTS
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Memory-model identity tag of this configuration — `"flat"` or
    /// `"cache-<fingerprint>"` ([`kepler_sim::MemoryModel::tag`]). Part of
    /// every campaign cache key.
    pub fn mem_tag(&self) -> String {
        self.device_config().mem_model.tag()
    }

    pub fn name(&self) -> &'static str {
        match self {
            GpuConfigKind::Default => "default",
            GpuConfigKind::C614 => "614",
            GpuConfigKind::C324 => "324",
            GpuConfigKind::Ecc => "ECC",
            GpuConfigKind::Cache => "cache",
            GpuConfigKind::Cache614 => "cache614",
        }
    }

    /// The device configuration for this setting.
    pub fn device_config(&self) -> DeviceConfig {
        match self {
            GpuConfigKind::Default => DeviceConfig::k20c(ClockConfig::k20_default(), false),
            GpuConfigKind::C614 => DeviceConfig::k20c(ClockConfig::k20_614(), false),
            GpuConfigKind::C324 => DeviceConfig::k20c(ClockConfig::k20_324(), false),
            GpuConfigKind::Ecc => DeviceConfig::k20c(ClockConfig::k20_default(), true),
            GpuConfigKind::Cache => {
                let mut cfg = DeviceConfig::k20c(ClockConfig::k20_default(), false);
                cfg.mem_model = MemoryModel::Cached(CacheConfig::k20());
                cfg
            }
            GpuConfigKind::Cache614 => {
                let mut cfg = DeviceConfig::k20c(ClockConfig::k20_614(), false);
                cfg.mem_model = MemoryModel::Cached(CacheConfig::k20());
                cfg
            }
        }
    }
}

impl std::fmt::Display for GpuConfigKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_configs_match_paper() {
        assert_eq!(GpuConfigKind::ALL.len(), 4);
        let d = GpuConfigKind::Default.device_config();
        assert_eq!(d.clocks.core_mhz, 705.0);
        assert!(!d.ecc);
        let c = GpuConfigKind::C614.device_config();
        assert_eq!(c.clocks.core_mhz, 614.0);
        assert_eq!(c.clocks.mem_mhz, 2600.0);
        let l = GpuConfigKind::C324.device_config();
        assert_eq!(l.clocks.mem_mhz, 324.0);
        let e = GpuConfigKind::Ecc.device_config();
        assert!(e.ecc);
        assert_eq!(e.clocks.core_mhz, 705.0);
    }

    #[test]
    fn names_render() {
        assert_eq!(GpuConfigKind::C324.to_string(), "324");
        assert_eq!(GpuConfigKind::Cache.to_string(), "cache");
    }

    #[test]
    fn names_resolve_ignoring_case() {
        for k in GpuConfigKind::VARIANTS {
            assert_eq!(GpuConfigKind::from_name(k.name()), Some(k));
            assert_eq!(
                GpuConfigKind::from_name(&k.name().to_ascii_uppercase()),
                Some(k)
            );
        }
        assert_eq!(GpuConfigKind::from_name("ecc"), Some(GpuConfigKind::Ecc));
        assert_eq!(GpuConfigKind::from_name("999"), None);
        // Sweep-point tags never name a configuration.
        assert_eq!(GpuConfigKind::from_name("sweep:c0:m0"), None);
    }

    #[test]
    fn cache_variants_enable_the_cache_model_but_stay_out_of_all() {
        let c = GpuConfigKind::Cache.device_config();
        assert!(c.mem_model.cache().is_some());
        assert_eq!(c.clocks.core_mhz, 705.0);
        let c614 = GpuConfigKind::Cache614.device_config();
        assert!(c614.mem_model.cache().is_some());
        assert_eq!(c614.clocks.core_mhz, 614.0);
        // The paper's table/figure artifacts stay on the flat model.
        assert!(!GpuConfigKind::ALL.contains(&GpuConfigKind::Cache));
        assert!(!GpuConfigKind::ALL.contains(&GpuConfigKind::Cache614));
        for k in GpuConfigKind::ALL {
            assert!(k.device_config().mem_model.cache().is_none());
        }
    }
}
