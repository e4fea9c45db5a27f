//! Failure mechanisms: how a defective drive's SMART counters accelerate in
//! the weeks before it fails.
//!
//! Each drive destined to fail is assigned one mechanism. From the defect
//! *onset* day until the failure day, the mechanism's ramp attributes grow
//! super-linearly (`rate · progressᵉˣᵖ` per day), producing the learnable
//! pre-failure signature that gives each drive model its characteristic
//! top-ranked features (Table III of the paper).

use crate::attr::SmartAttribute;
use std::fmt;

/// One attribute ramp of a failure mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrRamp {
    /// The attribute whose raw counter accelerates.
    pub attr: SmartAttribute,
    /// Daily increment at full progress (raw counter units per day).
    pub daily_rate: f64,
    /// Progress exponent: 1 = linear build-up (Pearson-friendly), ≥2 =
    /// accelerating build-up (rank/tree-friendly).
    pub exponent: f64,
}

impl AttrRamp {
    const fn new(attr: SmartAttribute, daily_rate: f64, exponent: f64) -> Self {
        AttrRamp {
            attr,
            daily_rate,
            exponent,
        }
    }

    /// The expected raw-counter increment on a day at `progress ∈ [0, 1]`
    /// through the onset→failure window.
    pub fn increment_at(&self, progress: f64) -> f64 {
        self.daily_rate * progress.clamp(0.0, 1.0).powf(self.exponent)
    }
}

/// The failure mechanisms the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FailureMechanism {
    /// Power-loss-protection capacitor degradation (MA vendor signature).
    PowerLossProtection,
    /// Old-age failures: hazard grows with power-on hours.
    AgeRelated,
    /// Read-intensive workload stress (MA2's `TLR` signature).
    ReadStress,
    /// Spare-block exhaustion: reallocations deplete reserved space (MB1's
    /// `ARS_N`/`RSC_N` signature).
    ReserveDepletion,
    /// Bursts of sector reallocation events (MB2's `REC_N` signature).
    ReallocationStorm,
    /// Media defects surfaced by offline scans (MC1's `OCE_R` signature).
    MediaScanErrors,
    /// Host-visible uncorrectable errors (MC2's `UCE_R` signature).
    UncorrectableMedia,
    /// Flash wear-out: erase/program failures at low remaining endurance.
    WearOut,
    /// MC2's early-firmware bug: bursty uncorrectable errors early in life
    /// on drives deployed before the fix.
    FirmwareEarly,
}

impl fmt::Display for FailureMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FailureMechanism {
    /// All mechanisms.
    pub const ALL: [FailureMechanism; 9] = [
        FailureMechanism::PowerLossProtection,
        FailureMechanism::AgeRelated,
        FailureMechanism::ReadStress,
        FailureMechanism::ReserveDepletion,
        FailureMechanism::ReallocationStorm,
        FailureMechanism::MediaScanErrors,
        FailureMechanism::UncorrectableMedia,
        FailureMechanism::WearOut,
        FailureMechanism::FirmwareEarly,
    ];

    /// Stable snake_case name, used by the tickets CSV (`mechanism` column)
    /// and log output. Round-trips through [`FailureMechanism::from_name`].
    pub fn name(self) -> &'static str {
        match self {
            FailureMechanism::PowerLossProtection => "power_loss_protection",
            FailureMechanism::AgeRelated => "age_related",
            FailureMechanism::ReadStress => "read_stress",
            FailureMechanism::ReserveDepletion => "reserve_depletion",
            FailureMechanism::ReallocationStorm => "reallocation_storm",
            FailureMechanism::MediaScanErrors => "media_scan_errors",
            FailureMechanism::UncorrectableMedia => "uncorrectable_media",
            FailureMechanism::WearOut => "wear_out",
            FailureMechanism::FirmwareEarly => "firmware_early",
        }
    }

    /// Parse a mechanism from its [`name`](FailureMechanism::name)
    /// (case-insensitive). Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<FailureMechanism> {
        let lower = name.trim().to_ascii_lowercase();
        FailureMechanism::ALL
            .into_iter()
            .find(|m| m.name() == lower)
    }

    /// The attribute ramps of this mechanism. The simulator applies only the
    /// ramps whose attribute the drive model reports.
    pub fn ramps(self) -> &'static [AttrRamp] {
        use SmartAttribute as A;
        const POWER_LOSS: &[AttrRamp] = &[
            AttrRamp::new(A::Plp, 0.8, 2.0),
            AttrRamp::new(A::Upl, 0.5, 1.0),
            AttrRamp::new(A::Rsc, 0.3, 2.0),
        ];
        const AGE_RELATED: &[AttrRamp] = &[
            AttrRamp::new(A::Uce, 0.6, 1.0),
            AttrRamp::new(A::Rsc, 0.6, 1.0),
            AttrRamp::new(A::Rec, 0.35, 1.0),
        ];
        const READ_STRESS: &[AttrRamp] = &[
            AttrRamp::new(A::Dec, 2.0, 2.0),
            AttrRamp::new(A::Uce, 0.75, 2.0),
            AttrRamp::new(A::Cec, 0.5, 1.0),
        ];
        const RESERVE_DEPLETION: &[AttrRamp] = &[
            AttrRamp::new(A::Rsc, 2.0, 2.0),
            AttrRamp::new(A::Dec, 0.5, 1.0),
            AttrRamp::new(A::Pfc, 0.3, 2.0),
            AttrRamp::new(A::Efc, 0.3, 2.0),
        ];
        const REALLOCATION_STORM: &[AttrRamp] = &[
            AttrRamp::new(A::Rec, 1.5, 2.0),
            AttrRamp::new(A::Rsc, 1.2, 2.0),
            AttrRamp::new(A::Psc, 0.8, 1.0),
            AttrRamp::new(A::Uce, 0.2, 1.0),
        ];
        const MEDIA_SCAN: &[AttrRamp] = &[
            AttrRamp::new(A::Oce, 2.5, 2.0),
            AttrRamp::new(A::Uce, 0.8, 2.0),
            AttrRamp::new(A::Rer, 0.6, 1.0),
            AttrRamp::new(A::Cmdt, 0.15, 1.0),
        ];
        const UNCORRECTABLE: &[AttrRamp] = &[
            AttrRamp::new(A::Uce, 2.2, 2.0),
            AttrRamp::new(A::Oce, 0.8, 2.0),
            AttrRamp::new(A::Cmdt, 0.4, 1.5),
            AttrRamp::new(A::Rer, 0.3, 1.0),
        ];
        const WEAR_OUT: &[AttrRamp] = &[
            AttrRamp::new(A::Efc, 1.2, 2.0),
            AttrRamp::new(A::Pfc, 1.0, 2.0),
            AttrRamp::new(A::Rsc, 0.5, 1.0),
        ];
        const FIRMWARE_EARLY: &[AttrRamp] = &[
            AttrRamp::new(A::Uce, 3.0, 1.0),
            AttrRamp::new(A::Cmdt, 0.8, 1.0),
            AttrRamp::new(A::Rec, 0.3, 1.0),
        ];
        match self {
            FailureMechanism::PowerLossProtection => POWER_LOSS,
            FailureMechanism::AgeRelated => AGE_RELATED,
            FailureMechanism::ReadStress => READ_STRESS,
            FailureMechanism::ReserveDepletion => RESERVE_DEPLETION,
            FailureMechanism::ReallocationStorm => REALLOCATION_STORM,
            FailureMechanism::MediaScanErrors => MEDIA_SCAN,
            FailureMechanism::UncorrectableMedia => UNCORRECTABLE,
            FailureMechanism::WearOut => WEAR_OUT,
            FailureMechanism::FirmwareEarly => FIRMWARE_EARLY,
        }
    }

    /// Extra daily `MWI` consumption multiplier after onset (wear-out
    /// failures burn endurance faster).
    pub fn wear_acceleration(self) -> f64 {
        match self {
            FailureMechanism::WearOut => 3.0,
            _ => 1.0,
        }
    }

    /// Drive-specific affinity multiplier applied to the mechanism weight
    /// when sampling which mechanism a defective drive develops.
    pub fn affinity(self, traits: &DriveTraits) -> f64 {
        match self {
            FailureMechanism::AgeRelated => 0.4 + traits.initial_age_days as f64 / 365.0,
            FailureMechanism::ReadStress => traits.read_intensity.clamp(0.2, 5.0).powf(1.5),
            FailureMechanism::WearOut => {
                // Strongly favored on drives that are actually worn down,
                // negligible on fresh drives — this is what makes `MWI_N`
                // and `POH_R` rank high within low-MWI groups (Table V).
                ((75.0 - traits.projected_final_mwi) / 25.0).max(0.1)
            }
            _ => 1.0,
        }
    }
}

/// A weighted entry in a drive model's mechanism mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanismWeight {
    /// The mechanism.
    pub mechanism: FailureMechanism,
    /// Base sampling weight (normalized at sampling time).
    pub weight: f64,
}

impl MechanismWeight {
    /// Construct a weighted mechanism entry.
    pub const fn new(mechanism: FailureMechanism, weight: f64) -> Self {
        MechanismWeight { mechanism, weight }
    }
}

/// Drive-level traits that bias mechanism selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveTraits {
    /// Days the drive had been in service before the dataset window opened.
    pub initial_age_days: u32,
    /// Read workload relative to the model mean (1.0 = average).
    pub read_intensity: f64,
    /// Projected `MWI_N` at the end of the dataset window.
    pub projected_final_mwi: f64,
}

/// Sample a mechanism from `mix` for a drive with the given traits, using a
/// uniform draw `u ∈ [0, 1)`.
///
/// Weights are multiplied by per-drive affinities and normalized. Returns
/// `None` when `mix` is empty or all effective weights are zero.
pub fn sample_mechanism(
    mix: &[MechanismWeight],
    traits: &DriveTraits,
    u: f64,
) -> Option<FailureMechanism> {
    let effective: Vec<f64> = mix
        .iter()
        .map(|mw| mw.weight.max(0.0) * mw.mechanism.affinity(traits))
        .collect();
    let total: f64 = effective.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let mut cursor = u.clamp(0.0, 1.0 - f64::EPSILON) * total;
    for (mw, w) in mix.iter().zip(&effective) {
        if cursor < *w {
            return Some(mw.mechanism);
        }
        cursor -= w;
    }
    mix.last().map(|mw| mw.mechanism)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traits() -> DriveTraits {
        DriveTraits {
            initial_age_days: 180,
            read_intensity: 1.0,
            projected_final_mwi: 70.0,
        }
    }

    #[test]
    fn mechanism_names_roundtrip() {
        for m in FailureMechanism::ALL {
            assert_eq!(FailureMechanism::from_name(m.name()), Some(m), "{m:?}");
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!(
            FailureMechanism::from_name(" Wear_Out "),
            Some(FailureMechanism::WearOut)
        );
        assert_eq!(FailureMechanism::from_name("meteor_strike"), None);
    }

    #[test]
    fn ramp_increment_shape() {
        let ramp = AttrRamp::new(SmartAttribute::Uce, 2.0, 2.0);
        assert_eq!(ramp.increment_at(0.0), 0.0);
        assert!((ramp.increment_at(0.5) - 0.5).abs() < 1e-12);
        assert!((ramp.increment_at(1.0) - 2.0).abs() < 1e-12);
        // Clamped outside [0, 1].
        assert_eq!(ramp.increment_at(2.0), 2.0);
        assert_eq!(ramp.increment_at(-1.0), 0.0);
    }

    #[test]
    fn every_mechanism_has_ramps() {
        for m in FailureMechanism::ALL {
            assert!(!m.ramps().is_empty(), "{m:?} has no ramps");
        }
    }

    #[test]
    fn wearout_affinity_rises_with_wear() {
        let worn = DriveTraits {
            projected_final_mwi: 10.0,
            ..traits()
        };
        let fresh = DriveTraits {
            projected_final_mwi: 90.0,
            ..traits()
        };
        assert!(
            FailureMechanism::WearOut.affinity(&worn) > FailureMechanism::WearOut.affinity(&fresh)
        );
    }

    #[test]
    fn read_stress_affinity_rises_with_reads() {
        let heavy = DriveTraits {
            read_intensity: 3.0,
            ..traits()
        };
        assert!(
            FailureMechanism::ReadStress.affinity(&heavy)
                > FailureMechanism::ReadStress.affinity(&traits())
        );
    }

    #[test]
    fn sample_mechanism_respects_weights() {
        let mix = [
            MechanismWeight::new(FailureMechanism::PowerLossProtection, 1.0),
            MechanismWeight::new(FailureMechanism::MediaScanErrors, 0.0),
        ];
        for u in [0.0, 0.3, 0.7, 0.999] {
            assert_eq!(
                sample_mechanism(&mix, &traits(), u),
                Some(FailureMechanism::PowerLossProtection)
            );
        }
    }

    #[test]
    fn sample_mechanism_empty_mix() {
        assert_eq!(sample_mechanism(&[], &traits(), 0.5), None);
    }

    #[test]
    fn sample_mechanism_splits_by_u() {
        let mix = [
            MechanismWeight::new(FailureMechanism::PowerLossProtection, 1.0),
            MechanismWeight::new(FailureMechanism::MediaScanErrors, 1.0),
        ];
        assert_eq!(
            sample_mechanism(&mix, &traits(), 0.0),
            Some(FailureMechanism::PowerLossProtection)
        );
        assert_eq!(
            sample_mechanism(&mix, &traits(), 0.99),
            Some(FailureMechanism::MediaScanErrors)
        );
    }

    #[test]
    fn prop_sample_always_from_mix() {
        rng::prop_check!(|g| {
            let u = g.f64_in(0.0, 1.0);
            let age = g.u64_in(0, 699) as u32;
            let mwi = g.f64_in(0.0, 100.0);
            let mix = [
                MechanismWeight::new(FailureMechanism::WearOut, 0.5),
                MechanismWeight::new(FailureMechanism::AgeRelated, 0.3),
                MechanismWeight::new(FailureMechanism::ReadStress, 0.2),
            ];
            let t = DriveTraits {
                initial_age_days: age,
                read_intensity: 1.0,
                projected_final_mwi: mwi,
            };
            let got = sample_mechanism(&mix, &t, u).unwrap();
            assert!(mix.iter().any(|mw| mw.mechanism == got));
        });
    }

    #[test]
    fn prop_ramp_monotone_in_progress() {
        rng::prop_check!(|g| {
            let p1 = g.f64_in(0.0, 1.0);
            let p2 = g.f64_in(0.0, 1.0);
            let rate = g.f64_in(0.01, 10.0);
            let exp = g.f64_in(0.5, 3.0);
            let ramp = AttrRamp::new(SmartAttribute::Uce, rate, exp);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            assert!(ramp.increment_at(lo) <= ramp.increment_at(hi) + 1e-12);
        });
    }
}
