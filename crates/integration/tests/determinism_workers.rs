//! Thread-count determinism: the parallel ranker fan-out matches running
//! the rankers one after another, and the full WEFR selection and fleet
//! generation are bit-identical across runs.

use smart_dataset::{DriveModel, Fleet, FleetConfig};
use smart_pipeline::{base_matrix, collect_samples, SamplingConfig};
use smart_stats::FeatureMatrix;
use wefr_core::parallel::run_rankers;
use wefr_core::rankers::default_rankers;
use wefr_core::{SelectionInput, Wefr, WefrConfig};

fn training_matrix() -> (FeatureMatrix, Vec<bool>) {
    let config = FleetConfig::builder()
        .days(365)
        .seed(11)
        .drives(DriveModel::Mc1, 60)
        .failure_scale(8.0)
        .build()
        .expect("valid config");
    let fleet = Fleet::generate(&config);
    let samples = collect_samples(&fleet, DriveModel::Mc1, 0, 364, &SamplingConfig::default())
        .expect("samples");
    let (matrix, labels, _) = base_matrix(&fleet, DriveModel::Mc1, &samples).expect("base matrix");
    (matrix, labels)
}

#[test]
fn rankings_are_identical_across_worker_counts() {
    let (matrix, labels) = training_matrix();
    let rankers = default_rankers(3);
    let parallel = run_rankers(&rankers, &matrix, &labels).expect("rankings");
    assert_eq!(parallel.len(), rankers.len());
    for (ranker, (name, ranking)) in rankers.iter().zip(&parallel) {
        let sequential = ranker.rank(&matrix, &labels).expect("ranking");
        assert_eq!(ranker.name(), name);
        assert_eq!(
            &sequential, ranking,
            "{name}: parallel run changed the ranking"
        );
    }
}

#[test]
fn selected_feature_set_is_reproducible_bit_for_bit() {
    let (matrix, labels) = training_matrix();
    let wefr = Wefr::new(WefrConfig { seed: 13 });
    let a = wefr
        .select(&SelectionInput::basic(&matrix, &labels))
        .expect("selection");
    let b = wefr
        .select(&SelectionInput::basic(&matrix, &labels))
        .expect("selection");
    assert_eq!(a.global.selected, b.global.selected);
    assert_eq!(a.global.selected_names, b.global.selected_names);
    assert_eq!(a, b);
}

#[test]
fn fleet_generation_is_bit_identical_for_equal_seeds() {
    let config = FleetConfig::builder()
        .days(200)
        .seed(21)
        .drives(DriveModel::Ma1, 40)
        .build()
        .expect("valid config");
    let a = Fleet::generate(&config);
    let b = Fleet::generate(&config);
    assert_eq!(a, b);
    let reseeded = FleetConfig::builder()
        .days(200)
        .seed(22)
        .drives(DriveModel::Ma1, 40)
        .build()
        .expect("valid config");
    assert_ne!(a, Fleet::generate(&reseeded));
}
