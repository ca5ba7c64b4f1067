//! The live `/progress` tracker counts retried replications. The tracker
//! is process-global, so this test lives in its own test binary.

use gps_par::Pool;
use gps_sim::campaign::Campaign;
use gps_sim::runner::SingleNodeRunConfig;
use gps_sim::supervise::{PanicInjection, Supervisor};
use gps_sources::{OnOffSource, SlotSource};

#[test]
fn once_injection_counts_one_retry() {
    let base = SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 50,
        measure: 500,
        seed: 0x7E7,
        backlog_grid: (0..20).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..20).map(|i| i as f64).collect(),
    };
    let sup = Supervisor::new().with_inject(Some(PanicInjection {
        replication: 1,
        once: true,
    }));
    let outcome = Campaign::new(Pool::new(2), 3)
        .supervisor(&sup)
        .run(&base, |_r| {
            OnOffSource::paper_table1()
                .into_iter()
                .map(|s| Box::new(s) as Box<dyn SlotSource>)
                .collect()
        })
        .expect("supervised campaign");
    assert_eq!(outcome.tasks[1].attempts, 2);
    let progress = gps_obs::global_progress().to_json();
    assert!(
        progress.contains("\"retried\":1,"),
        "progress must count the retry: {progress}"
    );
    assert!(progress.contains("\"done\":3,"), "{progress}");
}
