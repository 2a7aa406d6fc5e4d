//! Parallel experiment driver.
//!
//! A single DES run is inherently sequential, but the paper's figures are
//! sweeps: (protocol × offered load × seed) grids of independent runs.
//! This driver fans the grid out over worker threads using
//! `std::thread::scope` and a `crossbeam` work channel, collecting
//! results in submission order.

use crossbeam::channel;

use crate::config::ScenarioConfig;
use crate::report::RunReport;
use crate::sim::Simulator;

fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    }
}

/// Run every scenario, `threads`-wide, preserving input order in the
/// output. `threads == 0` means "one per available core".
pub fn run_parallel(scenarios: Vec<ScenarioConfig>, threads: usize) -> Vec<RunReport> {
    let threads = worker_count(threads).min(scenarios.len().max(1));
    run_with_workers(scenarios, threads)
}

/// [`run_parallel`] over a lazily-produced scenario stream: the producer
/// feeds a bounded work channel directly, so at most ~2× the worker
/// count of scenarios exist at any moment. This is how huge campaign
/// expansions run without materializing every `(point × seed)` config up
/// front — runs start while the expansion is still being generated.
/// `threads == 0` means "one per available core".
pub fn run_parallel_iter(
    scenarios: impl IntoIterator<Item = ScenarioConfig>,
    threads: usize,
) -> Vec<RunReport> {
    run_with_workers(scenarios, worker_count(threads))
}

fn run_with_workers(
    scenarios: impl IntoIterator<Item = ScenarioConfig>,
    threads: usize,
) -> Vec<RunReport> {
    let threads = threads.max(1);
    // Bounded: the producer (possibly a lazy expansion) blocks instead of
    // running arbitrarily far ahead of the workers.
    let (tx, rx) = channel::bounded::<(usize, ScenarioConfig)>(2 * threads);
    let (result_tx, result_rx) = channel::unbounded::<(usize, RunReport)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                while let Ok((idx, cfg)) = rx.recv() {
                    let report = Simulator::new(cfg).run();
                    let _ = result_tx.send((idx, report));
                }
            });
        }
        drop(result_tx);
        drop(rx);

        for item in scenarios.into_iter().enumerate() {
            tx.send(item).expect("workers outlive the producer");
        }
        drop(tx);

        let mut out: Vec<(usize, RunReport)> = Vec::new();
        while let Ok(pair) = result_rx.recv() {
            out.push(pair);
        }
        out.sort_unstable_by_key(|&(idx, _)| idx);
        out.into_iter().map(|(_, report)| report).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variant;
    use pcmac_engine::Duration;

    #[test]
    fn parallel_matches_sequential() {
        let mk = |seed| {
            ScenarioConfig::two_nodes(Variant::Basic, 100.0, 80_000.0, seed)
                .with_duration(Duration::from_secs(2))
        };
        let seq: Vec<_> = (0..4).map(|s| Simulator::new(mk(s)).run()).collect();
        let par = run_parallel((0..4).map(mk).collect(), 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.seed, b.seed, "order preserved");
            assert_eq!(a.delivered_packets, b.delivered_packets, "determinism");
            assert_eq!(a.mac.rts_sent, b.mac.rts_sent);
        }
    }

    #[test]
    fn lazy_iterator_matches_eager_vec() {
        let mk = |seed| {
            ScenarioConfig::two_nodes(Variant::Basic, 100.0, 80_000.0, seed)
                .with_duration(Duration::from_secs(2))
        };
        let eager = run_parallel((0..4).map(mk).collect(), 2);
        // The iterator path generates each config on demand.
        let lazy = run_parallel_iter((0..4).map(mk), 2);
        assert_eq!(eager.len(), lazy.len());
        for (a, b) in eager.iter().zip(&lazy) {
            assert_eq!(a.seed, b.seed, "order preserved");
            assert_eq!(a.delivered_packets, b.delivered_packets);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        let cfgs = vec![
            ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1)
                .with_duration(Duration::from_secs(1)),
        ];
        let out = run_parallel(cfgs, 0);
        assert_eq!(out.len(), 1);
    }
}
