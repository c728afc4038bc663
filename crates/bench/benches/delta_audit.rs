//! P10: delta maintenance versus full rebuild.
//!
//! The question the delta pipeline exists to answer: with a live
//! [`IncrementalAuditor`] over N providers, what does absorbing k
//! population mutations cost compared to recompiling the population and
//! re-auditing from scratch? One `churn` workload per k (upserts, joins,
//! departures, preference/sensitivity/threshold edits), at N=100k and
//! k ∈ {1, 100, 10k}:
//!
//! * `delta/apply/{k}` — a long-lived auditor re-applies the same delta
//!   each sample. The mutated state is a fixed point of the delta (churn
//!   never resurrects a removed id), so every application after the first
//!   leaves the auditor byte-identical — the loop measures the steady-state
//!   O(changed) re-score. Removals degrade to no-ops in the steady state,
//!   slightly *under*-working that leg relative to a first application;
//!   their real cost is O(1) swap-removes, so the comparison is fair at
//!   the reported precision.
//! * `delta/rebuild/{k}` — compile the mutated profiles into a fresh
//!   population and build a fresh auditor over it (the pre-delta way to
//!   track churn), every sample.
//!
//! Before timing, the delta-applied auditor is asserted outcome-equal to
//! the fresh rebuild (the `delta_equivalence.rs` property suite pins the
//! deeper byte-identity), and every sample re-asserts `Violations`.
//!
//! Emit JSON with: `QPV_BENCH_JSON=BENCH_delta_audit.json \
//!     cargo bench -p qpv-bench --bench delta_audit`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qpv_core::{CompiledPopulation, IncrementalAuditor};
use qpv_synth::population::generate_stable;
use qpv_synth::workload::churn;
use qpv_synth::Scenario;
use std::hint::black_box;

const N: usize = 100_000;
const K_DELTAS: [usize; 3] = [1, 100, 10_000];

fn bench_delta_vs_rebuild(c: &mut Criterion) {
    let n = qpv_bench::bench_n(N);
    let scenario = Scenario::healthcare(64, 42); // spec donor
    let population = generate_stable(&scenario.spec, n, 42);
    let engine = scenario.engine();
    let attrs = scenario.spec.attribute_names();
    let weights = scenario.spec.attribute_weights();
    let base = IncrementalAuditor::from_population(
        CompiledPopulation::from_profiles(&population.profiles),
        attrs.clone(),
        &weights,
        engine.policy.clone(),
    );

    let mut group = c.benchmark_group("delta");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    for k in K_DELTAS {
        let delta = churn(&scenario.spec, n, k, 99);
        let mut mutated = population.profiles.clone();
        delta.apply_to_profiles(&mut mutated);
        let expected = IncrementalAuditor::from_population(
            CompiledPopulation::from_profiles(&mutated),
            attrs.clone(),
            &weights,
            engine.policy.clone(),
        )
        .outcome();

        // Oracle: a first application lands exactly on the rebuilt state.
        let mut live = base.clone();
        live.apply_delta(&delta).expect("unique-id population");
        assert_eq!(live.outcome(), expected, "k={k}");

        // Steady state: re-applying the delta is a fixed point, so the
        // timed region is pure delta absorption, no per-sample clone.
        group.bench_with_input(BenchmarkId::new("apply", k), &k, |b, _| {
            b.iter(|| {
                live.apply_delta(black_box(&delta)).expect("fixed point");
                let outcome = live.outcome();
                assert_eq!(outcome.total_violations, expected.total_violations);
                black_box(outcome)
            });
        });

        // What tracking the same churn cost before the delta pipeline:
        // recompile the mutated population and rebuild the auditor.
        group.bench_with_input(BenchmarkId::new("rebuild", k), &k, |b, _| {
            b.iter(|| {
                let pop = CompiledPopulation::from_profiles(black_box(&mutated));
                let rebuilt = IncrementalAuditor::from_population(
                    pop,
                    attrs.clone(),
                    &weights,
                    engine.policy.clone(),
                );
                let outcome = rebuilt.outcome();
                assert_eq!(outcome.total_violations, expected.total_violations);
                black_box(outcome)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_delta_vs_rebuild);
criterion_main!(benches);
